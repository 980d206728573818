"""Shared test helpers. Test modules import them with ``from conftest import ...``."""

import hashlib
import json

from objsearch.core import SymbolicObservation, VisibleEntity
from objsearch.memstore import Batch


def spec_batch(memory, specs, embedder):
    """A Batch of one record per (t, caption, pos) spec, to extend memory
    with as it stands now.

    Record t's raw is a new observation of one mug, "e<t>", at the sink,
    with the caption; its day is t // memory.ticks_per_day, its yaw 0 and
    its room "kitchen". Its embedding is embedder(caption); a caption whose
    embedding is already a row of the memory, or of this batch, shares that
    row, and new rows and raws are numbered after the memory's tables.
    """
    specs = list(specs)
    row_of = {memory._set.embeddings[j].tobytes(): j for j in range(len(memory._set.embeddings))}
    embeddings, raws, rows = [], [], []
    for t, caption, _ in specs:
        vec = embedder(caption)
        row = row_of.setdefault(vec.tobytes(), len(memory._set.embeddings) + len(embeddings))
        if row == len(memory._set.embeddings) + len(embeddings):
            embeddings.append(vec)
        rows.append(row)
        entity = VisibleEntity(entity_id=f"e{t}", class_label="mug", attributes=(), landmark_id="sink")
        raws.append(SymbolicObservation(visible_entities=(entity,), caption=caption))
    ts = [t for t, _, _ in specs]
    m = len(memory._set.raws)
    return Batch(
        t=ts,
        day=[t // memory.ticks_per_day for t in ts],
        x=[pos[0] for _, _, pos in specs],
        y=[pos[1] for _, _, pos in specs],
        yaw=[0.0] * len(specs),
        room=["kitchen"] * len(specs),
        row=rows,
        raw=list(range(m, m + len(specs))),
        embeddings=embeddings,
        raws=raws,
    )


def rewrite_lines(path, edit):
    """Replace the lines of an artifact file before its checksum line by
    edit(those lines, as strings) and re-checksum it."""
    lines = edit(open(path).read().splitlines()[:-1])
    body = "".join(line + "\n" for line in lines)
    open(path, "w").write(body + '{"sha256":"%s"}\n' % hashlib.sha256(body.encode()).hexdigest())


def rewrite_header(path, edit):
    """Apply edit to the header of an artifact file and re-checksum it."""
    def edited(header):
        edit(header)
        return header

    rewrite_line(path, 0, edited)


def rewrite_line(path, index, edit):
    """Replace line index of an artifact file by edit(parsed line) and re-checksum it."""
    def edited(lines):
        lines[index] = json.dumps(edit(json.loads(lines[index])), sort_keys=True, separators=(",", ":"))
        return lines

    rewrite_lines(path, edited)
