"""Shared test helpers. Test modules import them with ``from conftest import ...``."""

import functools
import hashlib
import json

from objsearch.core import Pose, SymbolicObservation, VisibleEntity
from objsearch.memstore import Batch


def no_crash(run):
    """run (run_episode or run_task_episode) for a test that expects its
    episode to end without a crash. The loop returns a crash as a result
    rather than raising it, so through this a crash fails the test, with
    its error, where an unchecked result would pass."""
    @functools.wraps(run)
    def checked(*args, **kwargs):
        result = run(*args, **kwargs)
        assert result.error is None, result.error
        return result
    return checked


def spec_batch(memory, specs, embedder):
    """A Batch of one record per (t, caption, pos) spec, to extend memory
    with as it stands now.

    Record t's raw is a new observation of one mug, "e<t>", at the sink,
    with the caption and the embedding embedder(caption); its pose is a new
    pose at pos, of yaw 0 in room "kitchen"; its day is
    t // memory.ticks_per_day. New poses and raws are numbered after the
    memory's tables.
    """
    specs = list(specs)
    raws = []
    for t, caption, _ in specs:
        entity = VisibleEntity(entity_id=f"e{t}", class_label="mug", attributes=(), landmark_id="sink")
        raws.append(SymbolicObservation(visible_entities=(entity,), caption=caption))
    ts = [t for t, _, _ in specs]
    p, m = len(memory._set.poses), len(memory._set.raws)
    return Batch(
        t=ts,
        day=[t // memory.ticks_per_day for t in ts],
        pose=list(range(p, p + len(specs))),
        raw=list(range(m, m + len(specs))),
        poses=[Pose(position=pos, yaw=0.0, room_id="kitchen") for _, _, pos in specs],
        embeddings=[embedder(caption) for _, caption, _ in specs],
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
