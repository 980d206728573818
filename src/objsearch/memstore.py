"""Append-only long-term memory with semantic, temporal, and spatial indices.

The memory is columnar and content-addressed. Each distinct caption
embedding is stored once, as a row of one (k, d) table, and each distinct
raw observation once, in one list; a record holds a row id and a raw id. A
record's timestep, day, position, yaw and room are columns. MemoryRecords
are built only when asked for (``record``, ``records``); queries and the
executor's views read the columns. ``build`` takes its stream as runs of
ticks with one pose and one observation (core.ObservationStream) and fills
the columns per run, so the only per-record Python work left is rendering
realistic captions.

Retrieval is an exact full scan over the columns. A semantic query scores
the k table rows and gathers the scores by row id, which gives the same
scores, hits and tie order as scoring every record. Desk-scale memories stay
well under 1e5 records, where exact scan is both fast and trivially testable
against a linear oracle.

Concurrency: one writer may append or extend while readers query. A batch
is validated whole and published at once: its table rows are written before
any record refers to them, then its record columns, then the record count.
Readers snapshot the record count first and then slice each column. So every
query sees a consistent prefix of the insertion order that ends at a batch
boundary: a whole batch or none of it.

Memory file v2 (``FORMAT_VERSION = 2``), a checksummed artifact file
(see artifacts.py):

- header: ``format_version``, ``d``, ``ticks_per_day``, ``snapshot_every``,
  ``embedder_id``, ``mode``, and the table sizes ``embeddings`` (k),
  ``raws`` (m) and ``count`` (n, the records);
- k lines, each one embedding row as a list of d floats;
- m lines, each one raw observation (``SymbolicObservation.to_dict``);
- n lines, one per record: ``[t, day, x, y, yaw, room, row, raw]``, where
  ``row`` and ``raw`` index the two tables.

``load`` switches on the header's ``format_version``: a v1 file (one
``MemoryRecord.to_dict`` line per record, no tables) still loads, sharing
equal non-keyframe raws of consecutive records.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import (
    MemoryRecord,
    NoiseModel,
    DEFAULT_NOISE,
    ObservationStream,
    Pose,
    SymbolicObservation,
    Tick,
    Timestep,
    render_caption,
    stable_seed,
)
from . import artifacts
from .artifacts import IntegrityError
from .embed import Embedder, EmbedderConfig

FORMAT_VERSION = 2
DEFAULT_SNAPSHOT_EVERY = 25
DEFAULT_TOP_R = 5

# Similarity scores are quantized before ranking so that orderings do not
# depend on last-ulp differences between BLAS implementations.
SCORE_DECIMALS = 9

# The fields of one record, in the order of a v2 record line.
RECORD_FIELDS = ("t", "day", "x", "y", "yaw", "room", "row", "raw")


class BatchError(ValueError):
    """A record batch failed validation; nothing of it was stored.

    part is "record" when position indexes the batch's records, or the name
    of the table ("embeddings") whose new rows it indexes.
    """

    def __init__(self, position: int, reason: str, part: str = "record"):
        where = "batch position" if part == "record" else f"batch {part} row"
        super().__init__(f"{where} {position}: {reason}")
        self.position = position
        self.reason = reason
        self.part = part


@dataclass(frozen=True)
class Batch:
    """Records in columnar form, as extend takes them from build and load.

    One sequence per field of RECORD_FIELDS. embeddings and raws are the
    table entries new with this batch; a record's row and raw ids index the
    memory's tables as they stand once those entries are appended.
    """

    t: Sequence[int]
    day: Sequence[int]
    x: Sequence[float]
    y: Sequence[float]
    yaw: Sequence[float]
    room: Sequence[str]
    row: Sequence[int]
    raw: Sequence[int]
    embeddings: Sequence[np.ndarray]
    raws: Sequence[SymbolicObservation]


@dataclass(frozen=True)
class QueryResult:
    """Ranked hits from one memory query, best first.

    Score semantics depend on the query: cosine similarity (semantic, higher
    is better), absolute timestep distance (temporal point, lower is better),
    timestep value (temporal window, recency order), Euclidean distance in
    meters (spatial, lower is better). Ties always break toward the lower
    record index.
    """

    hits: tuple[tuple[int, float], ...]

    def __len__(self) -> int:
        return len(self.hits)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.hits)


def _row_problem(vec: np.ndarray, d: int) -> Optional[str]:
    """Why vec cannot be an embedding row, or None."""
    if vec.shape != (d,):
        return f"embedding dimension {vec.shape} != {(d,)}"
    # The dot-then-sqrt that MemoryRecord checks.
    norm = math.sqrt(vec @ vec)
    if abs(norm - 1.0) > 1e-6:
        return f"embedding must be unit norm, got {norm:.8f}"
    return None


def _first(mask: np.ndarray) -> Optional[int]:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _grown(a: np.ndarray, need: int, used: int) -> np.ndarray:
    """a, or a larger copy of it when it holds fewer than need rows."""
    if need <= a.shape[0]:
        return a
    grown = np.zeros((max(need, 2 * a.shape[0]),) + a.shape[1:], dtype=a.dtype)
    grown[:used] = a[:used]
    return grown


class RecordsView(SequenceABC):
    """Read-only sequence of the records published when it was made."""

    def __init__(self, memory: "LongTermMemory"):
        self._memory = memory
        self._n = len(memory)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            built = self._memory._built(self._n)
            return [built[j] for j in range(self._n)[i]]
        j = operator.index(i)
        if not -self._n <= j < self._n:
            raise IndexError(f"record index {i} out of range [0, {self._n})")
        j %= self._n
        # O(1): a record no pass has built yet is built alone, not with the
        # prefix before it.
        built = self._memory._records
        return built[j] if j < len(built) else self._memory.record(j)

    def __iter__(self):
        return iter(self._memory._built(self._n)[: self._n])


class LongTermMemory:
    """Append-only record columns over an embedding table and a raw table,
    plus three query indices."""

    _COLUMNS = ("_t", "_day", "_pos", "_yaw", "_room", "_row_id", "_raw_id")

    def __init__(
        self,
        d: int,
        ticks_per_day: int,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        embedder_id: str = "",
        mode: str = "oracle",
    ):
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.d = d
        self.ticks_per_day = ticks_per_day
        self.snapshot_every = snapshot_every
        self.embedder_id = embedder_id
        self.mode = mode
        self._n = 0
        self._records: list[MemoryRecord] = []  # see _built
        # Tables: distinct embedding rows and distinct raw observations.
        self._k = 0
        self._table = np.zeros((8, d), dtype=np.float64)
        self._raws: list[SymbolicObservation] = []
        # Lookups that let MemoryRecords share stored table entries, filled
        # only when MemoryRecords are added (see _batch_of): the bytes of an
        # embedding row and the id() of a stored raw.
        self._row_of: dict[bytes, int] = {}
        self._raw_of: dict[int, int] = {}
        self._keyed = (0, 0)  # the rows and raws entered in those lookups
        cap = 64
        self._t = np.zeros(cap, dtype=np.int64)
        self._day = np.zeros(cap, dtype=np.int64)
        self._pos = np.zeros((cap, 2), dtype=np.float64)
        self._yaw = np.zeros(cap, dtype=np.float64)
        self._room = np.zeros(cap, dtype=object)
        self._row_id = np.zeros(cap, dtype=np.int64)
        self._raw_id = np.zeros(cap, dtype=np.int64)

    def __len__(self) -> int:
        return self._n

    @property
    def records(self) -> Sequence[MemoryRecord]:
        return RecordsView(self)

    def record(self, i: int) -> MemoryRecord:
        """One record by index, built from the columns."""
        if not (0 <= i < self._n):
            raise IndexError(f"record index {i} out of range [0, {self._n})")
        embedding = self._table[self._row_id[i]]
        embedding.flags.writeable = False
        return MemoryRecord(
            t=self.timestep(i),
            pose=Pose(position=tuple(self._pos[i].tolist()), yaw=float(self._yaw[i]), room_id=self._room[i]),
            embedding=embedding,
            raw=self._raws[self._raw_id[i]],
        )

    def timestep(self, i: int) -> Timestep:
        """The timestep of one record."""
        if not (0 <= i < self._n):
            raise IndexError(f"record index {i} out of range [0, {self._n})")
        return Timestep(value=int(self._t[i]), day=int(self._day[i]))

    def _built(self, n: int) -> list[MemoryRecord]:
        """At least the first n records as MemoryRecords, built on the first
        use of records and kept, so that later passes cost what a list's do.
        A racing reader may build the same prefix again; either list is
        correct."""
        built = self._records
        if len(built) < n:
            built = built + [self.record(i) for i in range(len(built), n)]
            self._records = built
        return built

    def fields(self, indices: Sequence[int]) -> dict[str, list]:
        """Fields of the given records, one list per field: t, day, x, y,
        room and raw (the stored observation). One gather per column; no
        MemoryRecord is built."""
        n = self._n
        idx = np.asarray(indices, dtype=np.intp)
        # One bound check for both ends: a negative index is huge unsigned.
        if idx.size and idx.view(np.uintp).max() >= n:
            raise IndexError(f"record index out of range [0, {n})")
        pos = self._pos[idx]
        raws = self._raws
        return {
            "t": self._t[idx].tolist(),
            "day": self._day[idx].tolist(),
            "x": pos[:, 0].tolist(),
            "y": pos[:, 1].tolist(),
            "room": self._room[idx].tolist(),
            "raw": [raws[j] for j in self._raw_id[idx].tolist()],
        }

    @property
    def semantic_index(self) -> np.ndarray:
        """The (n, d) embedding of every record, gathered on each call."""
        n = self._n
        return self._table[self._row_id[:n]]

    @property
    def temporal_index(self) -> np.ndarray:
        return self._t[: self._n]

    @property
    def spatial_index(self) -> np.ndarray:
        return self._pos[: self._n]

    def append(self, record: MemoryRecord) -> int:
        """Append one record; see extend."""
        return self.extend((record,))

    def _batch_of(self, records: list[MemoryRecord]) -> tuple[Batch, list[int]]:
        """records as a Batch, sharing table entries: an embedding whose
        bytes equal a row's, or a raw observation that is a stored one (the
        same object), reuses it. Also returns, per new row, the position of
        the record that brought it."""
        k, m = self._k, len(self._raws)
        for j in range(self._keyed[0], k):
            self._row_of.setdefault(self._table[j].tobytes(), j)
        for j in range(self._keyed[1], m):
            self._raw_of[id(self._raws[j])] = j
        self._keyed = (k, m)
        rows: dict[bytes, int] = {}
        raw_of: dict[int, int] = {}
        embeddings: list[np.ndarray] = []
        raws: list[SymbolicObservation] = []
        origin: list[int] = []
        cols: tuple[list, ...] = tuple([] for _ in RECORD_FIELDS)
        t, day, x, y, yaw, room, row_ids, raw_ids = cols
        for j, record in enumerate(records):
            key = record.embedding.tobytes()
            row = self._row_of.get(key, rows.get(key))
            if row is None:
                row = rows[key] = k + len(embeddings)
                embeddings.append(record.embedding)
                origin.append(j)
            raw = self._raw_of.get(id(record.raw), raw_of.get(id(record.raw)))
            if raw is None:
                raw = raw_of[id(record.raw)] = m + len(raws)
                raws.append(record.raw)
            t.append(record.t.value)
            day.append(record.t.day)
            x.append(record.pose.position[0])
            y.append(record.pose.position[1])
            yaw.append(record.pose.yaw)
            room.append(record.pose.room_id)
            row_ids.append(row)
            raw_ids.append(raw)
        return Batch(*cols, embeddings=embeddings, raws=raws), origin

    def extend(self, records: Union[Batch, Iterable[MemoryRecord]]) -> int:
        """Append a batch of records and return the index of its first one.

        records is a Batch or MemoryRecords; MemoryRecords share table
        entries as _batch_of says. The whole batch is checked before
        anything is stored: every new table row must have shape (d,) and
        unit norm (checked once per row), timesteps and days must be
        non-negative, row and raw ids must index the tables, and timestamps
        must increase strictly, within the batch and after the last stored
        record. A bad batch raises BatchError and stores nothing. It names
        the first bad record's position in the batch; a bad new row of a
        Batch is named by its position among the new rows, and one of
        MemoryRecords by the record that brought it.
        """
        if isinstance(records, Batch):
            batch, origin = records, None
        else:
            batch, origin = self._batch_of(list(records))
        n, k, m = self._n, self._k, len(self._raws)
        problems: list[tuple[int, str]] = []  # (record position, reason)
        embeddings = [np.asarray(vec, dtype=np.float64) for vec in batch.embeddings]
        for j, vec in enumerate(embeddings):
            reason = _row_problem(vec, self.d)
            if reason is not None:
                if origin is None:
                    raise BatchError(j, reason, part="embeddings")
                problems.append((origin[j], reason))
                break
        t = np.asarray(batch.t, dtype=np.int64)
        day = np.asarray(batch.day, dtype=np.int64)
        row = np.asarray(batch.row, dtype=np.int64)
        raw = np.asarray(batch.raw, dtype=np.int64)
        size = len(t)
        if any(len(col) != size for col in (day, batch.x, batch.y, batch.yaw, batch.room, row, raw)):
            raise ValueError("batch columns differ in length")
        k_after, m_after = k + len(embeddings), m + len(batch.raws)
        checks = (
            ((t < 0) | (day < 0), lambda j: "timestep value and day must be non-negative"),
            ((row < 0) | (row >= k_after), lambda j: f"row id {row[j]} out of range [0, {k_after})"),
            ((raw < 0) | (raw >= m_after), lambda j: f"raw id {raw[j]} out of range [0, {m_after})"),
        )
        for mask, why in checks:
            j = _first(mask)
            if j is not None:
                problems.append((j, why(j)))
        # The timestamp before each one; -1 stands before an empty memory.
        prev = np.concatenate(([self._t[n - 1] if n else -1], t[:-1]))
        j = _first(t <= prev)
        if j is not None:
            problems.append((j, f"non-monotonic timestamp {t[j]} after {prev[j]}"))
        if problems:
            raise BatchError(*min(problems, key=lambda p: p[0]))
        if not size:
            return n
        # Table rows first, then record columns, then the count: rows below
        # _n, and every table entry they name, are immutable once published.
        if embeddings:
            self._table = _grown(self._table, k_after, k)
            self._table[k:k_after] = embeddings
            self._k = k_after
        self._raws.extend(batch.raws)
        end = n + size
        for name in self._COLUMNS:
            setattr(self, name, _grown(getattr(self, name), end, n))
        self._t[n:end] = t
        self._day[n:end] = day
        self._pos[n:end, 0] = batch.x
        self._pos[n:end, 1] = batch.y
        self._yaw[n:end] = batch.yaw
        self._room[n:end] = batch.room
        self._row_id[n:end] = row
        self._raw_id[n:end] = raw
        self._n = end
        return n

    def _snapshot(self) -> Batch:
        """The published records and the table entries they may name,
        as arrays."""
        n = self._n
        k = self._k
        return Batch(
            self._t[:n], self._day[:n], self._pos[:n, 0], self._pos[:n, 1], self._yaw[:n],
            self._room[:n], self._row_id[:n], self._raw_id[:n],
            embeddings=self._table[:k], raws=list(self._raws),
        )

    # -- queries ------------------------------------------------------------

    def _result(self, order: np.ndarray, scores: np.ndarray) -> QueryResult:
        return QueryResult(hits=tuple(zip(order.tolist(), scores.tolist())))

    def query_semantic_vector(self, qvec: np.ndarray, r: int = DEFAULT_TOP_R) -> QueryResult:
        if r < 1:
            raise ValueError("r must be >= 1")
        n = self._n
        if n == 0:
            return QueryResult(hits=())
        row, k = self._row_id[:n], self._k
        table_scores = np.round(self._table[:k] @ np.asarray(qvec, dtype=np.float64), SCORE_DECIMALS)
        scores = table_scores[row]
        order = np.argsort(-scores, kind="stable")[:r]
        return self._result(order, scores[order])

    def query_semantic(self, query: str, embedder: Embedder, r: int = DEFAULT_TOP_R) -> QueryResult:
        """Top-r records by cosine similarity between the embedded query and
        stored caption embeddings."""
        return self.query_semantic_vector(embedder(query), r=r)

    def query_temporal(
        self,
        t_center: Optional[int] = None,
        day_window: Optional[tuple[int, int]] = None,
        r: int = DEFAULT_TOP_R,
    ) -> QueryResult:
        """Point form: top-r by |t - t_center|, ties toward smaller t.
        Window form: records with day in [d_start, d_end], most recent first,
        truncated to r."""
        if r < 1:
            raise ValueError("r must be >= 1")
        if (t_center is None) == (day_window is None):
            raise ValueError("provide exactly one of t_center and day_window")
        n = self._n
        if n == 0:
            return QueryResult(hits=())
        ts = self._t[:n]
        if t_center is not None:
            dist = np.abs(ts - int(t_center))
            order = np.argsort(dist, kind="stable")[:r]
            return self._result(order, dist[order].astype(np.float64))
        d_start, d_end = day_window  # type: ignore[misc]
        if d_start > d_end:
            raise ValueError(f"empty day window [{d_start}, {d_end}]")
        days = ts // self.ticks_per_day
        idx = np.nonzero((days >= d_start) & (days <= d_end))[0]
        order = idx[np.argsort(-ts[idx], kind="stable")][:r]
        return self._result(order, ts[order].astype(np.float64))

    def query_spatial(self, center: tuple[float, float], radius: float, r: int = DEFAULT_TOP_R) -> QueryResult:
        """Records whose pose lies within radius of center, nearest first.
        A non-finite center or radius is an error, not an empty result; a
        finite one, however far, measures every distance that fits a float."""
        if r < 1:
            raise ValueError("r must be >= 1")
        if not np.all(np.isfinite([*center, radius])):
            raise ValueError("center and radius must be finite")
        if radius <= 0:
            raise ValueError("radius must be positive")
        n = self._n
        if n == 0:
            return QueryResult(hits=())
        # np.linalg.norm squares the offsets, and rounding scales them up,
        # so a far but finite center overflows to inf; those entries, and
        # only those, are recomputed with np.hypot, which does not square,
        # and kept unrounded where rounding would overflow again.
        with np.errstate(over="ignore"):
            offsets = self._pos[:n] - np.asarray(center, dtype=np.float64)
            dist = np.round(np.linalg.norm(offsets, axis=1), SCORE_DECIMALS)
            far = np.isinf(dist)
            if far.any():
                exact = np.hypot(offsets[far, 0], offsets[far, 1])
                rounded = np.round(exact, SCORE_DECIMALS)
                dist[far] = np.where(np.isinf(rounded), exact, rounded)
        idx = np.nonzero(dist <= radius)[0]
        order = idx[np.argsort(dist[idx], kind="stable")][:r]
        return self._result(order, dist[order])

    def fetch_raw(self, record_index: int) -> SymbolicObservation:
        """Return the stored raw observation for one record, unchanged."""
        if not (0 <= record_index < self._n):
            raise IndexError(f"record index {record_index} out of range [0, {self._n})")
        return self._raws[self._raw_id[record_index]]


def build(
    stream: Iterable[Tick],
    embedder: Embedder | EmbedderConfig,
    mode: str = "oracle",
    *,
    noise: NoiseModel = DEFAULT_NOISE,
    noise_seed: int = 0,
    snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    ticks_per_day: int = 200,
) -> LongTermMemory:
    """Construct long-term memory from an observation stream.

    Construction is task-agnostic: it sees only the stream. Captions are
    rendered from the raw entity lists under the requested mode (the noise
    seed for each record derives from noise_seed and its timestep), embedded
    once per distinct caption, and stored alongside the raw observation.
    Every snapshot_every-th record is flagged as a keyframe.

    The stream is taken as runs (ObservationStream.of): ticks of one day
    seen from one pose object with one observation object. An oracle
    caption depends only on the entity list, so it is rendered once per run;
    a realistic one is rendered per record. The record columns are filled
    per run, with no per-record Python work.

    Records share raw observations per view: consecutive non-keyframe
    records whose stream observation is the same object and whose caption is
    the same share one stored raw observation. So a new raw starts at a
    keyframe, at the record after one, and where the observation or the
    caption changes. All records go into the memory as one columnar batch.
    """
    if isinstance(embedder, EmbedderConfig):
        embedder = Embedder(embedder)
    memory = LongTermMemory(
        d=embedder.d,
        ticks_per_day=ticks_per_day,
        snapshot_every=snapshot_every,
        embedder_id=embedder.embedder_id,
        mode=mode,
    )
    stream = ObservationStream.of(stream)
    runs = list(stream.runs())
    n = len(stream)
    lengths = np.array([run[2] for run in runs], dtype=np.int64)
    run_first = np.cumsum(lengths) - lengths
    # Pieces: stretches of one run with one caption, in record order. Each
    # has its first record, observation, caption and embedding row, and
    # whether its observation or caption differs from the record before.
    first: list[int] = []
    observations: list[SymbolicObservation] = []
    captions: list[str] = []
    rows: list[int] = []
    changed: list[bool] = []
    row_of_caption: dict[str, int] = {}
    embeddings: list[np.ndarray] = []
    for i, (t0, _, length, _, obs) in zip(run_first.tolist(), runs):
        for t in range(t0, t0 + (1 if mode == "oracle" else length)):
            caption = render_caption(
                obs.visible_entities,
                mode=mode,
                seed=stable_seed("caption", noise_seed, t),
                noise=noise,
            )
            if t > t0 and caption == captions[-1]:
                continue
            row = row_of_caption.get(caption)
            if row is None:
                row = row_of_caption[caption] = len(embeddings)
                embeddings.append(embedder(caption))
            changed.append(not captions or obs is not observations[-1] or caption != captions[-1])
            first.append(i + t - t0)
            observations.append(obs)
            captions.append(caption)
            rows.append(row)
    index = np.arange(n, dtype=np.int64)
    keyframe = index % snapshot_every == 0
    new_raw = keyframe.copy()
    new_raw[1:] |= keyframe[:-1]
    new_raw[np.array(first, dtype=np.int64)[np.array(changed, dtype=bool)]] = True
    piece = np.repeat(np.arange(len(first)), np.diff(np.array([*first, n], dtype=np.int64)))
    raws = [
        SymbolicObservation(observations[p].visible_entities, captions[p], keyframe=k)
        for p, k in zip(piece[new_raw].tolist(), keyframe[new_raw].tolist())
    ]

    def per_run(values, dtype) -> np.ndarray:
        return np.repeat(np.array(values, dtype=dtype), lengths)

    poses = [run[3] for run in runs]
    batch = Batch(
        t=per_run([run[0] for run in runs], np.int64) + index - np.repeat(run_first, lengths),
        day=per_run([run[1] for run in runs], np.int64),
        x=per_run([pose.position[0] for pose in poses], np.float64),
        y=per_run([pose.position[1] for pose in poses], np.float64),
        yaw=per_run([pose.yaw for pose in poses], np.float64),
        room=per_run([pose.room_id for pose in poses], object),
        row=np.array(rows, dtype=np.int64)[piece],
        raw=np.cumsum(new_raw) - 1,
        embeddings=embeddings,
        raws=raws,
    )
    memory.extend(batch)
    return memory


# -- persistence -------------------------------------------------------------

_HEADER_KEYS = ("format_version", "d", "ticks_per_day", "snapshot_every", "embedder_id", "mode")


def persist(memory: LongTermMemory, path: str, extra_header: Optional[dict] = None) -> None:
    """Write a memory file v2 (see the module docstring) in the checksummed
    artifact format.

    extra_header fields (e.g. a producing-config hash) are merged into the
    header without displacing the required keys.
    """
    header = {
        **(extra_header or {}),
        "format_version": FORMAT_VERSION,
        "d": memory.d,
        "ticks_per_day": memory.ticks_per_day,
        "snapshot_every": memory.snapshot_every,
        "embedder_id": memory.embedder_id,
        "mode": memory.mode,
    }
    snap = memory._snapshot()
    columns = [getattr(snap, name).tolist() for name in RECORD_FIELDS]
    tables = {
        "embeddings": (row.tolist() for row in snap.embeddings),
        "raws": (raw.to_dict() for raw in snap.raws),
    }
    artifacts.write(path, header, zip(*columns), tables=tables)


def _embedding_row(values: list) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _record_line(values: list) -> list:
    """One v2 record line, type-checked field by field."""
    if type(values) is not list or len(values) != len(RECORD_FIELDS):
        raise ValueError(f"expected a list of {len(RECORD_FIELDS)} fields")
    t, day, x, y, yaw, room, row, raw = values
    if not (type(t) is int and type(day) is int and type(row) is int and type(raw) is int
            and type(room) is str and type(x) in (float, int) and type(y) in (float, int)
            and type(yaw) in (float, int)):
        raise ValueError(f"malformed field types in {values!r}")
    return values


def load(path: str) -> LongTermMemory:
    """Load a memory file of format version 1 or 2, verifying the checksum,
    the header, every table row and every record."""
    header, lines = artifacts.verify(path, require=_HEADER_KEYS)
    version = header["format_version"]
    if version not in (1, FORMAT_VERSION):
        raise IntegrityError(f"unsupported format_version {version!r}, expected 1 or {FORMAT_VERSION}")
    try:
        memory = LongTermMemory(
            d=int(header["d"]),
            ticks_per_day=int(header["ticks_per_day"]),
            snapshot_every=int(header["snapshot_every"]),
            embedder_id=str(header["embedder_id"]),
            mode=str(header["mode"]),
        )
    except (TypeError, ValueError) as exc:
        raise IntegrityError(f"malformed header: {exc}") from exc
    if version == 1:
        [batch] = artifacts.sections(header, lines, MemoryRecord.from_dict)  # MemoryRecords
        # Each v1 line has its own raw. A raw equal to the one before, with
        # neither a keyframe, becomes that one, so the raws are shared as a
        # build shares them.
        for j in range(1, len(batch)):
            prev = batch[j - 1].raw
            if not prev.keyframe and batch[j].raw == prev:
                batch[j] = replace(batch[j], raw=prev)
    else:
        embeddings, raws, records = artifacts.sections(
            header, lines, _record_line,
            tables={"embeddings": _embedding_row, "raws": SymbolicObservation.from_dict},
        )
        columns = list(zip(*records)) or [()] * len(RECORD_FIELDS)
        batch = Batch(*columns, embeddings=embeddings, raws=raws)
    try:
        memory.extend(batch)
    except BatchError as exc:
        raise IntegrityError(f"{exc.part} {exc.position}: {exc.reason}") from exc
    return memory


__all__ = [
    "Batch",
    "BatchError",
    "DEFAULT_SNAPSHOT_EVERY",
    "DEFAULT_TOP_R",
    "FORMAT_VERSION",
    "IntegrityError",
    "LongTermMemory",
    "QueryResult",
    "RECORD_FIELDS",
    "build",
    "load",
    "persist",
]
