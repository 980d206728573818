"""Append-only long-term memory with semantic, temporal, and spatial queries.

The memory is columnar and content-addressed: a table of P poses, each
distinct pose once (floats by their bits, so 0.0 and -0.0 are two poses), a
table of m raws, each distinct raw observation (entity list and caption)
once with its caption's embedding as its row of an (m, d) array, and the
integer record columns: timestep, day (t // ticks_per_day), pose id and raw
id. Records enter only as a columnar ``Batch`` (``extend``), from ``build``
and ``load``; queries read the columns, and MemoryRecords are built only
when asked for (``record``, ``records``). ``build`` takes its stream as runs
of ticks with one pose and one observation (core.ObservationStream) and
fills the columns per run. Realistic noise is coded for all records at
once, each distinct phrase rendered once, and captions joined from phrase
ids and embedded in one batch; the Python work left is per run, per
distinct phrase and per distinct raw.

Retrieval is exact: each query answers as a linear scan would. A semantic
query scores the m raws' embeddings and reads the best raws' postings (their
records, ascending) up to r hits, O(m·d + m log m + r); a spatial query does
the same over the P poses within the radius, O(P log P + r). The postings
are derived indexes, built in O(n) on first use of each record set, never
stored. Timesteps increase strictly, so a temporal query is a binary search
of the t column plus O(r) work; a day window asked per run also searches
the ends of the maximal runs of records, derived alike (the file's runs).

Concurrency: a memory holds one immutable record set (_RecordSet), every
record column and the raws' embeddings as read-only arrays and both tables
as tuples. extend checks a batch whole, makes the next record set by
concatenating each column and table with the batch's, and publishes it with
one assignment. Every query, read and persist takes the record set once, so
one writer may extend while readers query and each reader sees whole
batches only. A record set's indexes (postings, run ends) and the tables
retrieval payloads are gathered from (a caption per raw, the pose table's
(x, y, room) rows, and the record count with the last t and day) are
derived on first use and kept with it, so none outlives its set; the
executor reads fetch_raw's record view from the set too.

Memory file v8 (``FORMAT_VERSION = 8``), a checksummed artifact file (see
artifacts.py), holds the two tables and the maximal runs of records (t rises
by 1 and the other fields are equal) column by column, and nothing it can
derive:

- header: ``format_version``, ``d``, ``ticks_per_day``, ``embedder_id``,
  ``mode``, the counts ``records`` (n), ``runs``, ``poses`` (P) and ``raws``
  (m), and the line counts ``entity_lists`` and ``count``;
- one line per distinct entity list of the raws, a list of entity dicts;
- one line per column, ``{name: [value per run, pose or raw]}``: the run
  table's ``t0`` (a run's first timestep), ``length`` (the lengths sum to
  n), ``day``, ``pose`` and ``raw``, then the pose table's ``pose_x``,
  ``pose_y``, ``pose_yaw`` and ``pose_room``, then the raw table's
  ``raw_list`` (an entity list's index) and ``raw_caption``.

The embeddings of a memory of the reference embedder are a function of its
raw captions (_derives_embeddings), so load re-embeds the captions as build
does (_derived_embeddings). A memory of any other embedder_id (an external
endpoint's, or none) adds a last line ``{"embeddings": ...}``, the (m, d)
float64 array as little-endian bytes in base64. Either way persist and load
encode and decode a fixed number of lines plus one per distinct entity list.
``load`` reads v8 only, type-checks each column whole, naming the column
and its first bad run, pose or raw, then extends the memory with the runs,
checking every record. Older files are refused; a memory is rebuilt from
its stream file with ``objsearch build-memory``.
"""

from __future__ import annotations

import base64
import functools
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from .core import (
    JSON_TYPES,
    MODES,
    MemoryRecord,
    NoiseModel,
    DEFAULT_NOISE,
    EMPTY_CAPTION,
    ObservationStream,
    Pose,
    SymbolicObservation,
    Tick,
    Timestep,
    VisibleEntity,
    embedding_problem,
    entity_phrase,
    json_field,
    mislabel_pool,
    noise_codes,
    noise_draws,
)
from . import artifacts
from .artifacts import IntegrityError
from .embed import MIN_DIM, Embedder, EmbedderConfig, EmbeddingError, normalize_text

FORMAT_VERSION = 8
DEFAULT_TOP_R = 5

# Similarity scores are quantized before ranking so that orderings do not
# depend on last-ulp differences between BLAS implementations.
SCORE_DECIMALS = 9

# The fields of one record, in the order of Batch's int64 columns.
RECORD_FIELDS = ("t", "day", "pose", "raw")


class BatchError(ValueError):
    """A record batch failed validation; nothing of it was stored.

    part is "record" when position indexes the batch's records, or
    "embeddings" when it indexes the batch's embeddings, one per new raw.
    """

    def __init__(self, position: int, reason: str, part: str = "record"):
        where = "batch position" if part == "record" else f"batch {part} row"
        super().__init__(f"{where} {position}: {reason}")
        self.position = position
        self.reason = reason
        self.part = part


@dataclass(frozen=True)
class Batch:
    """Records in columnar form, the one form in which extend takes them.

    One sequence of integers per field of RECORD_FIELDS. poses are the pose
    table's entries new with this batch, raws the raw table's and embeddings
    their caption embeddings, one per raw; a record's pose and raw ids index
    the tables as they stand once those entries are appended.
    """

    t: Sequence[int]
    day: Sequence[int]
    pose: Sequence[int]
    raw: Sequence[int]
    poses: Sequence[Pose]
    embeddings: Sequence[np.ndarray]
    raws: Sequence[SymbolicObservation]


@dataclass(frozen=True, eq=False)
class QueryResult:
    """Ranked hits from one memory query, best first, as two columns: hit j
    is record index[j] with score[j].

    Score semantics depend on the query: cosine similarity (semantic, higher
    is better), absolute timestep distance (temporal point, lower is better),
    timestep value (temporal window, recency order), Euclidean distance in
    meters (spatial, lower is better). Ties always break toward the lower
    record index. hits and indices give the columns as Python tuples.
    """

    index: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    @property
    def hits(self) -> tuple[tuple[int, float], ...]:
        return tuple(zip(self.index.tolist(), self.score.tolist()))

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(self.index.tolist())


_NO_HITS = QueryResult(np.zeros(0, dtype=np.int64), np.zeros(0))  # empty, so safe to share


def _first(mask: np.ndarray) -> Optional[int]:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _postings(ids: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each of m entries' records, given each record's entry id: the record
    indices sorted by id (stable), and each id's start and count in them."""
    count = np.bincount(ids, minlength=m)
    return np.argsort(ids, kind="stable"), np.cumsum(count) - count, count


def _top(key: np.ndarray, postings: tuple, r: int, entries: Optional[np.ndarray] = None) -> tuple:
    """The first r records of the entries (all when None) by (entry key,
    index), NaN keys last, and each one's entry. Ranked entries are read,
    at most r records each, until they hold r; those tied with the last read
    are read too, and tied entries' records merge by index."""
    records, start, count = postings
    r = min(r, len(records))
    ranked = key.argsort(kind="stable") if entries is None else entries[key[entries].argsort(kind="stable")]
    size = np.minimum(count[ranked], r)
    ends = size.cumsum()
    cut = int(ends.searchsorted(r))
    if cut < len(ranked):
        keys = key[ranked]
        cut = int(keys.searchsorted(keys[cut], side="right"))
    ranked, size, ends = ranked[:cut], size[:cut], ends[:cut]
    # Entry j's records fill positions ends[j] - size[j] to ends[j] - 1.
    entry = ranked.repeat(size)
    index = records[np.arange(len(entry)) + (start[ranked] - ends + size).repeat(size)]
    if cut > 1:
        merged = np.lexsort((index, key[entry]))[:r]
        index, entry = index[merged], entry[merged]
    return index[:r], entry[:r]


class _RecordSet(Batch):
    """A memory's published records: each column of RECORD_FIELDS and both
    tables whole, the raws' embeddings as arrays that of makes read-only and
    the poses and raws as tuples, so never changed once made; and the
    indexes derived from them on first use."""

    @staticmethod
    def of(columns: Sequence[np.ndarray], poses: Sequence[Pose], embeddings: np.ndarray,
           raws: Sequence[SymbolicObservation]) -> _RecordSet:
        for array in (*columns, embeddings):
            array.flags.writeable = False
        return _RecordSet(*columns, poses=tuple(poses), embeddings=embeddings, raws=tuple(raws))

    def record(self, i: int) -> MemoryRecord:
        return MemoryRecord(
            t=Timestep(value=int(self.t[i]), day=int(self.day[i])),
            pose=self.poses[self.pose[i]],
            embedding=self.embeddings[self.raw[i]],
            raw=self.raws[self.raw[i]],
        )

    @functools.cached_property
    def records(self) -> list[MemoryRecord]:
        return [self.record(i) for i in range(len(self.t))]

    @functools.cached_property
    def raw_postings(self) -> tuple:
        """Each raw's records (_postings)."""
        return _postings(self.raw, len(self.raws))

    @functools.cached_property
    def pose_postings(self) -> tuple:
        """Each pose's records (_postings)."""
        return _postings(self.pose, len(self.poses))

    @functools.cached_property
    def pose_fields(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The poses' x, y and room, one array each."""
        x, y = np.array([pose.position for pose in self.poses], dtype=np.float64).reshape(-1, 2).T
        return x, y, np.fromiter((pose.room_id for pose in self.poses), dtype=object, count=len(self.poses))

    @functools.cached_property
    def pose_rows(self) -> np.ndarray:
        """The poses' (x, y, room) rows, a (P, 3) object array of Python
        floats and rooms, so that one take gathers all three."""
        rows = np.empty((len(self.poses), 3), dtype=object)
        rows[:, 0], rows[:, 1], rows[:, 2] = self.pose_fields
        return rows

    @functools.cached_property
    def captions(self) -> np.ndarray:
        """Each raw's caption, an object array."""
        return np.fromiter((raw.caption for raw in self.raws), dtype=object, count=len(self.raws))

    @functools.cached_property
    def last(self) -> tuple[int, Optional[int], Optional[int]]:
        """The record count and the last record's t and day (None if none)."""
        n = len(self.t)
        return (n, int(self.t[-1]), int(self.day[-1])) if n else (0, None, None)

    @functools.cached_property
    def run_starts(self) -> np.ndarray:
        """The index of each maximal run's first record: a run's t rises by 1
        and its other fields (day, pose id and raw id) are equal."""
        change = np.diff(self.t) != 1
        for column in (self.day, self.pose, self.raw):
            change |= column[1:] != column[:-1]
        return np.flatnonzero(np.concatenate(([len(self.t) > 0], change)))

    @functools.cached_property
    def run_ends(self) -> np.ndarray:
        """The index of each maximal run's last record, ascending."""
        return np.append(self.run_starts[1:], len(self.t)) - 1


class LongTermMemory:
    """Append-only record columns over a pose table and a raw table, held as
    one published record set (_RecordSet) and queried by meaning, time and
    place from its columns and the indexes derived from them."""

    def __init__(self, d: int, ticks_per_day: int, embedder_id: str = "", mode: str = "oracle"):
        if ticks_per_day < 1:
            raise ValueError("ticks_per_day must be >= 1")
        if mode not in MODES:
            raise ValueError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
        self.d = d
        self.ticks_per_day = ticks_per_day
        self.embedder_id = embedder_id
        self.mode = mode
        self._set = _RecordSet.of([np.zeros(0, np.int64) for _ in RECORD_FIELDS], (), np.zeros((0, d)), ())

    def __len__(self) -> int:
        return len(self._set.t)

    def _at(self, i: int) -> _RecordSet:
        """The record set, once i is checked to index one of its records."""
        held = self._set
        if not (0 <= i < len(held.t)):
            raise IndexError(f"record index {i} out of range [0, {len(held.t)})")
        return held

    @property
    def records(self) -> list[MemoryRecord]:
        """The published records as a new list: records added later are not
        in it. The MemoryRecords are built on the first read of a record set
        and kept, so a later read costs a list copy; build and load never
        build them."""
        return list(self._set.records)

    def record(self, i: int) -> MemoryRecord:
        """One record by index, built from the columns."""
        return self._at(i).record(i)

    def fields(self, indices: Sequence[int]) -> dict[str, list]:
        """Fields of the given records, one list per field: t, day, the pose's
        x, y and room, and the raw's caption. One take per record column and
        one from each of the record set's derived tables (pose_rows,
        captions), no MemoryRecord built."""
        held = self._set
        n = len(held.t)
        idx = np.asarray(indices, dtype=np.intp)
        # One bound check for both ends: a negative index is huge unsigned.
        if idx.size and idx.view(np.uintp).max() >= n:
            raise IndexError(f"record index out of range [0, {n})")
        x, y, room = held.pose_rows.take(held.pose.take(idx), axis=0).T.tolist()
        return {"t": held.t.take(idx).tolist(), "day": held.day.take(idx).tolist(), "x": x, "y": y, "room": room,
                "caption": held.captions.take(held.raw.take(idx)).tolist()}

    def extend(self, batch: Batch) -> int:
        """Append a batch of records and return the index of its first one.

        The whole batch is checked before anything is stored. Columns of
        unequal length, or embeddings not one per new raw, raise ValueError.
        Every new embedding must have shape (d,) and unit norm (see
        _new_rows), timesteps must be non-negative and days t //
        ticks_per_day, pose and raw ids must index their tables, and
        timestamps must increase strictly, within the batch and after the last
        stored record; otherwise BatchError names the first bad new embedding
        by its position among them, or else the first bad record's position in
        the batch. A bad batch stores nothing. A good batch is published whole:
        the next record set, each column and table the current one's followed
        by the batch's, replaces the current one in one assignment.
        """
        held = self._set
        # Records before; the tables' sizes after.
        n, p, m = len(held.t), len(held.poses) + len(batch.poses), len(held.raws) + len(batch.raws)
        t, day, pose, raw = columns = [np.asarray(getattr(batch, name), dtype=np.int64) for name in RECORD_FIELDS]
        size = len(t)
        if any(len(col) != size for col in columns):
            raise ValueError("batch columns differ in length")
        if len(batch.embeddings) != len(batch.raws):
            raise ValueError(f"batch has {len(batch.embeddings)} embeddings for {len(batch.raws)} new raws")
        embeddings = self._new_rows(batch.embeddings)
        # The timestamp before each one; -1 stands before an empty memory.
        prev = np.concatenate(([held.t[n - 1] if n else -1], t[:-1]))
        tpd = self.ticks_per_day
        checks = (
            ((t < 0) | (day < 0), lambda j: "timestep value and day must be non-negative"),
            (day != t // tpd, lambda j: f"day {day[j]} is not t // ticks_per_day = {t[j] // tpd} "
                                        f"for t={t[j]} at ticks_per_day={tpd}"),
            ((pose < 0) | (pose >= p), lambda j: f"pose id {pose[j]} out of range [0, {p})"),
            ((raw < 0) | (raw >= m), lambda j: f"raw id {raw[j]} out of range [0, {m})"),
            (t <= prev, lambda j: f"non-monotonic timestamp {t[j]} after {prev[j]}"),
        )
        # (record position, reason) of each check's first bad record
        problems = [(j, why(j)) for mask, why in checks if (j := _first(mask)) is not None]
        if problems:
            raise BatchError(*min(problems, key=lambda p: p[0]))
        if not size:
            return n
        self._set = _RecordSet.of(
            [np.concatenate((getattr(held, name), new)) for name, new in zip(RECORD_FIELDS, columns)],
            held.poses + tuple(batch.poses),
            np.concatenate((held.embeddings, embeddings)),
            held.raws + tuple(batch.raws),
        )
        return n

    def _new_rows(self, embeddings: Sequence[np.ndarray]) -> np.ndarray:
        """A batch's new rows as one (j, d) float64 array; the first row that
        core.embedding_problem refuses raises BatchError. Only rows whose einsum
        norm is not 1e-9 inside its bound are referred to it (it sums by dot)."""
        try:
            rows = np.asarray(embeddings, dtype=np.float64)
        except ValueError:  # rows of unequal lengths, or not numbers
            rows = np.zeros((0, 0))
        suspect = range(len(embeddings))
        if rows.ndim == 2 and rows.shape[1] == self.d:
            with np.errstate(over="ignore", invalid="ignore"):
                norm = np.sqrt(np.einsum("ij,ij->i", rows, rows))
            suspect = np.flatnonzero(~(np.abs(norm - 1.0) < 1e-6 - 1e-9)).tolist()
        for j in suspect:
            reason = embedding_problem(np.asarray(embeddings[j], dtype=np.float64), self.d)
            if reason is not None:
                raise BatchError(j, reason, part="embeddings")
        return rows.reshape(len(embeddings), self.d)

    # -- queries ------------------------------------------------------------

    def query_semantic_vector(self, qvec: np.ndarray, r: int = DEFAULT_TOP_R) -> QueryResult:
        """Top-r records by cosine similarity to qvec, rounded to
        SCORE_DECIMALS, from the m raws' embedding scores and the best raws'
        postings (see _top): O(m·d + m log m + r)."""
        if r < 1:
            raise ValueError("r must be >= 1")
        held = self._set
        if not len(held.t):
            return _NO_HITS
        scores = (held.embeddings @ np.asarray(qvec, dtype=np.float64)).round(SCORE_DECIMALS)
        index, raw = _top(-scores, held.raw_postings, r)
        return QueryResult(index, scores[raw])

    def query_semantic(self, query: str, embedder: Embedder, r: int = DEFAULT_TOP_R) -> QueryResult:
        """Top-r records by cosine similarity between the embedded query and
        stored caption embeddings."""
        return self.query_semantic_vector(embedder(query), r=r)

    def query_temporal(
        self,
        t_center: Optional[int] = None,
        day_window: Optional[tuple[int, int]] = None,
        r: int = DEFAULT_TOP_R,
        per: str = "record",
    ) -> QueryResult:
        """Point form: top-r by |t - t_center|, ties toward smaller t, each
        scored by its exact distance. Window form: records with day
        t // ticks_per_day in [d_start, d_end], most recent first, truncated
        to r; with per="run", one hit per maximal run of records inside the
        window (see _RecordSet.run_starts), the run's newest. Either costs one
        binary search of the sorted t column plus a stable sort of at most 2r
        timesteps (point), a slice of r (window) or a binary search of the
        run ends and a slice of r (window per run): O(log n + r), for any
        integer centre or days."""
        if r < 1:
            raise ValueError("r must be >= 1")
        if (t_center is None) == (day_window is None):
            raise ValueError("provide exactly one of t_center and day_window")
        if per not in ("record", "run") or per == "run" and day_window is None:
            raise ValueError(f"per must be 'record', or 'run' in the window form, got {per!r}")
        held = self._set
        ts = held.t
        if not len(ts):
            return _NO_HITS
        last = int(ts[-1])
        if t_center is not None:
            # Timesteps increase strictly: clamped into [0, last], a centre
            # orders them as before and fits int64, and its r nearest lie within
            # r places of its insertion point. Distances are exact Python ints.
            center = int(t_center)
            clamped = min(max(center, 0), last)
            lo = max(0, int(ts.searchsorted(clamped)) - r)
            near = ts[lo : lo + 2 * r]
            order = np.abs(near - clamped).argsort(kind="stable")[:r]
            return QueryResult(lo + order, np.array([float(abs(t - center)) for t in near[order].tolist()]))
        d_start, d_end = day_window  # type: ignore[misc]
        if d_start > d_end:
            raise ValueError(f"empty day window [{d_start}, {d_end}]")
        # The slice of t in [d_start, d_end + 1) * tpd, days clamped into
        # [0, last day + 1]; a bound past the last t counts every record.
        tpd = self.ticks_per_day
        bounds = [min(max(day, 0), last // tpd + 1) * tpd for day in (d_start, d_end + 1)]
        lo, hi = (ts.searchsorted([min(b, last) for b in bounds]) + [b > last for b in bounds]).tolist()
        if per == "record" or hi == lo:
            order = np.arange(hi - 1, max(lo, hi - r) - 1, -1)
        else:
            # The window's newest record ends its run inside the window; the
            # other runs end at the run ends in [lo, hi - 1).
            ends = held.run_ends
            a, b = ends.searchsorted([lo, hi - 1]).tolist()
            order = np.concatenate(([hi - 1], ends[max(a, b - r + 1) : b][::-1]))
        return QueryResult(order, ts[order].astype(np.float64))

    def query_spatial(self, center: tuple[float, float], radius: float, r: int = DEFAULT_TOP_R) -> QueryResult:
        """Records whose pose lies within radius of center, nearest first,
        ties toward the lower index, truncated to r, from the P poses'
        distances and the nearest poses' postings, poses that share a position
        tying (see _top): O(P log P + r). A non-finite center or radius is an
        error, not an empty result; a finite one, however far, measures every
        distance that fits a float."""
        if r < 1:
            raise ValueError("r must be >= 1")
        if not all(map(math.isfinite, (*center, radius))):
            raise ValueError("center and radius must be finite")
        if radius <= 0:
            raise ValueError("radius must be positive")
        held = self._set
        if not len(held.t):
            return _NO_HITS
        x, y, _ = held.pose_fields
        # sqrt(dx*dx + dy*dy) is np.linalg.norm's arithmetic. It squares the
        # offsets, and rounding scales them up, so a far but finite center
        # overflows to inf; those entries, and only those, are recomputed with
        # np.hypot, which does not square, and kept unrounded where rounding
        # would overflow again.
        with np.errstate(over="ignore"):
            dx = x - float(center[0])
            dy = y - float(center[1])
            dist = np.sqrt(dx * dx + dy * dy).round(SCORE_DECIMALS)
            far = np.isinf(dist)
            if far.any():
                exact = np.hypot(dx[far], dy[far])
                rounded = exact.round(SCORE_DECIMALS)
                dist[far] = np.where(np.isinf(rounded), exact, rounded)
        index, pose = _top(dist, held.pose_postings, r, np.flatnonzero(dist <= radius))
        return QueryResult(index, dist[pose])

    def fetch_raw(self, record_index: int) -> SymbolicObservation:
        """Return the stored raw observation for one record, unchanged."""
        held = self._at(record_index)
        return held.raws[held.raw[record_index]]


def _noise_codes(size: np.ndarray, lists: np.ndarray, t: np.ndarray, noise: NoiseModel,
                 noise_seed: int) -> np.ndarray:
    """The noise codes (core.noise_codes) of each record's entity slots, an
    (n, slots) array, -1 where a slot holds no entity. Record i has entity
    list lists[i], whose slots' pool sizes are size[lists[i]] (0: no entity),
    and timestep t[i]; slot j has the draws of core.noise_draws(noise_seed,
    j, t)."""
    slots = size.shape[1]
    draws = np.array([noise_draws(noise_seed, j, t) for j in range(slots)]).reshape(slots, len(t), 4)
    size = size[lists].T
    return np.where(size > 0, noise_codes(draws, size, noise), -1).T


@functools.lru_cache(maxsize=64)
def _hash_weights(c: int) -> np.ndarray:
    """c random odd uint64 weights, the row hash of _first_seen."""
    return np.random.PCG64(c).random_raw(c) | np.uint64(1)


def _first_seen(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an (n, c) 64-bit integer array, numbered in order
    of first appearance: each row's number, and each number's first row.

    Rows are told apart by a hash, a random weighting of their words with
    each word's high half folded into its low one (float bits differ high);
    if any row differs from the first row of its hash, by an exact sort."""
    words = key.view(np.uint64)
    _, first, inverse = np.unique((words ^ (words >> np.uint64(32))) @ _hash_weights(key.shape[1]),
                                  return_index=True, return_inverse=True)
    if not np.array_equal(key[first[inverse]], key):
        rows = np.ascontiguousarray(key).view(np.dtype((np.void, key.itemsize * key.shape[1])))
        _, first, inverse = np.unique(rows.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    return number[inverse], first[order]


def _numbered(values: Sequence) -> tuple[list[int], list]:
    """Each value's number, equal values numbered alike in order of first
    appearance, and the distinct values. A value object met before is
    numbered by its identity, so a list that repeats a few objects hashes
    each of them once; values holds them alive, so no identity is reused."""
    by_id: dict[int, int] = {}
    by_value: dict[Any, int] = {}
    numbers = []
    for value in values:
        number = by_id.get(id(value))
        if number is None:
            number = by_id[id(value)] = by_value.setdefault(value, len(by_value))
        numbers.append(number)
    return numbers, list(by_value)


def build(
    stream: Iterable[Tick],
    embedder: Embedder | EmbedderConfig,
    mode: str = "oracle",
    *,
    noise: NoiseModel = DEFAULT_NOISE,
    noise_seed: int = 0,
    ticks_per_day: int = 200,
) -> LongTermMemory:
    """Construct long-term memory from an observation stream.

    Construction is task-agnostic: it sees only the stream. Captions are
    composed from the raw entity lists under the requested mode, embedded
    once per distinct caption in one batch (Embedder.embed_captions), and
    stored alongside the raw observation.

    The stream is taken as runs (ObservationStream.of): ticks of one day
    seen from one pose object with one observation object. An oracle
    caption depends only on the entity list. A realistic one also depends
    on the record's noise: the draws of core.noise_draws at its timestep,
    one slot per entity, coded by core.noise_codes for all records at once.
    Each distinct (entity list, slot, code) phrase is rendered once; each
    distinct (entity list, codes) joins its phrases into its caption and
    hands them to the embedder as they are. The record columns are filled
    with no per-record Python work.

    Both tables are keyed by value and numbered in order of first use: a
    pose's floats by their bits, and a raw, one per distinct (entity list,
    caption) (so codes that give one caption share it), holding its
    caption's embedding (the rule _derived_embeddings states for a memory
    file), so the memory holds m raws and m embeddings. All records go into
    the memory as one columnar batch.
    """
    if isinstance(embedder, EmbedderConfig):
        embedder = Embedder(embedder)
    memory = LongTermMemory(
        d=embedder.d,
        ticks_per_day=ticks_per_day,
        embedder_id=embedder.embedder_id,
        mode=mode,
    )
    stream = ObservationStream.of(stream)
    runs = list(stream.runs())
    n = len(stream)
    lengths = np.array([run[2] for run in runs], dtype=np.int64)
    run_first = np.cumsum(lengths) - lengths

    def per_run(values, dtype) -> np.ndarray:
        return np.repeat(np.array(values, dtype=dtype), lengths)

    t = per_run([run[0] for run in runs], np.int64) + np.arange(n, dtype=np.int64) - np.repeat(run_first, lengths)
    # Each record's entity list, numbered by value in order of first run.
    list_ids, entity_lists = _numbered([run[4].visible_entities for run in runs])
    lists = per_run(list_ids, np.int64)
    slots = max(map(len, entity_lists), default=0)
    # A variant is an entity list and, in realistic mode, the noise codes of
    # its slots, numbered in order of first record.
    if mode == "realistic":
        size = np.zeros((len(entity_lists), slots), dtype=np.int64)  # label pool sizes; 0: no entity
        for a, entities in enumerate(entity_lists):
            size[a, : len(entities)] = [len(mislabel_pool(ent, noise)) for ent in entities]
        codes = _noise_codes(size, lists, t, noise, noise_seed)
        variant, first = _first_seen(np.column_stack([lists, codes]))
        vlist, vcodes = lists[first], codes[first]
    else:  # every entity kept: code 0 where a slot holds one, -1 past its list's end
        sizes = np.array([len(entities) for entities in entity_lists], dtype=np.int64)[:, None]
        variant, vlist, vcodes = lists, np.arange(len(entity_lists)), np.where(np.arange(slots) < sizes, 0, -1)
    # Each variant's phrase ids, -1 where a slot has no phrase: each distinct
    # (entity list, slot, code) is rendered once.
    live = vcodes >= 0
    span = len(noise.label_pool) + 2  # codes lie in [0, span)
    keys, phrase_of = np.unique(((vlist[:, None] * slots + np.arange(slots)) * span + vcodes)[live],
                                return_inverse=True)
    texts = [entity_phrase(entity_lists[key // span // slots][key // span % slots], key % span, noise)
             for key in keys.tolist()]
    phrase = np.full(vcodes.shape, -1)
    phrase[live] = phrase_of
    # Each variant's raw, (entity list, caption), numbered in order of first
    # use, with its phrases.
    raws: dict[tuple[int, str], tuple[int, tuple[str, ...]]] = {}
    raw_of = []
    for a, ids in zip(vlist.tolist(), phrase.tolist()):
        phrases = tuple([texts[p] for p in ids if p >= 0]) or (EMPTY_CAPTION,)
        raw_of.append(raws.setdefault((a, "; ".join(phrases)), (len(raws), phrases))[0])
    raw = np.array(raw_of, dtype=np.int64)[variant]
    # Each run's pose, numbered by value in order of first use, floats by their bits: a zero keys by its repr.
    number: dict[tuple, int] = {}
    pose_ids, poses = [], []
    for pose in (run[3] for run in runs):
        (x, y), yaw = pose.position, pose.yaw
        j = number.setdefault((x or repr(x), y or repr(y), yaw or repr(yaw), pose.room_id), len(number))
        if j == len(poses):
            poses.append(pose)
        pose_ids.append(j)
    batch = Batch(
        t=t,
        day=per_run([run[1] for run in runs], np.int64),
        pose=per_run(pose_ids, np.int64),
        raw=raw,
        poses=poses,
        embeddings=embedder.embed_captions([phrases for _, phrases in raws.values()]),
        raws=SymbolicObservation.sharing(entity_lists, raws),
    )
    memory.extend(batch)
    return memory


# -- persistence -------------------------------------------------------------

_HEADER_KEYS = ("format_version", "d", "ticks_per_day", "embedder_id", "mode")
# The column lines of a memory file v8, in file order: each column's JSON
# value type (float admits an integer) and the count of its values.
_COLUMNS = {
    "t0": (int, "runs"), "length": (int, "runs"), "day": (int, "runs"), "pose": (int, "runs"),
    "raw": (int, "runs"), "pose_x": (float, "poses"), "pose_y": (float, "poses"), "pose_yaw": (float, "poses"),
    "pose_room": (str, "poses"), "raw_list": (int, "raws"), "raw_caption": (str, "raws"),
}
# The JSON integers an int column (int64) and a float column (float64) hold.
_INT_RANGE = {int: ("int64", -(2**63), 2**63 - 1),
              float: ("float64", -int(sys.float_info.max), int(sys.float_info.max))}


def _derives_embeddings(embedder_id: str, d: int) -> bool:
    """Whether a memory's embeddings are a function of its raw captions,
    being the reference embedder's: the one rule of a file's layout."""
    return d >= MIN_DIM and embedder_id == EmbedderConfig(d=d).embedder_id


def _derived_embeddings(raws: Sequence[SymbolicObservation], d: int) -> np.ndarray:
    """Each raw's embedding, an (m, d) array, as build makes it for a memory
    of the reference embedder: the captions, split into the phrases they
    were joined from, embedded by one embed_captions call."""
    return Embedder(EmbedderConfig(d=d)).embed_captions([raw.caption.split("; ") for raw in raws])


def _check_derived(snap: Batch, d: int) -> None:
    """Raise ValueError naming the first raw whose embedding is not, bit for
    bit, the one _derived_embeddings gives its caption."""
    derived = _derived_embeddings(snap.raws, d)
    bad = (derived.view(np.int64) != snap.embeddings.view(np.int64)).any(axis=1)
    if bad.any():
        raise ValueError(f"raw {int(bad.argmax())}: its embedding is not the one derived from its caption, "
                         "and a memory file of the reference embedder stores captions, not embeddings")


def persist(memory: LongTermMemory, path: str, extra_header: Optional[dict] = None) -> None:
    """Write a memory file v8 (see the module docstring); runs are found by
    comparing neighbouring records column by column. extra_header fields
    (e.g. a producing-config hash) join the header without displacing its
    keys.

    A memory whose embeddings are derived is written only when they are
    the derived ones (see _check_derived), so that load gives it back;
    otherwise ValueError names the first raw that differs. A pose whose room
    is not a string, which load would refuse, raises ValueError naming the
    pose. A refused memory writes no file.
    """
    snap = memory._set
    n = len(snap.t)
    derived = _derives_embeddings(memory.embedder_id, memory.d)
    if derived:
        _check_derived(snap, memory.d)
    starts = snap.run_starts
    list_ids, entity_lists = _numbered([raw.visible_entities for raw in snap.raws])
    header = {
        **(extra_header or {}),
        "format_version": FORMAT_VERSION,
        "d": memory.d,
        "ticks_per_day": memory.ticks_per_day,
        "embedder_id": memory.embedder_id,
        "mode": memory.mode,
        "records": n,
        "runs": len(starts),
        "poses": len(snap.poses),
        "raws": len(snap.raws),
    }
    x, y, rooms = (column.tolist() for column in snap.pose_fields)
    if not all(isinstance(room, str) for room in rooms):
        j = _first_bad(rooms, lambda room: not isinstance(room, str))
        raise ValueError(f"pose {j}: room must be a string, got {rooms[j]!r}")
    values = {name: getattr(snap, name)[starts].tolist() for name in RECORD_FIELDS}
    values["t0"] = values.pop("t")
    values["length"] = np.diff(starts, append=n).tolist()
    values.update(pose_x=x, pose_y=y, pose_yaw=[pose.yaw for pose in snap.poses], pose_room=rooms)
    values["raw_list"] = list_ids
    values["raw_caption"] = [raw.caption for raw in snap.raws]
    lines = [{name: values[name]} for name in _COLUMNS]
    if not derived:
        table = np.ascontiguousarray(snap.embeddings, dtype="<f8")
        lines.append({"embeddings": base64.b64encode(table.tobytes()).decode("ascii")})
    lists = ([e.to_dict() for e in entities] for entities in entity_lists)
    artifacts.write(path, header, lines, tables={"entity_lists": lists})


def _first_bad(values: list, bad: Callable[[Any], bool]) -> int:
    return next(j for j, value in enumerate(values) if bad(value))


def _column(line: Any, name: str, kind: type, size: int, item: str) -> list:
    """The values of a column line {name: values}: a list of size values, one
    per item, all of the column's JSON type, integers within the column's
    int64 or float64 range. A failure names the column and its first bad
    item."""
    if type(line) is not dict or list(line) != [name]:
        raise IntegrityError(f"expected the {name!r} column line")
    values = line[name]
    if type(values) is not list or len(values) != size:
        got = len(values) if type(values) is list else type(values).__name__
        raise IntegrityError(f"column {name!r}: expected {size} values, one per {item}, got {got}")
    types, seen = set(JSON_TYPES[kind][0]), set(map(type, values))
    if not seen <= types:
        j = _first_bad(values, lambda value: type(value) not in types)
        raise IntegrityError(f"column {name!r} {item} {j}: expected a JSON {kind.__name__}, got {values[j]!r}")
    if int in seen:
        dtype, low, high = _INT_RANGE[kind]
        ints = values if kind is int else [value for value in values if type(value) is int]
        if min(ints) < low or max(ints) > high:
            j = _first_bad(values, lambda value: type(value) is int and not low <= value <= high)
            raise IntegrityError(f"column {name!r} {item} {j}: {values[j]} is out of the {dtype} range")
    return values


def _ids(columns: dict, name: str, item: str, what: str, size: int) -> list:
    """The ids of an int column, each in [0, size), or IntegrityError."""
    ids = columns[name]
    if ids and (min(ids) < 0 or max(ids) >= size):
        j = _first_bad(ids, lambda i: not 0 <= i < size)
        raise IntegrityError(f"column {name!r} {item} {j}: {what} id {ids[j]} out of range [0, {size})")
    return ids


def _embeddings(line: Any, m: int, d: int) -> np.ndarray:
    """The (m, d) embeddings of a file's last line, little-endian float64
    bytes in base64."""
    if type(line) is not dict or list(line) != ["embeddings"] or type(line["embeddings"]) is not str:
        raise IntegrityError("expected the 'embeddings' line, a base64 string")
    try:
        data = base64.b64decode(line["embeddings"], validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise IntegrityError(f"column 'embeddings': bad base64: {exc}") from exc
    if len(data) != m * d * 8:
        raise IntegrityError(f"column 'embeddings': {len(data)} bytes, expected {m * d * 8}, 8 per float of "
                             f"{m} rows of {d}")
    return np.frombuffer(data, dtype="<f8").reshape(m, d)  # extend copies it into the table


def _entity_list(line: Any) -> tuple[VisibleEntity, ...]:
    if type(line) is not list:
        raise ValueError(f"expected a list of entities, got {line!r}")
    return tuple(VisibleEntity.from_dict(entity) for entity in line)


def load(path: str) -> LongTermMemory:
    """Load a memory file v8 (see the module docstring), verifying the
    checksum, the header (its integers JSON integers, the counts at least 0,
    its strings JSON strings, mode one of core.MODES), each column (see
    _column), the run lengths, every list, pose and raw id, every raw's
    embedding and every record. Derived embeddings come from one
    embed_captions call over the raw captions (_derived_embeddings). A
    failure raises IntegrityError naming the header field, the embedding's
    raw or the column and its run, pose or raw."""
    header, lines, _ = artifacts.verify(path, require=_HEADER_KEYS)
    version = header["format_version"]
    # JSON integers only: true == 1 and 6.0 == 6 in Python.
    if type(version) is not int or version != FORMAT_VERSION:
        raise IntegrityError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}; rebuild the "
                             "memory from its stream with `objsearch build-memory`")
    try:
        for key, kind in (("d", int), ("ticks_per_day", int), ("embedder_id", str), ("mode", str)):
            json_field(header, key, kind)
        for key in ("records", "runs", "poses", "raws"):
            if key not in header:
                raise ValueError(f"missing {key!r}")
            if json_field(header, key, int) < 0:
                raise ValueError(f"{key} must be >= 0, got {header[key]}")
        memory = LongTermMemory(d=header["d"], ticks_per_day=header["ticks_per_day"],
                                embedder_id=header["embedder_id"], mode=header["mode"])
    except (TypeError, ValueError) as exc:
        raise IntegrityError(f"malformed header: {exc}") from exc
    entity_lists, lines = artifacts.sections(header, lines, tables={"entity_lists": _entity_list}, name="column")
    derived = _derives_embeddings(memory.embedder_id, memory.d)
    if len(lines) != len(_COLUMNS) + (not derived):
        raise IntegrityError(f"expected {len(_COLUMNS) + (not derived)} column lines, found {len(lines)}")
    columns = {name: _column(line, name, kind, header[count], count[:-1])
               for line, (name, (kind, count)) in zip(lines, _COLUMNS.items())}
    # Runs of at least one record, summing to records before any is expanded.
    lengths, total = columns["length"], header["records"]
    if lengths and min(lengths) < 1:
        j = _first_bad(lengths, lambda length: length < 1)
        raise IntegrityError(f"column 'length' run {j}: run length must be >= 1, got {lengths[j]}")
    if sum(lengths) != total:
        raise IntegrityError(f"record total mismatch: header says {total}, runs hold {sum(lengths)}")
    poses = list(map(Pose, zip(columns["pose_x"], columns["pose_y"]), columns["pose_yaw"], columns["pose_room"]))
    ids = _ids(columns, "raw_list", "raw", "list", len(entity_lists))
    try:
        raws = SymbolicObservation.sharing(entity_lists, zip(ids, columns["raw_caption"]))
    except ValueError as exc:
        raise IntegrityError(str(exc)) from exc
    _ids(columns, "pose", "run", "pose", len(poses))
    _ids(columns, "raw", "run", "raw", len(raws))
    if not derived:
        embeddings = _embeddings(lines[-1], len(raws), memory.d)
    else:
        try:
            embeddings = _derived_embeddings(raws, memory.d)
        except EmbeddingError as exc:  # a caption without tokens
            j = _first_bad(columns["raw_caption"], lambda caption: not normalize_text(caption))
            raise IntegrityError(f"column 'raw_caption' raw {j}: {exc}") from exc
    # The runs as one Batch, by np.repeat with no per-record Python; extend
    # checks every record (so overlapping or unordered runs are refused), and
    # its error names the run.
    lengths = np.array(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths  # each run's first record
    rest = (np.repeat(np.array(columns[name], dtype=np.int64), lengths) for name in RECORD_FIELDS[1:])
    try:
        memory.extend(Batch(np.repeat(np.array(columns["t0"], dtype=np.int64) - starts, lengths) + np.arange(total),
                            *rest, poses=poses, embeddings=embeddings, raws=raws))
    except BatchError as exc:
        if exc.part != "record":
            raise IntegrityError(f"{exc.part} {exc.position}: {exc.reason}") from exc
        run = int(starts.searchsorted(exc.position, side="right")) - 1
        raise IntegrityError(f"run {run}: {exc.reason}") from exc
    return memory


__all__ = [
    "Batch",
    "BatchError",
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
