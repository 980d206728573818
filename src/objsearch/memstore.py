"""Append-only long-term memory with semantic, temporal, and spatial indices.

Retrieval is an exact full scan over flat numpy arrays. Desk-scale memories
stay well under 1e5 records, where exact scan is both fast and trivially
testable against a linear oracle; an approximate index could later hide
behind the same interface.

Concurrency: one writer may append or extend while readers query. A batch
is validated whole and published at once, after its rows are written, and
readers snapshot the record count first and then slice each index array. So
every query sees a consistent prefix of the insertion order that ends at a
batch boundary: a whole batch or none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import (
    MemoryRecord,
    NoiseModel,
    DEFAULT_NOISE,
    Pose,
    SymbolicObservation,
    Timestep,
    render_caption,
    stable_seed,
)
from . import artifacts
from .artifacts import IntegrityError
from .embed import Embedder, EmbedderConfig

FORMAT_VERSION = 1
DEFAULT_SNAPSHOT_EVERY = 25
DEFAULT_TOP_R = 5

# Similarity scores are quantized before ranking so that orderings do not
# depend on last-ulp differences between BLAS implementations.
SCORE_DECIMALS = 9


class BatchError(ValueError):
    """A record batch failed validation; nothing of it was stored."""

    def __init__(self, position: int, reason: str):
        super().__init__(f"batch position {position}: {reason}")
        self.position = position
        self.reason = reason


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


class LongTermMemory:
    """Append-only record sequence plus three query indices."""

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
        self._records: list[MemoryRecord] = []
        self._n = 0
        cap = 64
        self._emb = np.zeros((cap, d), dtype=np.float64)
        self._ts = np.zeros(cap, dtype=np.int64)
        self._pos = np.zeros((cap, 2), dtype=np.float64)

    def __len__(self) -> int:
        return self._n

    @property
    def records(self) -> Sequence[MemoryRecord]:
        return self._records[: self._n]

    def record(self, i: int) -> MemoryRecord:
        """One record by index, without copying the record list."""
        if not (0 <= i < self._n):
            raise IndexError(f"record index {i} out of range [0, {self._n})")
        return self._records[i]

    @property
    def semantic_index(self) -> np.ndarray:
        return self._emb[: self._n]

    @property
    def temporal_index(self) -> np.ndarray:
        return self._ts[: self._n]

    @property
    def spatial_index(self) -> np.ndarray:
        return self._pos[: self._n]

    def _reserve(self, need: int) -> None:
        cap = self._emb.shape[0]
        if need <= cap:
            return
        cap = max(need, 2 * cap)
        for name in ("_emb", "_ts", "_pos"):
            old = getattr(self, name)
            grown = np.zeros((cap,) + old.shape[1:], dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def append(self, record: MemoryRecord) -> int:
        """Append one record; see extend."""
        return self.extend((record,))

    def extend(self, records: Iterable[MemoryRecord]) -> int:
        """Append a batch of records and return the index of its first one.

        The whole batch is checked before anything is stored: every embedding
        must have shape (d,), and timestamps must increase strictly, within
        the batch and after the last stored record. A bad batch raises
        BatchError naming its position in the batch and stores nothing.
        """
        batch = list(records)
        n = self._n
        if not batch:
            return n
        shape = (self.d,)
        ts: list[int] = []
        prev = int(self._ts[n - 1]) if n else None
        for j, record in enumerate(batch):
            if record.embedding.shape != shape:
                raise BatchError(j, f"embedding dimension {record.embedding.shape} != {shape}")
            t = record.t.value
            if prev is not None and t <= prev:
                raise BatchError(j, f"non-monotonic timestamp {t} after {prev}")
            ts.append(t)
            prev = t
        m = n + len(batch)
        self._reserve(m)
        np.stack([record.embedding for record in batch], out=self._emb[n:m])
        self._ts[n:m] = ts
        self._pos[n:m] = [record.pose.position for record in batch]
        self._records.extend(batch)
        # Publish the batch last so concurrent readers never see a torn
        # index triple or part of a batch: rows below _n are immutable once
        # _n is advanced.
        self._n = m
        return n

    def _snapshot(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        n = self._n
        return n, self._emb[:n], self._ts[:n], self._pos[:n]

    # -- queries ------------------------------------------------------------

    def _result(self, order: np.ndarray, scores: np.ndarray) -> QueryResult:
        return QueryResult(hits=tuple((int(i), float(scores[k])) for k, i in enumerate(order)))

    def query_semantic_vector(self, qvec: np.ndarray, r: int = DEFAULT_TOP_R) -> QueryResult:
        if r < 1:
            raise ValueError("r must be >= 1")
        n, emb, _, _ = self._snapshot()
        if n == 0:
            return QueryResult(hits=())
        scores = np.round(emb @ np.asarray(qvec, dtype=np.float64), SCORE_DECIMALS)
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
        n, _, ts, _ = self._snapshot()
        if n == 0:
            return QueryResult(hits=())
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
        A non-finite center or radius is an error, not an empty result."""
        if r < 1:
            raise ValueError("r must be >= 1")
        if not np.all(np.isfinite([*center, radius])):
            raise ValueError("center and radius must be finite")
        if radius <= 0:
            raise ValueError("radius must be positive")
        n, _, _, pos = self._snapshot()
        if n == 0:
            return QueryResult(hits=())
        c = np.asarray(center, dtype=np.float64)
        dist = np.round(np.linalg.norm(pos - c, axis=1), SCORE_DECIMALS)
        idx = np.nonzero(dist <= radius)[0]
        order = idx[np.argsort(dist[idx], kind="stable")][:r]
        return self._result(order, dist[order])

    def fetch_raw(self, record_index: int) -> SymbolicObservation:
        """Return the stored raw observation for one record, unchanged."""
        return self.record(record_index).raw


def build(
    stream: Iterable[tuple[Timestep, Pose, SymbolicObservation]],
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
    seed for each record derives from noise_seed and its timestep), embedded,
    and stored alongside the raw observation. Every snapshot_every-th record
    is flagged as a keyframe. An oracle caption depends only on the entity
    list, so a record whose entity tuple is the previous record's own object
    (as patrol hands out for a repeated view) reuses that record's caption.

    Records share raw observations per view: consecutive non-keyframe
    records whose stream observation is the same object and whose caption is
    the same share one stored raw observation. A keyframe or a new view gets
    its own. All records go into the memory as one batch.
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
    records: list[MemoryRecord] = []
    last_entities: Optional[tuple] = None
    last_obs: Optional[SymbolicObservation] = None
    raw: Optional[SymbolicObservation] = None
    caption = ""
    for i, (t, pose, obs) in enumerate(stream):
        if mode != "oracle" or obs.visible_entities is not last_entities:
            caption = render_caption(
                obs.visible_entities,
                mode=mode,
                seed=stable_seed("caption", noise_seed, t.value),
                noise=noise,
            )
            last_entities = obs.visible_entities
        keyframe = i % snapshot_every == 0
        if keyframe or obs is not last_obs or raw.keyframe or raw.caption != caption:
            raw = replace(obs, caption=caption, keyframe=keyframe)
            last_obs = obs
        records.append(MemoryRecord(t=t, pose=pose, embedding=embedder(caption), raw=raw))
    memory.extend(records)
    return memory


# -- persistence -------------------------------------------------------------


def persist(memory: LongTermMemory, path: str, extra_header: Optional[dict] = None) -> None:
    """Write a memory file in the checksummed artifact format.

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
    artifacts.write(path, header, (rec.to_dict() for rec in memory.records))


def load(path: str) -> LongTermMemory:
    """Load a memory file, verifying the checksum, the header and every record."""
    header, records = artifacts.read(path, MemoryRecord.from_dict, expect={"format_version": FORMAT_VERSION},
                                     require=("d", "ticks_per_day", "snapshot_every", "embedder_id", "mode"))
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
    try:
        memory.extend(records)
    except BatchError as exc:
        raise IntegrityError(f"record {exc.position}: {exc.reason}") from exc
    return memory


__all__ = [
    "BatchError",
    "DEFAULT_SNAPSHOT_EVERY",
    "DEFAULT_TOP_R",
    "IntegrityError",
    "LongTermMemory",
    "QueryResult",
    "build",
    "load",
    "persist",
]
