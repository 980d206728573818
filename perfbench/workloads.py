"""The benchmark's workloads: set-up, suite passes and memory rounds.

They call objsearch through module attributes (``bench.run_suite``,
``memstore.build`` ...) so that the tracer's wrappers see the calls. Times
are ``time.perf_counter`` readings scaled to the reference pace (see
pace.py); correctness checks run outside the timed regions.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from objsearch import agent, bench, core, embed, homesim, memstore
from pace import Pace

METHODS = ("random", "sg_s", "tr_s", "star")
BUDGET = 20
SEMANTIC_R, WINDOW_R, POINT_R, SPATIAL_R, SPATIAL_RADIUS = 25, 200, 5, 25, 2.5
CHUNK_PER_KIND = 20  # the first chunk is also compared with the reference scan
BUILDS_PER_ROUND = 3  # builds per round, each timed; the last one is persisted and queried
CHUNKS_PER_ROUND = 4  # query chunks after each build/persist/load round
# On the suites, memory rounds get this much time per second of run_suite while
# the pass lasts, so that the pass and the rounds after it end near --seconds.
ROUND_SHARE = 0.5
PACE_BLOCK_S = 0.05  # queries are paced in blocks of at least this much wall time

# Per scale: suite shape, memory_ops sizes, memory-round minimums.
SCALES = {
    "full": {
        "scenes": (1, 2, 3), "desk_per_family": 3, "full_per_family": 1, "full_tpd": 1300,
        "ops_tpd": 1300, "ops_days": 6, "small_tpd": 200, "small_days": 3,
        "min_rounds": 4, "small_chunks": 5,
    },
    "tiny": {
        "scenes": (1,), "desk_per_family": 1, "full_per_family": 1, "full_tpd": 200,
        "ops_tpd": 200, "ops_days": 3, "small_tpd": 200, "small_days": 3,
        "min_rounds": 2, "small_chunks": 1,
    },
}


@dataclass
class Samples:
    """Everything a run measures, and the outcome of its checks."""

    pace: Pace = field(default_factory=Pace)
    episodes: int = 0
    crashes: int = 0
    # Timed blocks as (count, wall seconds or ms, pace block id); see pace.py.
    suite: list[tuple[int, float, int]] = field(default_factory=list)  # episodes, run_suite seconds
    ingest: list[tuple[int, float, int]] = field(default_factory=list)  # records, build seconds
    persist_s: list[tuple[int, float, int]] = field(default_factory=list)
    load_s: list[tuple[int, float, int]] = field(default_factory=list)
    query_ms: list[tuple[int, float, int]] = field(default_factory=list)
    retrievals: int = 0
    retrieval_errors: int = 0
    digests: list[tuple[str, str]] = field(default_factory=list)
    log_bytes_per_episode: float = 0.0
    log_max_line_bytes: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


# -- suites ------------------------------------------------------------------


def suite_pass(slices: list, config, log_path: str, out: Samples, between, tracer=None) -> None:
    """run_suite over each slice of the suite in turn, each call timed and
    paced, with between(wall seconds the call took) after each; then the
    whole pass checked.

    The episode log of the pass is the slices' logs end to end, byte for byte
    what one run_suite over all tasks writes. The report digest covers the
    slices' canonical report.json texts in order: equal digests mean equal
    episodes, and the report of the whole suite is a function of those.
    """
    episodes: list[dict] = []
    reports = hashlib.sha256()
    log = bytearray()
    for tasks in slices:
        with tracer.span("bench.run_suite") if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            report = bench.run_suite(tasks, config, log_path=log_path)
            took = time.perf_counter() - start
        out.suite.append((len(report.episodes), *out.pace.block(start)))
        episodes += report.episodes
        reports.update(core.canonical_dumps(report.to_dict()).encode("utf-8") + b"\n")
        with open(log_path, "rb") as fh:
            log += fh.read()
        os.remove(log_path)
        between(took)
    expected = sum(len(t) for t in slices) * len(config.modes) * len(config.methods)
    crashes = sum(1 for e in episodes if e["termination"] == "crash")
    mismatches = sum(1 for e in episodes if e.get("adjudication_mismatch"))
    out.episodes += expected
    out.crashes += crashes + max(0, expected - len(episodes))
    out.check("suite.episode_count", len(episodes) == expected, f"{len(episodes)} of {expected}")
    out.check("suite.no_crash", crashes == 0, f"{crashes} crash episodes")
    out.check("suite.no_adjudication_mismatch", mismatches == 0, f"{mismatches} mismatches")
    out.digests.append((reports.hexdigest(), hashlib.sha256(log).hexdigest()))
    out.log_bytes_per_episode = len(log) / max(1, len(episodes))
    out.log_max_line_bytes = max((len(line) for line in log.splitlines()), default=0)


# -- memory rounds --------------------------------------------------------------


@dataclass
class MemoryInput:
    """A patrol stream and the world it came from, made during set-up."""

    world: object
    schedule: object
    stream: list
    days: int

    @property
    def ticks_per_day(self) -> int:
        return self.world.ticks_per_day


def patrolled(layout_seed: int, scene_id: int, ticks_per_day: int, days: int, schedule=None) -> MemoryInput:
    world, ambient = homesim.generate_world(layout_seed, scene_id, ticks_per_day=ticks_per_day)
    schedule = ambient if schedule is None else schedule
    return MemoryInput(world, schedule, homesim.patrol(world, schedule, days), days)


def query_mix(inp: MemoryInput, seed: int) -> Iterator[list[core.Action]]:
    """Endless seeded retrieval mix in chunks of CHUNK_PER_KIND actions of
    each kind, the kinds taking turns."""
    rng = random.Random(seed)
    labels = sorted({e.class_label for _, _, obs in inp.stream for e in obs.visible_entities})
    n = len(inp.stream)
    while True:
        chunk = []
        for _ in range(CHUNK_PER_KIND):
            day = rng.randrange(inp.days)
            _, pose, _ = inp.stream[rng.randrange(n)]
            chunk += [
                core.Action("semantic_query", {"query": rng.choice(labels), "r": SEMANTIC_R}),
                core.Action("temporal_query", {"day_start": day, "day_end": day, "r": WINDOW_R}),
                core.Action("temporal_query", {"timestep": rng.randrange(n), "r": POINT_R}),
                core.Action("spatial_query", {"x": pose.position[0], "y": pose.position[1],
                                              "radius": SPATIAL_RADIUS, "r": SPATIAL_R}),
                core.Action("fetch_raw", {"record_index": rng.randrange(n)}),
            ]
        yield chunk


def _reference_hits(memory, embedder, action: core.Action) -> list[int]:
    """Linear numpy scan over the records themselves, ties to the lower index."""
    recs = memory.records
    idx = np.arange(len(recs))
    args = action.args
    if action.tool == "semantic_query":
        emb = np.array([r.embedding for r in recs])
        scores = np.round(emb @ embedder(args["query"]), memstore.SCORE_DECIMALS)
        return idx[np.lexsort((idx, -scores))][: args["r"]].tolist()
    ts = np.array([r.t.value for r in recs])
    if action.tool == "temporal_query" and "timestep" in args:
        dist = np.abs(ts - args["timestep"])
        return idx[np.lexsort((idx, dist))][: args["r"]].tolist()
    if action.tool == "temporal_query":
        days = ts // memory.ticks_per_day
        sel = idx[(days >= args["day_start"]) & (days <= args["day_end"])]
        return sel[np.lexsort((sel, -ts[sel]))][: args["r"]].tolist()
    pos = np.array([r.pose.position for r in recs])
    dist = np.round(np.linalg.norm(pos - np.array([args["x"], args["y"]]), axis=1), memstore.SCORE_DECIMALS)
    sel = idx[dist <= args["radius"]]
    return sel[np.lexsort((sel, dist[sel]))][: args["r"]].tolist()


def _check_outcome(memory, embedder, action: core.Action, outcome: core.Outcome) -> bool:
    payload = outcome.payload
    if action.tool == "fetch_raw":
        raw = memory.records[action.args["record_index"]].raw
        record = payload.get("record", {})
        return record.get("caption") == raw.caption and record.get("entities") == [
            e.to_dict() for e in raw.visible_entities
        ]
    return [h["record_index"] for h in payload["hits"]] == _reference_hits(memory, embedder, action)


def run_chunk(executor, chunk: list, out: Samples) -> tuple[list, list[float]]:
    """Each action through ActionExecutor.execute; the outcomes and each
    call's wall time in ms."""
    outcomes, times = [], []
    for action in chunk:
        start = time.perf_counter()
        outcomes.append(executor.execute(action))
        times.append((time.perf_counter() - start) * 1e3)
    out.retrievals += len(chunk)
    out.retrieval_errors += sum(1 for o in outcomes if "error" in o.payload)
    return outcomes, times


def check_retrievals(memory, embedder, chunk: list, outcomes: list, out: Samples, label: str) -> None:
    wrong = sum(1 for a, o in zip(chunk, outcomes) if not _check_outcome(memory, embedder, a, o))
    out.check(f"{label}.retrieval_oracle", wrong == 0, f"{wrong} of {len(chunk)} differ from the linear scan")


class MemoryRounds:
    """Write rounds with reads in between, on one patrol stream.

    A round builds the memory (caption, embed, append) with a fresh embedder
    BUILDS_PER_ROUND times, persists the last one, loads it back, then runs
    CHUNKS_PER_ROUND chunks of the retrieval mix on it. Writes and reads take
    turns, so both are measured over the same stretch of time. The first
    round is also checked.
    """

    def __init__(self, inp: MemoryInput, mix, path: str, out: Samples, label: str):
        self.inp, self.mix, self.path, self.out, self.label = inp, mix, path, out, label
        self.rounds = 0
        self.seconds = 0.0  # wall time spent in rounds

    def run_until(self, deadline: float, min_rounds: int = 0) -> None:
        while self.rounds < min_rounds or time.perf_counter() < deadline:
            self.round()

    def run_while_below(self, seconds: float) -> None:
        """Rounds until they have had `seconds` of wall time in all."""
        while self.seconds < seconds:
            self.round()

    def round(self) -> None:
        began = time.perf_counter()
        inp, out, label = self.inp, self.out, self.label
        for _ in range(BUILDS_PER_ROUND):
            memory = None
            # Collect what earlier work left behind, the previous build too,
            # so that each build pays only for the collections its own
            # garbage triggers.
            gc.collect()
            embedder = embed.Embedder(embed.EmbedderConfig())
            start = time.perf_counter()
            memory = memstore.build(inp.stream, embedder, mode="oracle", ticks_per_day=inp.ticks_per_day)
            out.ingest.append((len(memory), *out.pace.block(start)))
        start = time.perf_counter()
        memstore.persist(memory, self.path)
        out.persist_s.append((1, *out.pace.block(start)))
        start = time.perf_counter()
        loaded = memstore.load(self.path)
        out.load_s.append((1, *out.pace.block(start)))
        if self.rounds == 0:
            same = (
                len(loaded) == len(memory) == len(inp.stream)
                and (loaded.d, loaded.ticks_per_day, loaded.mode, loaded.embedder_id)
                == (memory.d, memory.ticks_per_day, memory.mode, memory.embedder_id)
                and all(a == b for a, b in zip(loaded.records, memory.records))
            )
            out.check(f"{label}.load_equals_build", same, f"{len(loaded)} of {len(inp.stream)} records")
        # The retrievals run on the built memory; the loaded copy would only
        # make the collector's passes during them longer.
        del loaded
        executor = agent.ActionExecutor(memory, inp.world, inp.schedule, embedder)
        pending: list[float] = []
        for i in range(CHUNKS_PER_ROUND):
            chunk = next(self.mix)
            if not pending:
                start = time.perf_counter()
            outcomes, times = run_chunk(executor, chunk, out)
            pending += times
            if sum(pending) >= PACE_BLOCK_S * 1e3 or i == CHUNKS_PER_ROUND - 1:
                _, block = out.pace.block(start)
                out.query_ms += [(1, ms, block) for ms in pending]
                pending = []
            if self.rounds == 0 and i == 0:
                check_retrievals(memory, embedder, chunk, outcomes, out, label)
        self.rounds += 1
        os.remove(self.path)
        self.seconds += time.perf_counter() - began


def query_only(inp: MemoryInput, mix, chunks: int, out: Samples, label: str) -> None:
    """The retrieval mix on a memory built untimed; traced runs time it per
    query kind and memory size."""
    embedder = embed.Embedder(embed.EmbedderConfig())
    memory = memstore.build(inp.stream, embedder, mode="oracle", ticks_per_day=inp.ticks_per_day)
    executor = agent.ActionExecutor(memory, inp.world, inp.schedule, embedder)
    for i in range(chunks):
        chunk = next(mix)
        outcomes, _ = run_chunk(executor, chunk, out)
        if i == 0:
            check_retrievals(memory, embedder, chunk, outcomes, out, label)


# -- workloads -------------------------------------------------------------------


class Workload:
    """Set-up (timed as setup_s) and the timed work."""

    def __init__(self, name: str, seed: int, scale: dict, out_dir: Path):
        self.name, self.seed, self.scale = name, seed, scale
        self.path = str(out_dir / f"{name}-seed{seed}")

    def setup(self) -> None:
        s = self.scale
        if self.name == "memory_ops":
            self.main = patrolled(self.seed, 1, s["ops_tpd"], s["ops_days"])
            self.small = patrolled(self.seed, 1, s["small_tpd"], s["small_days"])
            return
        if self.name == "desk_suite":
            tasks = bench.generate_suite(scenes=s["scenes"], per_family=s["desk_per_family"], seed=self.seed)
            modes = ("oracle", "realistic")
        else:
            tasks = bench.generate_suite(scenes=s["scenes"], per_family=s["full_per_family"],
                                         seed=self.seed, ticks_per_day=s["full_tpd"])
            modes = ("oracle",)
        self.slices = [[task] for task in tasks]
        self.config = bench.SuiteConfig(methods=METHODS, modes=modes, budget=BUDGET,
                                        seed=self.seed, parallelism=1)
        first = tasks[0]
        self.main = patrolled(first.layout_seed, first.scene_id, first.ticks_per_day,
                              first.days, schedule=first.schedule)

    def run(self, out: Samples, seconds=None, tracer=None) -> None:
        """The timed work. On the suites, memory rounds take turns with the
        run_suite slices (one task each), so that rounds have had ROUND_SHARE
        of run_suite's wall time after each slice, and passes repeat until
        run_suite has had a quarter of `seconds`; memory_ops does memory rounds
        for all of `seconds`. Without seconds, every part does its minimum
        once, with memory rounds at the same share.
        """
        s = self.scale
        start = time.perf_counter()
        end = start + seconds if seconds is not None else 0.0
        rounds = MemoryRounds(self.main, query_mix(self.main, self.seed),
                              f"{self.path}-memory.jsonl", out, "memory")
        if self.name != "memory_ops":
            suite_s = 0.0

            def between(took: float) -> None:
                nonlocal suite_s
                suite_s += took
                rounds.run_while_below(ROUND_SHARE * suite_s)

            while True:
                suite_pass(self.slices, self.config, f"{self.path}-episodes.jsonl", out, between, tracer)
                if seconds is None or suite_s >= seconds / 4:
                    break
        rounds.run_until(end, s["min_rounds"])
        if self.name == "memory_ops":
            query_only(self.small, query_mix(self.small, self.seed), s["small_chunks"], out, "memory_n600")
