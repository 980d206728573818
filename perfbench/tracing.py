"""In-memory span tracer that wraps objsearch's public functions from outside.

The tracer replaces each wrapped function at every ``objsearch`` module
attribute that refers to it (and each wrapped method on its class), so calls
made inside the package are traced as well as calls made by the benchmark.
``uninstall`` puts the originals back. The program's code is never edited.

A span is ``(name, start_ns, end_ns, parent, episode)``: ``parent`` is the
index of the enclosing span (-1 at the root) and ``episode`` the number of
the enclosing ``bench.run_task_episode`` call (-1 outside episodes). Spans stay
in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

import numpy as np

from objsearch import agent, bench, core, embed, homesim, memstore

N_SIZES = (600, 7800)
QUERY_KINDS = ("semantic", "window", "point", "spatial", "fetch_raw")
TOOLS = (
    "semantic_query", "temporal_query", "spatial_query", "fetch_raw",
    "navigate", "detect", "open", "pick",
)
METHODS = ("random", "sg_s", "tr_s", "star")
POLICY_CLASSES = {
    "RandomSearchPolicy": "random",
    "SgPlusSPolicy": "sg_s",
    "TrPlusSPolicy": "tr_s",
    "StarScriptedPolicy": "star",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.embed_texts: set[str] = set()
        self._stack: list[int] = []
        self._episode = -1
        self._episodes = 0
        self._restore: list[tuple[Any, str, Any]] = []

    # -- span recording -----------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        label: Optional[Callable[..., str]] = None,
        after: Optional[Callable[..., None]] = None,
        episode: bool = False,
    ) -> Callable:
        """Return fn wrapped in a span. ``label(*args, **kwargs)`` extends the
        span name; ``after(result, *args, **kwargs)`` records counts once the
        span has ended, so its own cost is not charged to the span."""
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name if label is None else f"{name}.{label(*args, **kwargs)}"
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = tracer._episode
            if episode:
                tracer._episode = tracer._episodes
                tracer._episodes += 1
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (full, start, end, parent, tracer._episode)
                tracer._episode = outer
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-side code. wrap() repeats these steps
        inline because it runs on hot paths, where a generator would cost."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._episode)

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, original: Any, replacement: Any, only: tuple[str, ...] = ()) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("objsearch") or mod is None:
                continue
            if only and mod_name not in only:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _replace_method(self, cls: type, attr: str, replacement: Any) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        for fname in ("generate_world", "patrol", "export_scene_graph", "fast_forward"):
            after = self._after_patrol if fname == "patrol" else None
            fn = getattr(homesim, fname)
            self._replace_everywhere(fn, self.wrap(f"homesim.{fname}", fn, after=after))

        # The caption is rendered once by patrol and once by build; count both
        # call sites and nothing else.
        counter = self._count("core.render_caption.calls", core.render_caption)
        self._replace_everywhere(
            core.render_caption, counter, only=("objsearch.homesim.patrol", "objsearch.memstore")
        )

        self._replace_method(
            embed.Embedder, "__call__",
            self.wrap("embed", embed.Embedder.__call__, after=self._after_embed),
        )

        self._replace_everywhere(
            memstore.build, self.wrap("memstore.build", memstore.build, after=self._after_build)
        )
        self._replace_everywhere(
            memstore.persist, self.wrap("memstore.persist", memstore.persist, after=self._after_persist)
        )
        self._replace_everywhere(memstore.load, self.wrap("memstore.load", memstore.load))
        ltm = memstore.LongTermMemory
        for meth, kind in (("query_semantic", lambda *a, **k: "semantic"),
                           ("query_temporal", _temporal_kind),
                           ("query_spatial", lambda *a, **k: "spatial"),
                           ("fetch_raw", lambda *a, **k: "fetch_raw")):
            original = ltm.__dict__[meth]
            self._replace_method(
                ltm, meth,
                self.wrap("memstore.query", original,
                          label=lambda self_, *a, _k=kind, **k: f"{_k(*a, **k)}.n{len(self_)}"),
            )

        executor = agent.ActionExecutor
        self._replace_method(
            executor, "execute",
            self.wrap("agent.execute", executor.__dict__["execute"],
                      label=lambda self_, action: action.tool, after=self._after_execute),
        )
        for cls_name, method in POLICY_CLASSES.items():
            cls = getattr(agent, cls_name)
            self._replace_method(
                cls, "__call__", self.wrap(f"agent.decide.{method}", cls.__dict__["__call__"])
            )
        self._replace_everywhere(
            agent.run_episode, self.wrap("agent.run_episode", agent.run_episode, after=self._after_episode)
        )

        self._replace_everywhere(bench.prepare_task, self.wrap("bench.prepare_task", bench.prepare_task))
        self._replace_everywhere(
            bench.run_task_episode,
            self.wrap("bench.run_task_episode", bench.run_task_episode, episode=True),
        )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- counters recorded after a span ------------------------------------

    def _count(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _after_patrol(self, stream, *args, **kwargs) -> None:
        self.counts["homesim.patrol.ticks"] += len(stream)

    def _after_embed(self, vec, embedder, text) -> None:
        self.embed_texts.add(text)

    def _after_build(self, memory, *args, **kwargs) -> None:
        self.counts["memstore.build.records"] += len(memory)

    def _after_persist(self, _none, memory, path, *args, **kwargs) -> None:
        if len(memory):
            self.values["memstore.persist.bytes_per_record"].append(os.path.getsize(path) / len(memory))

    def _after_execute(self, outcome, executor, action) -> None:
        self.values["agent.execute.payload_bytes"].append(
            len(core.canonical_dumps(outcome.payload).encode("utf-8"))
        )

    def _after_episode(self, result, instruction, executor, policy, registry, *args, **kwargs) -> None:
        method = POLICY_CLASSES.get(type(policy).__name__)
        if method is None:
            return
        self.values[f"agent.steps_per_episode.{method}"].append(result.steps_used)
        if method in ("tr_s", "star"):
            text = instruction if isinstance(instruction, str) else instruction.redacted().text
            request = agent.encode_request(text, result.trace.remaining_budget, registry.schema(), result.trace)
            self.values["agent.wire.request_bytes"].append(len(request.encode("utf-8")))

    # -- analysis -----------------------------------------------------------

    def durations_ms(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for s in self.spans:
            if s is not None:
                out[s[0]].append((s[2] - s[1]) / 1e6)
        return out

    def self_times_ms(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover.
        Children of one span never overlap (one serial thread), so the
        covered time is the sum of their durations."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            if s is not None:
                out[s[0]] += (s[2] - s[1] - child[i]) / 1e6
        return dict(out)

    def child_cover(self, name: str, children: tuple[str, ...]) -> float:
        """Share of the named spans' time covered by direct children with the
        given names."""
        spans = self.spans
        total = 0
        covered = 0
        index = {i for i, s in enumerate(spans) if s is not None and s[0] == name}
        for i in index:
            total += spans[i][2] - spans[i][1]
        for s in spans:
            if s is not None and s[3] in index and s[0] in children:
                covered += s[2] - s[1]
        return covered / total if total else 0.0

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "episode"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def _temporal_kind(*args, **kwargs) -> str:
    return "point" if kwargs.get("t_center", args[0] if args else None) is not None else "window"


def pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    """Every per-layer metric as name -> (value, unit, samples). A metric whose
    layer did no work on this workload reads 0 with 0 samples."""
    d = tracer.durations_ms()
    c = tracer.counts
    v = tracer.values
    m: dict[str, tuple[float, str, int]] = {}

    def calls_ms(name: str, with_calls: bool = True) -> None:
        xs = d.get(name, [])
        if with_calls:
            m[f"{name}.calls"] = (float(len(xs)), "count", len(xs))
        m[f"{name}.ms"] = (float(sum(xs)), "ms", len(xs))

    def p50_p90(key: str, xs: list[float], unit: str = "ms") -> None:
        m[f"{key}_p50"] = (pct(xs, 50), unit, len(xs))
        m[f"{key}_p90"] = (pct(xs, 90), unit, len(xs))

    for fname in ("generate_world", "patrol", "export_scene_graph"):
        calls_ms(f"homesim.{fname}")
    n_patrol = len(d.get("homesim.patrol", []))
    m["homesim.patrol.ticks"] = (c["homesim.patrol.ticks"], "count", n_patrol)
    calls_ms("homesim.fast_forward", with_calls=False)

    n_caption = int(c["core.render_caption.calls"])
    m["core.render_caption.calls"] = (float(n_caption), "count", n_caption)

    embeds = d.get("embed", [])
    m["embed.calls"] = (float(len(embeds)), "count", len(embeds))
    m["embed.ms"] = (float(sum(embeds)), "ms", len(embeds))
    m["embed.distinct_ratio"] = (
        len(tracer.embed_texts) / len(embeds) if embeds else 0.0, "fraction", len(embeds)
    )

    builds = d.get("memstore.build", [])
    m["memstore.build.ms"] = (float(sum(builds)), "ms", len(builds))
    m["memstore.build.records"] = (c["memstore.build.records"], "count", len(builds))
    for kind in QUERY_KINDS:
        for n in N_SIZES:
            p50_p90(f"memstore.query.{kind}.n{n}.ms", d.get(f"memstore.query.{kind}.n{n}", []))
    bpr = v.get("memstore.persist.bytes_per_record", [])
    m["memstore.persist.bytes_per_record"] = (pct(bpr, 50), "B", len(bpr))

    for method in METHODS:
        p50_p90(f"agent.decide.{method}.ms", d.get(f"agent.decide.{method}", []))
    for method in METHODS:
        steps = v.get(f"agent.steps_per_episode.{method}", [])
        m[f"agent.steps_per_episode.{method}"] = (
            float(np.mean(steps)) if steps else 0.0, "count", len(steps)
        )
    for tool in TOOLS:
        xs = d.get(f"agent.execute.{tool}", [])
        m[f"agent.execute.{tool}.ms_p50"] = (pct(xs, 50), "ms", len(xs))
    payload = v.get("agent.execute.payload_bytes", [])
    m["agent.execute.payload_bytes_p50"] = (pct(payload, 50), "B", len(payload))
    m["agent.execute.payload_bytes_max"] = (float(max(payload, default=0)), "B", len(payload))
    wire = v.get("agent.wire.request_bytes", [])
    m["agent.wire.request_bytes_max"] = (float(max(wire, default=0)), "B", len(wire))

    prep = d.get("bench.prepare_task", [])
    m["bench.prepare_task.calls"] = (float(len(prep)), "count", len(prep))
    p50_p90("bench.prepare_task.ms", prep)
    p50_p90("bench.run_task_episode.ms", d.get("bench.run_task_episode", []))
    return m
