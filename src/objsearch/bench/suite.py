"""Suite runner: executes (task, mode, method) episodes, aggregates success
rates with Wilson intervals, and writes deterministic raw logs.

The unit of work, serial or parallel, is the task: a worker runs
prepare_task once, then every mode and method, each episode on its own copy
of the patrolled world. A memory-blind method (random, sg_s) reads no memory,
so its episode runs once per task and is logged under each mode. run-task,
the demos and the tests set tasks up through the same prepare_task. Results
are reduced in task order so the output is byte-identical regardless of
worker count.

Every episode, a crashed one too, ends in agent.run_episode, and its record
is built from the result. Only an episode that cannot start, such as an llm
one with no endpoint, is recorded here, as a crash of 0 steps.

Every log line is canonical_dumps of its event. A step line is composed
around agent.registry.outcome_json, which writes a retrieval outcome's hits
(a core.Hits, gathered once as columns by the executor) straight from their
columns, with no dict per hit. The bytes equal canonical_dumps of the step
record.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional

from ..agent import (
    ActionExecutor,
    ChatCompletionPolicy,
    LLMPolicyConfig,
    RandomSearchPolicy,
    SgPlusSPolicy,
    StarScriptedPolicy,
    TERMINATION_CRASH,
    TrPlusSPolicy,
    default_registry,
    outcome_json,
    run_episode,
)
from ..core import (
    ACTION_CATEGORIES,
    Action,
    DEFAULT_NOISE,
    MODES,
    NOISE_VERSION,
    NoiseModel,
    Outcome,
    canonical_dumps,
    config_hash,
    stable_seed,
)
from ..embed import DEFAULT_DIM, Embedder, EmbedderConfig
from ..homesim import WorldState, day_graphs, patrol, scene_world
from ..memstore import LongTermMemory, build
from .tasks import TaskSpec, adjudicate, default_prior_table

METHODS = ("random", "sg_s", "tr_s", "star", "llm")

# The methods that never read memory: run_task_episode hands them an empty
# store, so an episode of one is the same in every mode.
MEMORY_BLIND = ("random", "sg_s")

PHYSICAL_CATEGORIES = ("perception", "navigation", "manipulation")

_Z95 = 1.959963984540054


def wilson_interval(successes: int, n: int, z: float = _Z95) -> tuple[float, float]:
    """Closed-form Wilson score interval for a binomial proportion."""
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class SuiteConfig:
    methods: tuple[str, ...] = ("random", "sg_s", "tr_s", "star")
    modes: tuple[str, ...] = ("oracle",)
    budget: int = 20
    seed: int = 0
    noise: NoiseModel = DEFAULT_NOISE
    parallelism: int = 1
    llm: Optional[LLMPolicyConfig] = None

    def __post_init__(self) -> None:
        # Episodes are told apart by (task, mode, method), and prepare_task
        # keys memories by mode, so each may be named once; a suite with no
        # method or no mode would run no episode.
        for kind, names, valid in (("method", self.methods, METHODS), ("mode", self.modes, MODES)):
            if not names:
                raise ValueError(f"no {kind} given; valid: {valid}")
            for m in names:
                if m not in valid:
                    raise ValueError(f"unknown {kind} {m!r}; valid: {valid}")
            if len(set(names)) != len(names):
                raise ValueError(f"repeated {kind} in {names}")
        # No episode can run on a budget below 1, nor a suite on fewer workers.
        for name in ("budget", "parallelism"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        d = {
            "methods": list(self.methods),
            "modes": list(self.modes),
            "budget": self.budget,
            "seed": self.seed,
            "embed_dim": DEFAULT_DIM,
            "noise": {"p_drop": self.noise.p_drop, "p_mislabel": self.noise.p_mislabel},
            "parallelism": self.parallelism,
        }
        # Realistic memories also depend on the noise model's version and
        # label pool. Oracle-only configs carry neither, so their hash is stable.
        if "realistic" in self.modes:
            d["noise"].update(version=NOISE_VERSION, label_pool=list(self.noise.label_pool))
        # The model behind an llm policy changes results; keep it in the
        # lineage. Scripted configs carry no llm key, so their hash is stable.
        if self.llm is not None:
            d["llm"] = {"model": self.llm.model, "url": self.llm.url}
        return d

    def config_hash(self) -> str:
        # Parallelism changes execution layout, never results; keep it out of
        # the lineage hash.
        return config_hash({k: v for k, v in self.to_dict().items() if k != "parallelism"})


def make_policy(
    method: str,
    task: TaskSpec,
    config: SuiteConfig,
    scene_graphs: Optional[list] = None,
):
    """Method isolation: only sg_s sees scene graphs, only tr_s/star query
    long-term memory (enforced below by handing others an empty store)."""
    if method == "random":
        return RandomSearchPolicy(seed=stable_seed("rnd", config.seed, task.task_id))
    if method == "tr_s":
        return TrPlusSPolicy()
    if method == "sg_s":
        return SgPlusSPolicy(scene_graphs or [], seed=stable_seed("sg", config.seed, task.task_id))
    if method == "star":
        return StarScriptedPolicy(prior_table=default_prior_table())
    if method == "llm":
        if config.llm is None:
            raise ValueError("llm method requires an endpoint configuration")
        return ChatCompletionPolicy(config.llm)
    raise ValueError(f"unknown method {method!r}")


def prepare_task(
    task: TaskSpec, config: SuiteConfig
) -> tuple[dict[str, LongTermMemory], list, Embedder, WorldState]:
    """What a task's episodes share: a memory per mode of config.modes (a
    dict in that order), built from one patrol of the task's world; the
    per-day scene graphs, taken from copies of it at each day's last tick;
    one embedder, since its embeddings do not depend on what it has seen;
    and the world at task time."""
    world = scene_world(task.layout_seed, task.scene_id, task.ticks_per_day)
    graphs = day_graphs(world, task.schedule, task.days)
    stream = patrol(world, task.schedule, task.days)
    embedder = Embedder(EmbedderConfig())
    memories = {
        mode: build(
            stream,
            embedder,
            mode=mode,
            noise=config.noise,
            noise_seed=stable_seed("noise", config.seed, task.task_id),
            ticks_per_day=task.ticks_per_day,
        )
        for mode in config.modes
    }
    return memories, graphs, embedder, world


def run_task_episode(
    task: TaskSpec,
    method: str,
    config: SuiteConfig,
    memory: LongTermMemory,
    graphs: list,
    embedder: Embedder,
    world: WorldState,
    step_callback: Optional[Callable] = None,
):
    """One episode of method on a copy of the world at task time, over one
    of prepare_task's memories; the episode's mode is that memory's mode.
    MEMORY_BLIND methods get an empty store of the same shape instead, so
    run_suite runs each of their episodes once per task and logs it under
    every mode."""
    world = world.at(task.schedule, world.clock)
    registry = default_registry(world)
    episode_memory = memory
    if method in MEMORY_BLIND:
        episode_memory = LongTermMemory(
            d=memory.d, ticks_per_day=memory.ticks_per_day, embedder_id=memory.embedder_id, mode=memory.mode
        )
    executor = ActionExecutor(episode_memory, world, task.schedule, embedder)
    policy = make_policy(method, task, config, scene_graphs=graphs)
    return run_episode(
        task.instruction_full(),
        executor,
        policy,
        registry,
        budget=config.budget,
        target_entity=task.target_entity,
        step_callback=step_callback,
    )


def _episode_record(task: TaskSpec, method: str, mode: str, success: bool, steps_used: int,
                    termination: str, action_counts: Mapping[str, int], error: Optional[str]) -> dict:
    """The report's record of one episode, finished or crashed; a crash's
    record ends with its error."""
    record = {
        "task_id": task.task_id,
        "family": task.family,
        "type": task.type,
        "method": method,
        "mode": mode,
        "success": success,
        "steps_used": steps_used,
        "termination": termination,
        "action_counts": dict(action_counts),
        "optimal_counts": dict(task.optimal_counts),
    }
    if error is not None:
        record["error"] = error
    return record


def _step_line(k: int, action: Action, outcome: Outcome, rationale: str) -> str:
    """The log line of step k: canonical_dumps of {"event": "step", "k": k,
    "action": ..., "outcome": ...}, plus "rationale" when it is not empty,
    byte for byte. The outcome is written by outcome_json."""
    line = '{"action":%s,"event":"step","k":%s,"outcome":%s' % (
        canonical_dumps(action.to_dict()), canonical_dumps(k), outcome_json(outcome))
    if rationale:
        line += ',"rationale":' + canonical_dumps(rationale)
    return line + "}"


def _episode_end(record: dict) -> str:
    """The log line closing an episode, from its record."""
    return canonical_dumps(
        {
            "event": "episode_end",
            "task_id": record["task_id"],
            "method": record["method"],
            "mode": record["mode"],
            "success": record["success"],
            "steps_used": record["steps_used"],
            "termination": record["termination"],
            "action_counts": record["action_counts"],
        }
    )


def _run_task(task: TaskSpec, config: SuiteConfig) -> tuple[list[dict], list[str]]:
    """Worker: every (mode, method) episode of one task. Returns episode
    records and raw log lines in (mode, method) order. The loop's step
    callback writes each step line; the record comes from the episode's
    result, adjudicated, with its error when it crashed. A MEMORY_BLIND
    method runs in the first mode only; each later mode logs a copy of its
    record and step lines under its own mode."""
    memories, graphs, embedder, world = prepare_task(task, config)
    lineage = config.config_hash()
    records: list[dict] = []
    log_lines: list[str] = []
    # Memory-blind method -> the record and step lines of its one episode.
    blind: dict[str, tuple[dict, list[str]]] = {}
    for mode, memory in memories.items():
        for method in config.methods:
            header = {
                "event": "episode_start",
                "task_id": task.task_id,
                "method": method,
                "mode": mode,
                "config_hash": lineage,
                "instruction": task.instruction,
            }
            log_lines.append(canonical_dumps(header))
            if method in blind:
                first, step_lines = blind[method]
                record = {**first, "mode": mode, "action_counts": dict(first["action_counts"]),
                          "optimal_counts": dict(first["optimal_counts"])}
            else:
                step_lines = []
                try:
                    result = run_task_episode(task, method, config, memory, graphs, embedder, world,
                                              lambda *step: step_lines.append(_step_line(*step)))
                except Exception as exc:  # noqa: BLE001 - an episode that cannot start
                    record = _episode_record(task, method, mode, False, 0, TERMINATION_CRASH,
                                             dict.fromkeys(ACTION_CATEGORIES, 0), f"{type(exc).__name__}: {exc}")
                else:
                    record = _episode_record(task, method, mode, result.success, result.steps_used,
                                             result.termination, result.action_counts, result.error)
                    success = adjudicate(task, result)
                    if success != result.success:
                        record["adjudication_mismatch"] = True
                    record["success"] = success and result.success
                if method in MEMORY_BLIND:
                    blind[method] = record, step_lines
            records.append(record)
            log_lines.extend(step_lines)
            log_lines.append(_episode_end(record))
    return records, log_lines


@dataclass
class SuiteReport:
    config: dict
    config_hash: str
    episodes: list[dict]
    success_rates: dict[str, dict]
    action_stats: dict[str, dict]

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "config_hash": self.config_hash,
            "episodes": self.episodes,
            "success_rates": self.success_rates,
            "action_stats": self.action_stats,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SuiteReport":
        return cls(
            config=dict(d["config"]),
            config_hash=str(d["config_hash"]),
            episodes=list(d["episodes"]),
            success_rates=dict(d["success_rates"]),
            action_stats=dict(d["action_stats"]),
        )


def _aggregate(episodes: list[dict]) -> tuple[dict, dict]:
    rates: dict[str, dict] = {}
    groups: dict[tuple, list[dict]] = {}
    for ep in episodes:
        key = (ep["type"], ep["family"], ep["method"], ep["mode"])
        groups.setdefault(key, []).append(ep)
    for key in sorted(groups):
        eps = groups[key]
        n = len(eps)
        successes = sum(1 for e in eps if e["success"])
        lo, hi = wilson_interval(successes, n)
        rates["/".join(key)] = {
            "n": n,
            "successes": successes,
            "rate": successes / n,
            "wilson_lo": round(lo, 6),
            "wilson_hi": round(hi, 6),
        }
    stats: dict[str, dict] = {}
    method_groups: dict[tuple, list[dict]] = {}
    for ep in episodes:
        method_groups.setdefault((ep["type"], ep["method"], ep["mode"]), []).append(ep)
    for key in sorted(method_groups):
        eps = method_groups[key]
        succ = [e for e in eps if e["success"]]
        mean_counts = {}
        ratio = None
        if succ:
            for cat in ACTION_CATEGORIES:
                mean_counts[cat] = sum(e["action_counts"][cat] for e in succ) / len(succ)
            mean_physical = sum(
                sum(e["action_counts"][c] for c in PHYSICAL_CATEGORIES) for e in succ
            ) / len(succ)
            mean_optimal = sum(sum(e["optimal_counts"].values()) for e in succ) / len(succ)
            mean_counts["physical_total"] = mean_physical
            ratio = mean_physical / mean_optimal if mean_optimal else None
        total_steps = sum(e["steps_used"] for e in eps)
        spatial_steps = sum(
            sum(e["action_counts"][c] for c in PHYSICAL_CATEGORIES) for e in eps
        )
        stats["/".join(key)] = {
            "n": len(eps),
            "successes": len(succ),
            "mean_counts_successful": mean_counts,
            "ratio_to_optimal": ratio,
            "spatial_share": (spatial_steps / total_steps) if total_steps else None,
        }
    return rates, stats


def run_suite(
    tasks: Iterable[TaskSpec],
    config: SuiteConfig,
    log_path: Optional[str] = None,
) -> SuiteReport:
    """Run every (task, mode, method) episode and aggregate the results.

    Deterministic for scripted methods under fixed seeds: records and logs are
    reduced in task order whatever the parallelism.
    """
    # llm episodes stay in this process, with whatever transport it has.
    if config.parallelism > 1 and "llm" not in config.methods:
        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            results = list(pool.map(_run_task, tasks, itertools.repeat(config)))
    else:
        results = map(_run_task, tasks, itertools.repeat(config))
    episodes: list[dict] = []
    log_lines: list[str] = []
    for records, lines in results:
        episodes.extend(records)
        log_lines.extend(lines)
    rates, stats = _aggregate(episodes)
    report = SuiteReport(
        config=config.to_dict(),
        config_hash=config.config_hash(),
        episodes=episodes,
        success_rates=rates,
        action_stats=stats,
    )
    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            for line in log_lines:
                fh.write(line + "\n")
    return report


__all__ = [
    "METHODS",
    "MODES",
    "PHYSICAL_CATEGORIES",
    "SuiteConfig",
    "SuiteReport",
    "make_policy",
    "prepare_task",
    "run_suite",
    "run_task_episode",
    "wilson_interval",
]
