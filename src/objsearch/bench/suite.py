"""Suite runner: executes (task, mode, method) episodes, aggregates success
rates with Wilson intervals, and writes deterministic raw logs.

The unit of work, serial or parallel, is the task: a worker generates its
world once, takes day graphs from copies of it and patrols it to task time;
then per mode it builds a memory and runs every method, each episode on its
own copy of the patrolled world. Results are reduced in task order so the
output is byte-identical regardless of worker count.
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
    TrPlusSPolicy,
    classify_action,
    default_registry,
    run_episode,
)
from ..core import (
    ACTION_CATEGORIES,
    DEFAULT_NOISE,
    NoiseModel,
    ObservationStream,
    canonical_dumps,
    config_hash,
    stable_seed,
)
from ..embed import Embedder, EmbedderConfig
from ..homesim import WorldState, export_scene_graph, generate_world, patrol
from ..memstore import LongTermMemory, build
from .tasks import TaskSpec, adjudicate, default_prior_table

METHODS = ("random", "sg_s", "tr_s", "star", "llm")
MODES = ("oracle", "realistic")

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
    embed_dim: int = 256
    noise: NoiseModel = DEFAULT_NOISE
    parallelism: int = 1
    llm: Optional[LLMPolicyConfig] = None

    def __post_init__(self) -> None:
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}; valid: {METHODS}")
        for m in self.modes:
            if m not in MODES:
                raise ValueError(f"unknown mode {m!r}; valid: {MODES}")

    def to_dict(self) -> dict:
        d = {
            "methods": list(self.methods),
            "modes": list(self.modes),
            "budget": self.budget,
            "seed": self.seed,
            "embed_dim": self.embed_dim,
            "noise": {"p_drop": self.noise.p_drop, "p_mislabel": self.noise.p_mislabel},
            "parallelism": self.parallelism,
        }
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


def _observe(task: TaskSpec) -> tuple[ObservationStream, list, WorldState]:
    """The mode-independent part of a task: its per-day scene graphs, the
    patrol stream, and the world at task time."""
    tpd = task.ticks_per_day
    world, _ = generate_world(task.layout_seed, task.scene_id, ticks_per_day=tpd)
    graphs = [export_scene_graph(world.at(task.schedule, (d + 1) * tpd - 1)) for d in range(task.days)]
    stream = patrol(world, task.schedule, task.days)
    return stream, graphs, world


def _build_memory(task: TaskSpec, stream: ObservationStream, mode: str, config: SuiteConfig):
    """One mode's memory over the task's stream, with a fresh embedder."""
    embedder = Embedder(EmbedderConfig(d=config.embed_dim))
    memory = build(
        stream,
        embedder,
        mode=mode,
        noise=config.noise,
        noise_seed=stable_seed("noise", config.seed, task.task_id),
        ticks_per_day=task.ticks_per_day,
    )
    return memory, embedder


def prepare_task(task: TaskSpec, mode: str, config: SuiteConfig):
    """The mode's memory, the day graphs, the embedder and the world at task time."""
    stream, graphs, world = _observe(task)
    memory, embedder = _build_memory(task, stream, mode, config)
    return memory, graphs, embedder, world


def run_task_episode(
    task: TaskSpec,
    method: str,
    mode: str,
    config: SuiteConfig,
    memory: LongTermMemory,
    graphs: list,
    embedder: Embedder,
    world: WorldState,
    step_callback: Optional[Callable] = None,
):
    """One episode on a copy of the world at task time."""
    world = world.at(task.schedule, world.clock)
    registry = default_registry(world)
    episode_memory = memory
    if method in ("random", "sg_s"):
        episode_memory = LongTermMemory(
            d=memory.d, ticks_per_day=memory.ticks_per_day, embedder_id=memory.embedder_id, mode=mode
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


def _episode_record(task: TaskSpec, method: str, mode: str, result) -> dict:
    return {
        "task_id": task.task_id,
        "family": task.family,
        "type": task.type,
        "method": method,
        "mode": mode,
        "success": result.success,
        "steps_used": result.steps_used,
        "termination": result.termination,
        "action_counts": dict(result.action_counts),
        "optimal_counts": dict(task.optimal_counts),
    }


def _run_task(task: TaskSpec, config: SuiteConfig) -> tuple[list[dict], list[str]]:
    """Worker: every (mode, method) episode of one task. Returns episode
    records and raw log lines in (mode, method) order."""
    stream, graphs, world = _observe(task)
    # Action categories depend only on the tool; the world adds argument enums.
    registry = default_registry()
    records: list[dict] = []
    log_lines: list[str] = []
    for mode in config.modes:
        memory, embedder = _build_memory(task, stream, mode, config)
        for method in config.methods:
            header = {
                "event": "episode_start",
                "task_id": task.task_id,
                "method": method,
                "mode": mode,
                "config_hash": config.config_hash(),
                "instruction": task.instruction,
            }
            log_lines.append(canonical_dumps(header))
            # The steps logged so far, kept for a crash record.
            counts = {c: 0 for c in ACTION_CATEGORIES}
            steps = 0

            def log_step(k: int, action, outcome, rationale: str = "") -> None:
                nonlocal steps
                record = {"event": "step", "k": k, "action": action.to_dict(), "outcome": outcome.to_dict()}
                if rationale:
                    record["rationale"] = rationale
                log_lines.append(canonical_dumps(record))
                counts[classify_action(action, registry)] += 1
                steps = k

            try:
                result = run_task_episode(task, method, mode, config, memory, graphs, embedder, world, log_step)
                record = _episode_record(task, method, mode, result)
                success = adjudicate(task, result)
                if success != result.success:
                    record["adjudication_mismatch"] = True
                record["success"] = success and result.success
            except Exception as exc:  # noqa: BLE001 - crash containment per episode
                record = {
                    "task_id": task.task_id,
                    "family": task.family,
                    "type": task.type,
                    "method": method,
                    "mode": mode,
                    "success": False,
                    "steps_used": steps,
                    "termination": "crash",
                    "action_counts": counts,
                    "optimal_counts": dict(task.optimal_counts),
                    "error": f"{type(exc).__name__}: {exc}",
                }
            records.append(record)
            log_lines.append(
                canonical_dumps(
                    {
                        "event": "episode_end",
                        "task_id": task.task_id,
                        "method": method,
                        "mode": mode,
                        "success": record["success"],
                        "steps_used": record["steps_used"],
                        "termination": record["termination"],
                        "action_counts": record["action_counts"],
                    }
                )
            )
        # Free this mode's memory before the next one is built.
        del memory, embedder
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
