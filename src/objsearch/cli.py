"""Command-line pipeline: gen-world -> patrol -> build-memory -> run.

Every artifact file embeds the hash of the configuration that produced it,
and `report` refuses to render logs whose lineage does not match unless
forced. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterator

import click

from .artifacts import IntegrityError
from .bench import (
    FIXTURE_KINDS,
    SceneListError,
    SuiteConfig,
    SuiteReport,
    TaskSpec,
    build_fixture_suite,
    generate_suite,
    read_tasks,
    render_report,
    run_suite,
    write_tasks,
)
from .bench.suite import _run_task
from .core import NOISE_VERSION, NoiseModel, canonical_dumps, canonical_loads, config_hash
from .embed import MIN_DIM, EmbedderConfig
from .homesim import (
    MAX_PATROL_DAYS,
    MIN_PATROL_DAYS,
    SCENE_IDS,
    Schedule,
    WorldState,
    day_graphs,
    generate_world,
    patrol,
    read_stream,
    write_graphs,
    write_stream,
)
from .agent import TERMINATION_ABORT, TERMINATION_CRASH, LLMPolicyConfig
from .memstore import BatchError, build as build_memory_from_stream, persist


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(payload) + "\n")


def _read_json(path: str, decode: Callable[[Any], Any], lines: bool = False) -> Iterator[Any]:
    """Yield the decoded JSON document in path, or with lines set the one on
    each line. Malformed JSON, and JSON that decode rejects for its shape, is
    a ClickException naming the file (and line)."""
    with open(path, "r", encoding="utf-8") as fh:
        for number, text in enumerate(fh if lines else [fh.read()], start=1):
            where = f"{path}, line {number}" if lines else path
            try:
                doc = canonical_loads(text)
            except ValueError as exc:
                raise click.ClickException(f"{where}: malformed JSON: {exc}") from exc
            try:
                value = decode(doc)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise click.ClickException(
                    f"{where}: unexpected content: {type(exc).__name__}: {exc}"
                ) from exc
            yield value


def _json_object(doc: Any) -> dict:
    if not isinstance(doc, dict):
        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def _read_world_and_schedule(world_path: str, schedule_path: str) -> tuple[WorldState, Any, Schedule, Any]:
    """The world and schedule files of gen-world, with their config hashes."""
    [(world, world_hash)] = _read_json(
        world_path, lambda d: (WorldState.from_dict(d["world"]), d["config_hash"])
    )
    [(schedule, schedule_hash)] = _read_json(
        schedule_path, lambda d: (Schedule.from_dict(d["schedule"]), d["config_hash"])
    )
    try:
        schedule.check(world.ticks_per_day)
    except ValueError as exc:
        raise click.ClickException(f"{schedule_path}: {exc}") from exc
    return world, world_hash, schedule, schedule_hash


@click.group()
@click.version_option()
def main() -> None:
    """Spatiotemporal object-search pipeline."""


@main.command("gen-world")
@click.option("--scene", type=click.IntRange(1, 3), required=True, help="Scene template id.")
@click.option("--seed", type=int, default=0, show_default=True, help="Layout seed.")
@click.option("--ticks-per-day", type=click.IntRange(1), default=200, show_default=True)
@click.option("--out-world", type=click.Path(dir_okay=False), default="world.json", show_default=True)
@click.option("--out-schedule", type=click.Path(dir_okay=False), default="schedule.json", show_default=True)
def cmd_gen_world(scene: int, seed: int, ticks_per_day: int, out_world: str, out_schedule: str) -> None:
    """Generate a scene and its ambient schedule."""
    config = {"cmd": "gen-world", "scene": scene, "seed": seed, "ticks_per_day": ticks_per_day}
    chash = config_hash(config)
    world, schedule = generate_world(seed, scene, ticks_per_day=ticks_per_day)
    _write_json(out_world, {"config": config, "config_hash": chash, "world": world.to_dict()})
    _write_json(out_schedule, {"config": config, "config_hash": chash, "schedule": schedule.to_dict()})
    click.echo(
        f"rooms={len(world.rooms)} landmarks={len(world.landmarks)} objects={len(world.objects)}"
    )


@main.command("patrol")
@click.option("--world", "world_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--schedule", "schedule_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--days", type=click.IntRange(MIN_PATROL_DAYS, MAX_PATROL_DAYS), default=3, show_default=True)
@click.option("--ticks-per-day", type=int, default=None, help="Defaults to the world's configuration.")
@click.option("--out", type=click.Path(dir_okay=False), default="stream.jsonl", show_default=True)
def cmd_patrol(world_path: str, schedule_path: str, days: int, ticks_per_day: int | None, out: str) -> None:
    """Run the daily patrol and write the observation stream."""
    world, world_hash, schedule, schedule_hash = _read_world_and_schedule(world_path, schedule_path)
    if ticks_per_day is not None and ticks_per_day != world.ticks_per_day:
        raise click.ClickException(
            f"ticks-per-day {ticks_per_day} does not match the world's {world.ticks_per_day}"
        )
    config = {
        "cmd": "patrol",
        "days": days,
        "ticks_per_day": world.ticks_per_day,
        "world_hash": world_hash,
        "schedule_hash": schedule_hash,
    }
    try:
        stream = patrol(world, schedule, days)
    except ValueError as exc:
        raise click.ClickException(f"{world_path}: {exc}") from exc
    write_stream(out, stream, meta={"config": config, "config_hash": config_hash(config)})
    click.echo(f"observations={len(stream)} days={days} ticks_per_day={world.ticks_per_day}")


@main.command("export-graphs")
@click.option("--world", "world_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--schedule", "schedule_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--days", type=click.IntRange(MIN_PATROL_DAYS, MAX_PATROL_DAYS), default=3, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default="graphs.jsonl", show_default=True)
def cmd_export_graphs(world_path: str, schedule_path: str, days: int, out: str) -> None:
    """Export the world file's per-day scene-graph snapshots (nodes and edges)."""
    world, world_hash, schedule, schedule_hash = _read_world_and_schedule(world_path, schedule_path)
    try:
        graphs = day_graphs(world, schedule, days)
    except ValueError as exc:
        raise click.ClickException(f"{world_path}: {exc}") from exc
    config = {
        "cmd": "export-graphs", "days": days,
        "world_hash": world_hash, "schedule_hash": schedule_hash,
    }
    write_graphs(out, graphs, meta={"config": config, "config_hash": config_hash(config)})
    click.echo(f"graphs={days} out={out}")


@main.command("build-memory")
@click.option("--stream", "stream_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--mode", type=click.Choice(["oracle", "realistic"]), default="oracle", show_default=True)
@click.option("--d", "dim", type=click.IntRange(MIN_DIM), default=256, show_default=True,
              help="Embedding dimension.")
@click.option("--noise-seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True)
@click.option("--p-drop", type=click.FloatRange(0, 1), default=0.1, show_default=True)
@click.option("--p-mislabel", type=click.FloatRange(0, 1), default=0.1, show_default=True)
@click.option("--embed-url", type=str, default=None, envvar="OBJSEARCH_EMBED_URL",
              help="External embedding endpoint; the hashed reference embedder is used otherwise.")
@click.option("--embed-model", type=str, default="default", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default="memory.jsonl", show_default=True)
def cmd_build_memory(
    stream_path: str, mode: str, dim: int,
    noise_seed: int, p_drop: float, p_mislabel: float,
    embed_url: str | None, embed_model: str, out: str,
) -> None:
    """Build the long-term memory from an observation stream."""
    try:
        header, stream = read_stream(stream_path)
    except ValueError as exc:
        raise click.ClickException(f"stream integrity error: {exc}") from exc
    config = header.get("config")
    tpd = config.get("ticks_per_day") if isinstance(config, dict) else None
    # A JSON integer only: true == 1 in Python.
    if type(tpd) is not int or tpd < 1:
        raise click.ClickException(
            f"stream {stream_path} has no config.ticks_per_day (a positive integer) in its header"
        )
    if embed_url:
        embed_config = EmbedderConfig(kind="external", d=dim, endpoint=embed_url, model=embed_model)
    else:
        embed_config = EmbedderConfig(d=dim)
    try:
        memory = build_memory_from_stream(
            stream,
            embed_config,
            mode=mode,
            noise=NoiseModel(p_drop=p_drop, p_mislabel=p_mislabel),
            noise_seed=noise_seed,
            ticks_per_day=tpd,
        )
    except BatchError as exc:  # such as a record whose day is not t // tpd
        raise click.ClickException(f"stream {stream_path}: {exc}") from exc
    config = {
        "cmd": "build-memory", "mode": mode, "d": dim, "noise_seed": noise_seed,
        "p_drop": p_drop, "p_mislabel": p_mislabel, "stream_hash": header.get("config_hash"),
    }
    if mode == "realistic":
        config["noise_version"] = NOISE_VERSION
    persist(memory, out, extra_header={"config_hash": config_hash(config)})
    click.echo(f"records={len(memory)} mode={mode} d={dim}")


def _scene_ids(ctx: click.Context, param: click.Parameter, value: str) -> tuple[int, ...]:
    """The comma-separated scene ids of --scenes, known ones (generate_suite
    refuses a repeated one)."""
    try:
        ids = tuple(int(s) for s in value.split(","))
    except ValueError:
        ids = ()
    if not ids or not set(ids) <= set(SCENE_IDS):
        raise click.BadParameter(f"expected scene ids among {SCENE_IDS}, got {value!r}")
    return ids


@main.command("gen-tasks")
@click.option("--per-family", type=click.IntRange(1), default=3, show_default=True)
@click.option("--scenes", type=str, default="1,2,3", show_default=True, callback=_scene_ids)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--days", type=click.IntRange(MIN_PATROL_DAYS, MAX_PATROL_DAYS), default=3, show_default=True)
@click.option("--ticks-per-day", type=int, default=200, show_default=True)
@click.option("--fixture", type=click.Choice(list(FIXTURE_KINDS)), default=None,
              help="Emit a named fixture suite instead of the generated one.")
@click.option("--n", "fixture_n", type=click.IntRange(1), default=20, show_default=True,
              help="Fixture task count.")
@click.option("--out", type=click.Path(dir_okay=False), default="tasks.jsonl", show_default=True)
def cmd_gen_tasks(
    per_family: int, scenes: tuple[int, ...], seed: int, days: int, ticks_per_day: int,
    fixture: str | None, fixture_n: int, out: str,
) -> None:
    """Generate the benchmark task suite (or a fixture suite)."""
    if fixture is not None:
        tasks = build_fixture_suite(fixture, n=fixture_n, seed=seed)
        config = {"cmd": "gen-tasks", "fixture": fixture, "n": fixture_n, "seed": seed}
    else:
        try:
            tasks = generate_suite(scenes, per_family=per_family, seed=seed,
                                   days=days, ticks_per_day=ticks_per_day)
        except SceneListError as exc:
            raise click.BadParameter(str(exc), param_hint="'--scenes'") from exc
        except ValueError as exc:  # a scene its days cannot patrol; other options are typed
            raise click.BadParameter(str(exc), param_hint="'--ticks-per-day'") from exc
        config = {
            "cmd": "gen-tasks", "per_family": per_family, "scenes": list(scenes),
            "seed": seed, "days": days, "ticks_per_day": ticks_per_day,
        }
    write_tasks(out, tasks, meta={"config": config, "config_hash": config_hash(config)})
    by_type: dict[str, int] = {}
    for task in tasks:
        by_type[task.type] = by_type.get(task.type, 0) + 1
    click.echo(
        "tasks=%d visible=%d interactive=%d commonsense=%d"
        % (len(tasks), by_type.get("visible", 0), by_type.get("interactive", 0),
           by_type.get("commonsense", 0))
    )


def _load_tasks(path: str) -> tuple[dict, list[TaskSpec], str]:
    try:
        return read_tasks(path)
    except IntegrityError as exc:
        raise click.ClickException(f"task file {path}: {exc}") from exc


def _suite_config(methods: str, modes: str, budget: int, seed: int, parallelism: int,
                  llm_url: str | None, llm_model: str) -> SuiteConfig:
    """The suite configuration; an unknown method or mode is a usage error
    naming the valid ones."""
    llm = None
    url = llm_url or os.environ.get("OBJSEARCH_LLM_URL")
    if url:
        llm = LLMPolicyConfig(url=url, model=llm_model)
    try:
        return SuiteConfig(
            methods=tuple(methods.split(",")),
            modes=tuple(modes.split(",")),
            budget=budget,
            seed=seed,
            parallelism=parallelism,
            llm=llm,
        )
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


@main.command("run-task")
@click.option("--tasks", "tasks_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--index", type=int, default=0, show_default=True, help="Task index within the file.")
@click.option("--method", type=str, default="star", show_default=True)
@click.option("--mode", type=click.Choice(["oracle", "realistic"]), default="oracle", show_default=True)
@click.option("--budget", type=click.IntRange(1), default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--llm-url", type=str, default=None, envvar="OBJSEARCH_LLM_URL")
@click.option("--llm-model", type=str, default="default", show_default=True)
def cmd_run_task(tasks_path: str, index: int, method: str, mode: str, budget: int,
                 seed: int, llm_url: str | None, llm_model: str) -> None:
    """Run a single task episode, as run-suite does, and print its adjudicated
    outcome; a crashed episode exits 1 with its error."""
    _, tasks, _ = _load_tasks(tasks_path)
    if not (0 <= index < len(tasks)):
        raise click.ClickException(f"task index {index} out of range [0, {len(tasks)})")
    task = tasks[index]
    config = _suite_config(method, mode, budget, seed, 1, llm_url, llm_model)
    [record], _ = _run_task(task, config)
    click.echo(
        f"task={task.task_id} success={'true' if record['success'] else 'false'} "
        f"steps={record['steps_used']} termination={record['termination']}"
    )
    if "error" in record:
        raise click.ClickException(record["error"])


@main.command("run-suite")
@click.option("--tasks", "tasks_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--methods", type=str, default="random,sg_s,tr_s,star", show_default=True)
@click.option("--modes", type=str, default="oracle", show_default=True)
@click.option("--budget", type=click.IntRange(1), default=20, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--parallelism", type=int, default=1, show_default=True)
@click.option("--llm-url", type=str, default=None, envvar="OBJSEARCH_LLM_URL")
@click.option("--llm-model", type=str, default="default", show_default=True)
@click.option("--out-report", type=click.Path(dir_okay=False), default="report.json", show_default=True)
@click.option("--out-logs", type=click.Path(dir_okay=False), default="episodes.jsonl", show_default=True)
def cmd_run_suite(tasks_path: str, methods: str, modes: str, budget: int, seed: int,
                  parallelism: int, llm_url: str | None, llm_model: str,
                  out_report: str, out_logs: str) -> None:
    """Run the full suite and write the report and raw episode logs."""
    _, tasks, tasks_hash = _load_tasks(tasks_path)
    config = _suite_config(methods, modes, budget, seed, parallelism, llm_url, llm_model)
    report = run_suite(tasks, config, log_path=out_logs)
    payload = report.to_dict()
    payload["tasks_hash"] = tasks_hash
    _write_json(out_report, payload)
    total = len(report.episodes)
    wins = sum(1 for e in report.episodes if e["success"])
    crashes = sum(1 for e in report.episodes if e["termination"] == TERMINATION_CRASH)
    aborts = sum(1 for e in report.episodes if e["termination"] == TERMINATION_ABORT)
    click.echo(f"episodes={total} successes={wins} crashes={crashes} aborts={aborts} "
               f"report={out_report} logs={out_logs}")


@main.command("report")
@click.option("--report", "report_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--logs", "logs_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["table", "json"]), default="table", show_default=True)
@click.option("--force", is_flag=True, help="Render even when lineage hashes do not match.")
def cmd_report(report_path: str, logs_path: str | None, fmt: str, force: bool) -> None:
    """Render a suite report; verifies log lineage when logs are given."""
    [report] = _read_json(report_path, SuiteReport.from_dict)
    if logs_path is not None:
        expected = report.config_hash
        for rec in _read_json(logs_path, _json_object, lines=True):
            if rec.get("event") == "episode_start" and rec.get("config_hash") != expected:
                if not force:
                    raise click.ClickException(
                        "lineage mismatch: logs were produced by config "
                        f"{rec.get('config_hash')}, report by {expected} (use --force to render)"
                    )
                break
    if fmt == "json":
        click.echo(canonical_dumps(report.to_dict()))
    else:
        click.echo(render_report(report), nl=False)


if __name__ == "__main__":
    main()
