"""Command-line pipeline: artifacts, determinism, exit codes, lineage."""

import json
import re

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import rewrite_header, rewrite_line, rewrite_lines
from objsearch import artifacts
from objsearch.cli import main
from objsearch.core import NOISE_VERSION, canonical_dumps, config_hash
from objsearch.memstore import load
from objsearch.homesim import generate_world, read_stream


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def flip_a_byte(path):
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 1
    open(path, "wb").write(bytes(data))


def test_gen_world_summary_matches_generator(runner, tmp_path):
    world_path = str(tmp_path / "world.json")
    sched_path = str(tmp_path / "schedule.json")
    result = invoke(runner, "gen-world", "--scene", "1", "--seed", "7",
                    "--out-world", world_path, "--out-schedule", sched_path)
    assert result.exit_code == 0
    world, _ = generate_world(7, 1)
    expected = f"rooms={len(world.rooms)} landmarks={len(world.landmarks)} objects={len(world.objects)}"
    assert result.output.strip() == expected


def test_gen_world_rerun_byte_identical(runner, tmp_path):
    paths = [str(tmp_path / n) for n in ("w1.json", "s1.json", "w2.json", "s2.json")]
    invoke(runner, "gen-world", "--scene", "2", "--seed", "5",
           "--out-world", paths[0], "--out-schedule", paths[1])
    invoke(runner, "gen-world", "--scene", "2", "--seed", "5",
           "--out-world", paths[2], "--out-schedule", paths[3])
    assert open(paths[0], "rb").read() == open(paths[2], "rb").read()
    assert open(paths[1], "rb").read() == open(paths[3], "rb").read()


def test_gen_world_missing_scene_usage_error(runner):
    result = CliRunner().invoke(main, ["gen-world"])
    assert result.exit_code == 2


def test_patrol_writes_expected_line_count(runner, tmp_path):
    world_path = str(tmp_path / "world.json")
    sched_path = str(tmp_path / "schedule.json")
    stream_path = str(tmp_path / "stream.jsonl")
    invoke(runner, "gen-world", "--scene", "1", "--seed", "3",
           "--out-world", world_path, "--out-schedule", sched_path)
    result = invoke(runner, "patrol", "--world", world_path, "--schedule", sched_path,
                    "--days", "3", "--out", stream_path)
    assert result.exit_code == 0
    assert "observations=600" in result.output
    header, stream = read_stream(stream_path)
    runs = list(stream.runs())
    assert (header["version"], header["count"], len(stream)) == (2, len(runs), 600)
    assert len(open(stream_path).read().splitlines()) == len(runs) + 2  # header + runs + checksum


def test_patrol_rejects_day_range(runner, tmp_path):
    world_path = str(tmp_path / "world.json")
    sched_path = str(tmp_path / "schedule.json")
    invoke(runner, "gen-world", "--scene", "1", "--seed", "3",
           "--out-world", world_path, "--out-schedule", sched_path)
    result = CliRunner().invoke(
        main, ["patrol", "--world", world_path, "--schedule", sched_path, "--days", "7"]
    )
    assert result.exit_code == 2
    result = CliRunner().invoke(
        main, ["patrol", "--world", world_path, "--schedule", sched_path, "--days", "2"]
    )
    assert result.exit_code == 2


def test_patrol_refuses_a_world_whose_day_is_shorter_than_its_route(runner, tmp_path):
    """A world can have fewer ticks per day than its patrol route has
    landmarks; patrolling it exits 1 naming the world file, not with a
    traceback."""
    world_path = str(tmp_path / "world.json")
    sched_path = str(tmp_path / "schedule.json")
    invoke(runner, "gen-world", "--scene", "1", "--ticks-per-day", "5",
           "--out-world", world_path, "--out-schedule", sched_path)
    result = CliRunner().invoke(main, ["patrol", "--world", world_path, "--schedule", sched_path,
                                       "--out", str(tmp_path / "stream.jsonl")])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"{world_path}: ticks_per_day=5 cannot cover the 15-landmark route" in result.output
    assert not (tmp_path / "stream.jsonl").exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """world -> patrol -> memories in both modes."""
    root = tmp_path_factory.mktemp("pipeline")
    runner = CliRunner()
    paths = {
        "world": str(root / "world.json"),
        "schedule": str(root / "schedule.json"),
        "stream": str(root / "stream.jsonl"),
        "oracle": str(root / "mem_oracle.jsonl"),
        "realistic": str(root / "mem_real.jsonl"),
    }
    runner.invoke(main, ["gen-world", "--scene", "1", "--seed", "3",
                         "--out-world", paths["world"], "--out-schedule", paths["schedule"]],
                  catch_exceptions=False)
    runner.invoke(main, ["patrol", "--world", paths["world"], "--schedule", paths["schedule"],
                         "--days", "3", "--out", paths["stream"]], catch_exceptions=False)
    for mode in ("oracle", "realistic"):
        runner.invoke(main, ["build-memory", "--stream", paths["stream"], "--mode", mode,
                             "--out", paths[mode]], catch_exceptions=False)
    return paths


def test_export_graphs_per_day(pipeline, tmp_path):
    out = str(tmp_path / "graphs.jsonl")
    result = CliRunner().invoke(
        main, ["export-graphs", "--world", pipeline["world"], "--schedule", pipeline["schedule"],
               "--days", "3", "--out", out], catch_exceptions=False)
    assert result.exit_code == 0
    header, graphs, _ = artifacts.read(out, expect={"format": "scene-graphs", "version": 2})
    assert (header["count"], header["config"]["days"]) == (3, 3)
    assert [g["day"] for g in graphs] == [0, 1, 2]
    assert all(g["nodes"] and g["edges"] for g in graphs)
    # A checksummed artifact: one changed byte fails the read.
    flip_a_byte(out)
    with pytest.raises(artifacts.IntegrityError, match="checksum mismatch"):
        artifacts.verify(out)


def edited_world(pipeline, tmp_path, edit):
    doc = json.load(open(pipeline["world"]))
    edit(doc["world"])
    path = tmp_path / "edited_world.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_export_graphs_reads_the_world_file(pipeline, tmp_path):
    """Graphs come from the placements in the given world file, as patrol's
    observations do, not from the world its seeds would generate."""
    def book_on_bed(world):
        [book] = [o for o in world["objects"] if o["entity_id"] == "book_1"]
        book["location"] = {"kind": "landmark", "ref": "bed"}

    world = edited_world(pipeline, tmp_path, book_on_bed)
    stream, out = str(tmp_path / "stream.jsonl"), str(tmp_path / "graphs.jsonl")
    invoke(CliRunner(), "patrol", "--world", world, "--schedule", pipeline["schedule"], "--out", stream)
    seen = {e.landmark_id for _, _, obs in read_stream(stream)[1]
            for e in obs.visible_entities if e.entity_id == "book_1"}
    assert seen == {"bed"}
    invoke(CliRunner(), "export-graphs", "--world", world, "--schedule", pipeline["schedule"],
           "--days", "3", "--out", out)
    _, graphs, _ = artifacts.read(out, expect={"format": "scene-graphs", "version": 2})
    assert len(graphs) == 3
    for graph in graphs:
        assert ["book_1", "at", "bed"] in graph["edges"]
        assert ["book_1", "at", "bookshelf"] not in graph["edges"]


def test_export_graphs_rejects_a_clock_past_the_day(pipeline, tmp_path):
    world = edited_world(pipeline, tmp_path, lambda w: w.update(clock=250))
    out = tmp_path / "graphs.jsonl"
    result = CliRunner().invoke(main, ["export-graphs", "--world", world, "--schedule",
                                       pipeline["schedule"], "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"{world}: tick 199 is before the world clock 250" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["patrol", "export-graphs"])
@pytest.mark.parametrize("edit, message", [
    (lambda w: w.update(scene_id=1.7), "scene_id must be a JSON integer, got 1.7"),
    (lambda w: w["objects"][0].update(attributes="red"), "attributes must be a JSON array of strings, got 'red'"),
    (lambda w: w["landmarks"][0].update(is_receptacle="no"), "is_receptacle must be a JSON boolean, got 'no'"),
], ids=["scene_id", "attributes", "is_receptacle"])
def test_world_file_with_a_mistyped_field_is_refused(pipeline, tmp_path, command, edit, message):
    """A world field of the wrong JSON type is refused, exit 1 naming the
    field, rather than coerced: 1.7 is no scene id, "red" no list of
    attributes, "no" no boolean."""
    world = edited_world(pipeline, tmp_path, edit)
    out = tmp_path / "out.jsonl"
    result = CliRunner().invoke(main, [command, "--world", world, "--schedule", pipeline["schedule"],
                                       "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"{world}: unexpected content: ValueError: {message}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["patrol", "export-graphs"])
def test_schedule_file_with_a_move_off_the_day_is_refused(pipeline, tmp_path, command):
    doc = json.load(open(pipeline["schedule"]))
    doc["schedule"]["moves"].append({"day": 0, "tick_of_day": 250, "entity_id": "book_1",
                                     "location": {"kind": "landmark", "ref": "bed"}})
    schedule = tmp_path / "late_schedule.json"
    schedule.write_text(json.dumps(doc))
    out = tmp_path / "out.jsonl"
    result = CliRunner().invoke(main, [command, "--world", pipeline["world"], "--schedule", str(schedule),
                                       "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"{schedule}: move of book_1 at day 0, tick_of_day 250" in result.output
    assert not out.exists()


def test_build_memory_from_a_file_shares_raws_like_an_in_process_build(pipeline):
    """build-memory from the stream file stores the same records, raws and
    embeddings as a build of the patrol itself: both key raws by value."""
    from objsearch.embed import EmbedderConfig
    from objsearch.homesim import patrol
    from objsearch.memstore import build

    world, schedule = generate_world(3, 1)
    built = build(patrol(world, schedule, days=3), EmbedderConfig(d=256), ticks_per_day=200)
    loaded = load(pipeline["oracle"])
    assert len(loaded._set.raws) < len(loaded) == 600
    assert (len(loaded._set.embeddings), loaded._set.raws) == (len(built._set.embeddings), built._set.raws)
    assert list(loaded.records) == list(built.records)


def test_build_memory_header_records_mode(pipeline):
    header = json.loads(open(pipeline["oracle"]).readline())
    assert header["mode"] == "oracle"
    assert header["records"] == 600
    header = json.loads(open(pipeline["realistic"]).readline())
    assert header["mode"] == "realistic"


def test_oracle_vs_realistic_differ_only_in_captions(pipeline):
    oracle, real = load(pipeline["oracle"]), load(pipeline["realistic"])
    assert len(oracle) == len(real)
    diffs = 0
    for ra, rb in zip(oracle.records, real.records):
        assert ra.t == rb.t
        assert ra.pose == rb.pose
        assert ra.raw.visible_entities == rb.raw.visible_entities
        if ra.raw.caption != rb.raw.caption:
            diffs += 1
            assert not np.array_equal(ra.embedding, rb.embedding)
    assert diffs > 0


def test_build_memory_writes_format_v8_with_config_hash(pipeline):
    """The reference embedder's memory file stores no embeddings: no rows
    count, row column or embeddings line. Records name their pose: a pose
    run column, and no x, y, yaw or room column."""
    hashes = set()
    for mode in ("oracle", "realistic"):
        header, lines, _ = artifacts.verify(pipeline[mode])
        memory = load(pipeline[mode])
        assert header["format_version"] == 8
        names = [next(iter(json.loads(line))) for line in lines[header["entity_lists"]:]]
        assert "pose" in names and not {"x", "y", "yaw", "room"} & set(names)
        assert len(memory._set.poses) == header["poses"] < header["runs"]
        assert (len(memory), memory.mode) == (600, mode) == (header["records"], header["mode"])
        assert len(memory._set.embeddings) == len(memory._set.raws) < 600  # one embedding per raw
        assert "rows" not in header and not any(line.startswith(('{"row"', '{"embeddings"')) for line in lines)
        assert re.fullmatch("[0-9a-f]{16}", header["config_hash"])
        hashes.add(header["config_hash"])
    assert len(hashes) == 2  # the mode is in the producing config


@pytest.mark.parametrize("mode", ["oracle", "realistic"])
def test_build_memory_files_re_persist_byte_exact(pipeline, tmp_path, mode):
    """A loaded memory, persisted again under its file's config_hash, gives
    the file's bytes: load derives exactly the rows the file left out."""
    from objsearch.memstore import persist

    again = tmp_path / "again.jsonl"
    header = artifacts.verify(pipeline[mode])[0]
    persist(load(pipeline[mode]), str(again), extra_header={"config_hash": header["config_hash"]})
    assert again.read_bytes() == open(pipeline[mode], "rb").read()


def test_build_memory_has_no_snapshot_option(pipeline, tmp_path):
    """Keyframes are gone, and with them --snapshot-every."""
    out = tmp_path / "memory.jsonl"
    result = CliRunner().invoke(main, ["build-memory", "--stream", pipeline["stream"], "--snapshot-every", "25",
                                       "--out", str(out)])
    assert result.exit_code == 2
    assert "No such option '--snapshot-every'" in result.output
    assert not out.exists()


def test_build_memory_lineage_names_the_noise_version(pipeline):
    """A realistic memory's producing config carries the noise model's
    version; an oracle one's does not, so its hash is as it was."""
    stream_hash = json.loads(open(pipeline["stream"]).readline())["config_hash"]
    for mode in ("oracle", "realistic"):
        config = {"cmd": "build-memory", "mode": mode, "d": 256, "noise_seed": 0,
                  "p_drop": 0.1, "p_mislabel": 0.1, "stream_hash": stream_hash}
        if mode == "realistic":
            config["noise_version"] = NOISE_VERSION
        assert artifacts.verify(pipeline[mode])[0]["config_hash"] == config_hash(config)


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_build_memory_rejects_a_noise_seed_outside_the_key_range(pipeline, tmp_path, seed):
    result = CliRunner().invoke(main, ["build-memory", "--stream", pipeline["stream"], "--mode", "realistic",
                                       "--noise-seed", seed, "--out", str(tmp_path / "m.jsonl")])
    assert result.exit_code == 2
    assert "noise-seed" in result.output


def test_build_memory_corrupt_stream_exits_nonzero(pipeline, tmp_path):
    bad = str(tmp_path / "bad.jsonl")
    text = open(pipeline["stream"]).read()
    open(bad, "w").write(text.replace("mug", "gum", 1))
    result = CliRunner().invoke(main, ["build-memory", "--stream", bad])
    assert result.exit_code == 1
    assert "integrity" in result.output.lower()


@pytest.fixture(scope="module")
def suite_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("suite")
    runner = CliRunner()
    tasks = str(root / "tasks.jsonl")
    report = str(root / "report.json")
    logs = str(root / "episodes.jsonl")
    runner.invoke(main, ["gen-tasks", "--per-family", "1", "--scenes", "1",
                         "--seed", "1", "--out", tasks], catch_exceptions=False)
    runner.invoke(main, ["run-suite", "--tasks", tasks, "--methods", "random,tr_s,star",
                         "--modes", "oracle", "--seed", "1",
                         "--out-report", report, "--out-logs", logs], catch_exceptions=False)
    return {"tasks": tasks, "report": report, "logs": logs, "root": root}


def test_gen_tasks_counts_line(suite_artifacts):
    header = json.loads(open(suite_artifacts["tasks"]).readline())
    assert header["count"] == 5 + 5 + 1  # per-family=1, one scene


def test_run_task_on_fixture(suite_artifacts, tmp_path):
    fx = str(tmp_path / "fx.jsonl")
    runner = CliRunner()
    runner.invoke(main, ["gen-tasks", "--fixture", "unmoved_visible", "--n", "3",
                         "--seed", "0", "--out", fx], catch_exceptions=False)
    result = runner.invoke(
        main, ["run-task", "--tasks", fx, "--index", "0", "--method", "star",
               "--budget", "20"], catch_exceptions=False)
    assert result.exit_code == 0
    assert "success=true" in result.output


@pytest.mark.parametrize("args, message, valid", [
    (["run-suite", "--methods", "star,nope"], "unknown method 'nope'", "'sg_s'"),
    (["run-suite", "--modes", "noisy"], "unknown mode 'noisy'", "'realistic'"),
    (["run-task", "--method", "nope"], "unknown method 'nope'", "'sg_s'"),
    (["run-suite", "--modes", "oracle,oracle"], "repeated mode", "'oracle'"),
    (["run-suite", "--methods", "star,random,star"], "repeated method", "'star'"),
])
def test_unknown_method_or_mode_is_a_usage_error(suite_artifacts, tmp_path, monkeypatch, args, message, valid):
    """Exit 2 with a message naming the bad value and the valid ones, not a
    traceback; nothing is written."""
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, [*args, "--tasks", suite_artifacts["tasks"]], catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert message in result.output and valid in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["run-suite", "run-task"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_one_is_a_usage_error(suite_artifacts, tmp_path, monkeypatch, command, budget):
    """A budget below 1 exits 2 naming --budget, runs no episode and writes
    nothing."""
    monkeypatch.chdir(tmp_path)
    method = "--methods" if command == "run-suite" else "--method"
    args = [command, "--tasks", suite_artifacts["tasks"], method, "star", "--budget", budget]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert "--budget" in result.output and "crash" not in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("parallelism", ["0", "-3"])
def test_parallelism_below_one_is_a_usage_error(suite_artifacts, tmp_path, monkeypatch, parallelism):
    """run-suite with fewer than one worker exits 2 naming the value, runs
    no episode and writes nothing."""
    monkeypatch.chdir(tmp_path)
    args = ["run-suite", "--tasks", suite_artifacts["tasks"], "--parallelism", parallelism]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert f"parallelism must be >= 1, got {parallelism}" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args, option", [
    (["gen-world", "--scene", "1", "--ticks-per-day", "0"], "--ticks-per-day"),
    (["gen-tasks", "--per-family", "0"], "--per-family"),
    (["gen-tasks", "--fixture", "commonsense", "--n", "-3"], "--n"),
    (["gen-tasks", "--scenes", "4"], "--scenes"),
    (["gen-tasks", "--scenes", "x"], "--scenes"),
    (["gen-tasks", "--scenes", "1,1"], "--scenes"),
    (["gen-tasks", "--ticks-per-day", "5"], "--ticks-per-day"),
    (["gen-tasks", "--scenes", "2", "--ticks-per-day", "15"], "--ticks-per-day"),
    (["build-memory", "--d", "0"], "--d"),
    (["build-memory", "--d", "4"], "--d"),
    (["build-memory", "--mode", "realistic", "--p-drop", "2"], "--p-drop"),
    (["build-memory", "--p-mislabel", "-0.5"], "--p-mislabel"),
])
def test_option_values_the_library_refuses_are_usage_errors(pipeline, tmp_path, monkeypatch, args, option):
    """An option value the library would refuse exits 2 naming the option,
    not with a traceback, and writes nothing. Repeated scenes would repeat
    task ids; a day shorter than the scene's patrol route cannot be
    patrolled (scene 2's route has 16 landmarks)."""
    monkeypatch.chdir(tmp_path)
    if args[0] == "build-memory":
        args = [*args, "--stream", pipeline["stream"]]
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert f"'{option}'" in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scenes", ["1,1", "2,3,2"])
def test_gen_tasks_repeated_scenes_are_refused_by_the_library(tmp_path, monkeypatch, scenes):
    """--scenes takes known ids; generate_suite refuses a repeated one, and
    the CLI reports its refusal as a usage error on --scenes."""
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, ["gen-tasks", "--scenes", scenes], catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert "'--scenes'" in result.output
    assert "repeated scene in (%s)" % scenes.replace(",", ", ") in result.output
    assert list(tmp_path.iterdir()) == []


def test_run_task_contains_a_crash_like_run_suite(suite_artifacts):
    """An llm run with no endpoint crashes inside its episode: the outcome
    line is printed, and the command exits 1 with the episode's error."""
    result = CliRunner(env={"OBJSEARCH_LLM_URL": None}).invoke(
        main, ["run-task", "--tasks", suite_artifacts["tasks"], "--method", "llm"])
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert re.search(r"^task=\S+ success=false steps=0 termination=crash$", result.output, re.M)
    assert "ValueError: llm method requires an endpoint configuration" in result.output


def test_run_suite_reruns_identical(suite_artifacts):
    runner = CliRunner()
    report2 = str(suite_artifacts["root"] / "report2.json")
    logs2 = str(suite_artifacts["root"] / "episodes2.jsonl")
    runner.invoke(main, ["run-suite", "--tasks", suite_artifacts["tasks"],
                         "--methods", "random,tr_s,star", "--modes", "oracle", "--seed", "1",
                         "--out-report", report2, "--out-logs", logs2], catch_exceptions=False)
    assert open(suite_artifacts["report"], "rb").read() == open(report2, "rb").read()
    assert open(suite_artifacts["logs"], "rb").read() == open(logs2, "rb").read()


def test_tasks_hash_is_the_task_file_checksum(suite_artifacts, tmp_path):
    """A report's tasks_hash is its task file's checksum (the trailer's
    sha256), which names the tasks; the header's config_hash names only the
    gen-tasks options. So two task files under one header, holding
    different tasks, give reports of different tasks_hash."""
    from objsearch.bench import read_tasks, write_tasks

    header, tasks, sha256 = read_tasks(suite_artifacts["tasks"])
    assert json.load(open(suite_artifacts["report"]))["tasks_hash"] == sha256 != header["config_hash"]
    meta = {"config": header["config"], "config_hash": header["config_hash"]}
    hashes = []
    for name, part in (("first", tasks[:1]), ("second", tasks[1:2])):
        path, report = tmp_path / f"{name}.jsonl", tmp_path / f"{name}_report.json"
        write_tasks(str(path), part, meta)
        assert read_tasks(str(path))[0]["config_hash"] == header["config_hash"]
        CliRunner().invoke(main, ["run-suite", "--tasks", str(path), "--methods", "random", "--out-report",
                                  str(report), "--out-logs", str(tmp_path / f"{name}.log")], catch_exceptions=False)
        hashes.append(json.load(open(report))["tasks_hash"])
        assert hashes[-1] == json.loads(path.read_text().splitlines()[-1])["sha256"]
    assert hashes[0] != hashes[1]


def test_report_table_columns(suite_artifacts):
    result = CliRunner().invoke(
        main, ["report", "--report", suite_artifacts["report"], "--format", "table"],
        catch_exceptions=False)
    assert result.exit_code == 0
    header_line = next(l for l in result.output.splitlines() if l.startswith("Method"))
    for col in ("Method", "Mode", "C", "A", "S", "ST", "SF"):
        assert col in header_line.split()


def test_report_verifies_lineage(suite_artifacts, tmp_path):
    result = CliRunner().invoke(
        main, ["report", "--report", suite_artifacts["report"],
               "--logs", suite_artifacts["logs"]])
    assert result.exit_code == 0
    tampered = str(tmp_path / "tampered.jsonl")
    text = open(suite_artifacts["logs"]).read()
    first = json.loads(text.splitlines()[0])
    text = text.replace(first["config_hash"], "0" * 16)
    open(tampered, "w").write(text)
    result = CliRunner().invoke(
        main, ["report", "--report", suite_artifacts["report"], "--logs", tampered])
    assert result.exit_code == 1
    assert "lineage" in result.output
    result = CliRunner().invoke(
        main, ["report", "--report", suite_artifacts["report"], "--logs", tampered, "--force"])
    assert result.exit_code == 0


def test_report_json_format_round_trips(suite_artifacts):
    result = CliRunner().invoke(
        main, ["report", "--report", suite_artifacts["report"], "--format", "json"],
        catch_exceptions=False)
    body = json.loads(result.output)
    assert "success_rates" in body and "episodes" in body


def task_edit(**fields):
    """Set fields of task 1 (line 2) of a task file."""
    return lambda path: rewrite_line(path, 2, lambda task: {**task, **fields})


def move_edit(**fields):
    """Set fields of the first scheduled move of task 1 (line 2) of a task file."""
    def edited(task):
        schedule = task["schedule"]
        moves = [{**schedule["moves"][0], **fields}, *schedule["moves"][1:]]
        return {**task, "schedule": {**schedule, "moves": moves}}
    return lambda path: rewrite_line(path, 2, edited)


def truncated(path):
    """The header and 3 tasks, as a writer cut short leaves the file."""
    lines = open(path).read().splitlines()[:4]
    open(path, "w").write("".join(line + "\n" for line in lines))


def unversioned(path):
    """The task file as written before format version 2: a header with the
    config, its hash and the count, then the task lines, and no checksum."""
    lines = open(path).read().splitlines()[:-1]
    header = {k: v for k, v in json.loads(lines[0]).items() if k not in ("format", "version")}
    open(path, "w").write("".join(line + "\n" for line in [canonical_dumps(header), *lines[1:]]))


# Each case: how a copy of an 11-task file is edited (all but flip_a_byte,
# truncated and unversioned re-checksum it), and what the refusal says.
MALFORMED_TASK_FILES = {
    "empty": (lambda path: open(path, "w").close(), "file too short"),
    "bad_header": (lambda path: rewrite_line(path, 0, lambda header: [header]),
                   "malformed header: not a JSON object"),
    "no_count": (lambda path: rewrite_header(path, lambda header: header.pop("count")),
                 "malformed header: missing 'count'"),
    "truncated": (truncated, "missing or malformed checksum line"),
    "dropped_tasks": (lambda path: rewrite_lines(path, lambda lines: lines[:4]),
                      "task count mismatch: header says 11, found 3"),
    "bad_task": (lambda path: rewrite_line(path, 2, lambda task: {"task_id": "t"}), "task 1: 'instruction'"),
    "few_days": (task_edit(days=2), "task 1: days must lie in [3, 6], got 2"),
    "many_days": (task_edit(days=7), "task 1: days must lie in [3, 6], got 7"),
    "short_day": (task_edit(ticks_per_day=5), "task 1: ticks_per_day=5 cannot cover the 15-landmark route"),
    "no_scene": (task_edit(scene_id=4), "task 1: unknown scene_id 4"),
    "one_byte": (flip_a_byte, "checksum mismatch: file corrupt or truncated"),
    "unversioned": (unversioned, "missing or malformed checksum line"),
    "no_format": (lambda path: rewrite_header(path, lambda header: header.pop("format")),
                  "malformed header: missing 'format'"),
    "other_format": (lambda path: rewrite_header(path, lambda header: header.update(format="patrol-stream")),
                     "unsupported format 'patrol-stream', expected 'tasks'"),
    "float_version": (lambda path: rewrite_header(path, lambda header: header.update(version=2.0)),
                      "unsupported version 2.0, expected 2"),
    # Each field of a task line takes its own JSON type only.
    "float_days": (task_edit(days=3.9), "task 1: days must be a JSON integer, got 3.9"),
    "bool_scene": (task_edit(scene_id=True), "task 1: scene_id must be a JSON integer, got True"),
    "str_ticks_per_day": (task_edit(ticks_per_day="200"), "task 1: ticks_per_day must be a JSON integer, got '200'"),
    "float_layout_seed": (task_edit(layout_seed=1.5), "task 1: layout_seed must be a JSON integer, got 1.5"),
    "int_task_id": (task_edit(task_id=7), "task 1: task_id must be a JSON string, got 7"),
    # So does each field of a scheduled move.
    "float_move_day": (move_edit(day=1.5), "task 1: day must be a JSON integer, got 1.5"),
    "bool_move_day": (move_edit(day=True), "task 1: day must be a JSON integer, got True"),
    "str_tick_of_day": (move_edit(tick_of_day="5"), "task 1: tick_of_day must be a JSON integer, got '5'"),
    "int_move_entity": (move_edit(entity_id=7), "task 1: entity_id must be a JSON string, got 7"),
}


@pytest.mark.parametrize("case", list(MALFORMED_TASK_FILES))
def test_run_suite_rejects_malformed_task_file(suite_artifacts, tmp_path, case):
    """A task file is refused whole, before any episode runs: the command
    exits 1 naming the file, and no report is written. That includes a task
    prepare_task could not set up, and a task file of the format before
    version 2, which has no checksum."""
    path = tmp_path / "tasks.jsonl"
    path.write_bytes(open(suite_artifacts["tasks"], "rb").read())
    assert artifacts.verify(str(path))[0]["count"] == 11
    edit, expected = MALFORMED_TASK_FILES[case]
    edit(str(path))
    report = tmp_path / "report.json"
    for args in (["run-suite", "--out-report", str(report)], ["run-task"]):
        result = CliRunner().invoke(main, [*args, "--tasks", str(path)])
        assert result.exit_code == 1, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"task file {path}: {expected}" in result.output
    assert not report.exists()


def test_run_suite_summary_counts_crashes_and_aborts(suite_artifacts, tmp_path, monkeypatch):
    import dataclasses

    from objsearch.bench import suite

    real = suite.run_task_episode

    def flaky(task, method, *args, **kwargs):
        if method == "random":
            raise RuntimeError("injected")
        result = real(task, method, *args, **kwargs)
        if method == "tr_s":
            result = dataclasses.replace(result, termination="policy_abort")
        return result

    monkeypatch.setattr(suite, "run_task_episode", flaky)
    report = str(tmp_path / "report.json")
    result = CliRunner().invoke(
        main, ["run-suite", "--tasks", suite_artifacts["tasks"], "--methods", "random,tr_s,star",
               "--seed", "1", "--out-report", report, "--out-logs", str(tmp_path / "logs.jsonl")],
        catch_exceptions=False)
    assert result.exit_code == 0
    episodes = json.load(open(report))["episodes"]
    terminations = [e["termination"] for e in episodes]
    assert terminations.count("crash") == 11 and terminations.count("policy_abort") == 11
    fields = dict(kv.split("=", 1) for kv in result.output.split())
    assert fields["episodes"] == "33"
    assert fields["crashes"] == "11" and fields["aborts"] == "11"


# A stream header with no config, whose config is not a JSON object, or
# whose config.ticks_per_day is not a positive JSON integer.
@pytest.mark.parametrize(
    "meta",
    [{}, {"config": "x"}, {"config": [1]}, {"config": None}, {"config": {}}, {"config": {"ticks_per_day": 0}},
     {"config": {"ticks_per_day": -1300}}, {"config": {"ticks_per_day": "1300"}},
     {"config": {"ticks_per_day": 1300.0}}, {"config": {"ticks_per_day": True}}],
    ids=["none", "str", "list", "null", "no-tpd", "tpd-zero", "tpd-negative", "tpd-str", "tpd-float", "tpd-bool"],
)
def test_build_memory_requires_ticks_per_day_in_stream_header(tmp_path, meta):
    from objsearch.homesim import patrol, write_stream

    world, schedule = generate_world(3, 1, ticks_per_day=1300)
    stream_path = str(tmp_path / "stream.jsonl")
    write_stream(stream_path, patrol(world, schedule, days=3), meta=meta)
    out = tmp_path / "memory.jsonl"
    result = CliRunner().invoke(main, ["build-memory", "--stream", stream_path, "--out", str(out)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "no config.ticks_per_day" in result.output
    assert not out.exists()


def test_build_memory_refuses_records_off_the_header_ticks_per_day(tmp_path):
    from objsearch.homesim import patrol, write_stream

    world, schedule = generate_world(3, 1, ticks_per_day=1300)
    stream = patrol(world, schedule, days=3)
    starts = {t0 for t0, *_ in stream.runs()}
    # At 1300 ticks/day, tick 174 starts a run and tick 200 falls inside one.
    # Each is the first tick a header's ticks_per_day puts on day 1.
    for header_tpd, first_bad, starts_run in ((174, 174, True), (200, 200, False)):
        assert (first_bad in starts) == starts_run
        stream_path = str(tmp_path / f"stream{header_tpd}.jsonl")
        write_stream(stream_path, stream, meta={"config": {"ticks_per_day": header_tpd}})
        out = tmp_path / f"memory{header_tpd}.jsonl"
        result = CliRunner().invoke(main, ["build-memory", "--stream", stream_path, "--out", str(out)])
        assert result.exit_code == 1
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert (f"stream {stream_path}: batch position {first_bad}: day 0 is not t // ticks_per_day = 1 "
                f"for t={first_bad} at ticks_per_day={header_tpd}") in result.output
        assert not out.exists()


# Well-formed JSON of the wrong shape: a world file without its world, a report
# without its config, an episode log line that is not an object.
WRONG_SHAPE = {"world": '{"config_hash":"x"}', "report": '{"episodes": []}'}


@pytest.mark.parametrize("command, role, wrong_shape", [
    *(pytest.param(command, role, False, id=f"{command}-{role}") for command, role in (
        ("report", "report"), ("report", "logs"), ("patrol", "world"), ("patrol", "schedule"),
        ("export-graphs", "world"), ("export-graphs", "schedule"),
    )),
    pytest.param("patrol", "world", True, id="patrol-world-wrong-shape"),
    pytest.param("report", "report", True, id="report-report-wrong-shape"),
    pytest.param("report", "logs", True, id="report-logs-wrong-shape"),
])
def test_malformed_json_inputs_name_the_file(pipeline, suite_artifacts, tmp_path, command, role, wrong_shape):
    paths = {"report": suite_artifacts["report"], "logs": suite_artifacts["logs"],
             "world": pipeline["world"], "schedule": pipeline["schedule"]}
    text = open(paths[role]).read()
    bad = tmp_path / role
    if role == "logs":  # the second line cut short, or a bare number
        first, second = text.splitlines()[:2]
        bad.write_text(first + "\n" + ("7" if wrong_shape else second[:20]) + "\n")
    elif wrong_shape:
        bad.write_text(WRONG_SHAPE[role] + "\n")
    else:
        bad.write_text(text[:-40])
    paths[role] = str(bad)
    if command == "report":
        args = ["report", "--report", paths["report"], "--logs", paths["logs"]]
    else:
        args = [command, "--world", paths["world"], "--schedule", paths["schedule"],
                "--out", str(tmp_path / "out.jsonl")]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    where = f"{bad}, line 2" if role == "logs" else str(bad)
    assert f"{where}: {'unexpected content' if wrong_shape else 'malformed JSON'}" in result.output
