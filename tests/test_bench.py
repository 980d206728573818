"""Benchmark layer: suite arithmetic, family hazards, adjudication, metrics."""

import dataclasses
import functools
import hashlib
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objsearch.agent import LLMPolicyConfig
from objsearch.artifacts import IntegrityError
from objsearch.bench import (
    FIXTURE_KINDS,
    GenerationError,
    SceneListError,
    SuiteConfig,
    TaskSpec,
    adjudicate,
    build_fixture_suite,
    build_task,
    check_family_hazard,
    default_prior_table,
    generate_suite,
    optimal_counts,
    prepare_task,
    read_tasks,
    run_suite,
    run_task_episode,
    wilson_interval,
    write_tasks,
)
from objsearch.bench.tasks import interactive_per_family
from objsearch.core import (
    DEFAULT_LABEL_POOL,
    NOISE_VERSION,
    Action,
    Instruction,
    NoiseModel,
    Outcome,
    WorkingMemory,
    canonical_dumps,
)
from objsearch.homesim import LOC_INSIDE, generate_world, scene_world


# -- suite arithmetic -------------------------------------------------------------


def test_desk_scale_counts():
    tasks = generate_suite(per_family=3, seed=0)
    by_type = {}
    for t in tasks:
        by_type[t.type] = by_type.get(t.type, 0) + 1
    assert by_type == {"visible": 45, "interactive": 30, "commonsense": 9}


def test_full_scale_counts():
    # 5 families x 3 scenes x n, interactive scaled by ceil(2n/5), one
    # commonsense family: n=15 reproduces 225 / 90 / 45 for 360 tasks total.
    assert interactive_per_family(15) == 6
    tasks = generate_suite(per_family=15, seed=0)
    by_type = {}
    for t in tasks:
        by_type[t.type] = by_type.get(t.type, 0) + 1
    assert by_type == {"visible": 225, "interactive": 90, "commonsense": 45}
    assert len(tasks) == 360


def test_task_ids_unique_and_serializable():
    tasks = generate_suite(per_family=2, seed=3)
    ids = [t.task_id for t in tasks]
    assert len(ids) == len(set(ids))
    for t in tasks[:10]:
        again = TaskSpec.from_dict(t.to_dict())
        assert again == t


@pytest.mark.parametrize("day, tick_of_day", [(0, 200), (1, 250), (-1, 10), (0, -1)])
def test_task_from_dict_rejects_a_move_off_the_day(day, tick_of_day):
    """A task file's schedule may hold no move before day 0 or outside
    [0, ticks_per_day): such a move would hold back moves that are due."""
    d = generate_suite(scenes=(1,), per_family=1, seed=0)[0].to_dict()
    assert d["ticks_per_day"] == 200
    d["schedule"]["moves"].append({"day": day, "tick_of_day": tick_of_day, "entity_id": "book_1",
                                   "location": {"kind": "landmark", "ref": "bed"}})
    with pytest.raises(ValueError, match=f"day {day}, tick_of_day {tick_of_day}"):
        TaskSpec.from_dict(d)


def test_generation_deterministic():
    a = [t.to_dict() for t in generate_suite(per_family=2, seed=9)]
    b = [t.to_dict() for t in generate_suite(per_family=2, seed=9)]
    assert a == b


@pytest.mark.parametrize("ticks_per_day, scene_id, landmarks", [(5, 1, 15), (15, 2, 16)])
def test_a_day_shorter_than_the_route_generates_no_task(ticks_per_day, scene_id, landmarks):
    """A task whose scene cannot be patrolled in a day is refused when it is
    built, naming the scene, not when its suite runs."""
    message = f"scene {scene_id}: ticks_per_day={ticks_per_day} cannot cover the {landmarks}-landmark route"
    with pytest.raises(ValueError, match=message):
        generate_suite(scenes=(scene_id,), per_family=1, ticks_per_day=ticks_per_day)
    with pytest.raises(ValueError, match=message):
        build_task(scene_id, "class", "visible", 0, seed=0, ticks_per_day=ticks_per_day)


@functools.cache
def task_pool():
    """Generated tasks of every scene, family and type, at two day lengths,
    and a few tasks of each fixture suite."""
    tasks = [*generate_suite(per_family=1, seed=4), *generate_suite(scenes=(2,), per_family=1, ticks_per_day=1300)]
    for kind in FIXTURE_KINDS:
        tasks.extend(build_fixture_suite(kind, n=3, seed=1))
    return tasks


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=60, deadline=None)
@given(picks=st.lists(st.integers(0, 10**6), max_size=12),
       meta=st.dictionaries(st.text().filter(lambda k: k not in ("format", "version", "count")), JSON_VALUES,
                            max_size=4))
def test_task_file_round_trip(picks, meta):
    """write_tasks then read_tasks gives back the header (meta, the format
    keys and the count), equal tasks and the file's checksum, and each task
    line is the task's canonical JSON, as the unversioned task files held
    them."""
    pool = task_pool()
    tasks = [pool[j % len(pool)] for j in picks]
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "tasks.jsonl")
        write_tasks(path, tasks, meta)
        header, again, sha256 = read_tasks(path)
        lines = open(path, encoding="utf-8").read().splitlines()
    assert header == {**meta, "format": "tasks", "version": 2, "count": len(tasks)}
    assert again == tasks
    assert lines[1:-1] == [canonical_dumps(task.to_dict()) for task in tasks]
    assert lines[-1] == canonical_dumps({"sha256": sha256})


@pytest.mark.parametrize("field, value, message", [
    ("optimal_counts", {"perception": "x", "navigation": 1, "manipulation": 1},
     "perception must be a JSON integer, got 'x'"),
    ("optimal_counts", {"perception": 1, "navigation": True, "manipulation": 1},
     "navigation must be a JSON integer, got True"),
    ("optimal_counts", {"perception": 1, "navigation": 1, "manipulation": -1},
     "optimal count manipulation must be >= 0, got -1"),
    ("family", "nope", "unknown family 'nope'"),
    ("type", "hidden", "unknown task type 'hidden'"),
])
def test_task_file_refuses_counts_and_families_the_suite_cannot_use(tmp_path, field, value, message):
    """A task whose optimal counts the report could not sum, or whose family
    or type no instruction takes, is refused when its file is read, naming
    its line, not when the suite aggregates or runs it."""
    path = str(tmp_path / "tasks.jsonl")
    write_tasks(path, [dataclasses.replace(task_pool()[0], **{field: value})], {})
    with pytest.raises(IntegrityError, match=re.escape(f"task 0: {message}")):
        read_tasks(path)


def test_per_family_must_be_positive():
    """A bad argument is a ValueError, as for scenes and days, not the
    GenerationError (a RuntimeError) of a world that cannot host a task."""
    for per_family in (0, -1):
        with pytest.raises(ValueError, match=f"per_family must be >= 1, got {per_family}") as info:
            generate_suite(per_family=per_family)
        assert not isinstance(info.value, GenerationError)


@pytest.mark.parametrize("scenes, message", [
    ((), r"no scene given; valid: \(1, 2, 3\)"),
    ((1, 1), r"repeated scene in \(1, 1\)"),
    ((3, 1, 3), r"repeated scene in \(3, 1, 3\)"),
])
def test_generate_suite_refuses_no_scene_or_a_repeated_one(scenes, message):
    """A repeated scene would repeat its task ids; no scene gives no task."""
    with pytest.raises(SceneListError, match=message) as info:
        generate_suite(scenes=scenes, per_family=1)
    assert isinstance(info.value, ValueError)


def built_alone(task, seed):
    """build_task called alone with the arguments that made the task."""
    idx = int(task.task_id.rsplit("-", 1)[1])
    return build_task(task.scene_id, task.family, task.type, idx, seed, task.days, task.ticks_per_day)


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_suite_tasks_equal_tasks_built_alone(seed):
    """Tasks that share their scene's world equal tasks built in a world of
    their own: from generate_suite and from every fixture suite."""
    suites = [generate_suite(per_family=1, seed=seed), generate_suite(scenes=(2,), per_family=1, seed=seed, days=4)]
    suites += [build_fixture_suite(kind, n=16, seed=seed) for kind in FIXTURE_KINDS]
    for suite in suites:
        for task in suite:
            assert built_alone(task, seed) == task


@pytest.mark.parametrize("make, scenes", [
    (lambda: generate_suite(per_family=2, seed=3), (1, 2, 3)),
    (lambda: generate_suite(scenes=(3, 1), per_family=1, seed=1, ticks_per_day=1300), (3, 1)),
    (lambda: build_fixture_suite("twin_interactive", n=20, seed=2), (1, 2, 3)),
])
def test_a_suite_builds_one_world_per_scene_and_leaves_it_as_it_was(monkeypatch, make, scenes):
    """Task generation calls scene_world once per scene of a suite, and the
    tasks only read the world they share: afterwards each equals a freshly
    built one."""
    from objsearch.bench import tasks as tasks_module

    built = []

    def recording(*args, **kwargs):
        world = scene_world(*args, **kwargs)
        built.append((args, kwargs, world))
        return world

    monkeypatch.setattr(tasks_module, "scene_world", recording)
    make()
    assert [world.scene_id for _, _, world in built] == list(scenes)

    def state(world):
        return (world.to_dict(), world.receptacle_open, world.inventory, world.applied_moves,
                world.robot_pose, world.robot_focus)

    for args, kwargs, world in built:
        assert state(world) == state(scene_world(*args, **kwargs))


# -- family hazards -----------------------------------------------------------------


def test_every_generated_task_passes_its_hazard_check():
    for task in generate_suite(per_family=3, seed=11):
        check_family_hazard(task)  # raises on violation


def test_spatial_temporal_target_moved_after_reference():
    for scene in (1, 2, 3):
        task = build_task(scene, "spatial_temporal", "visible", 0, seed=4)
        world, _ = generate_world(task.layout_seed, task.scene_id)
        start = world.objects[task.target_entity].location
        final_moves = [m for m in task.schedule.moves if m.entity_id == task.target_entity]
        assert final_moves[-1].day == task.days  # after the last patrol day
        assert final_moves[-1].location != start


def test_interactive_target_ends_inside_twin():
    task = build_task(2, "class", "interactive", 0, seed=4)
    world, _ = generate_world(task.layout_seed, task.scene_id)
    last = [m for m in task.schedule.moves if m.entity_id == task.target_entity][-1]
    assert last.location.kind == LOC_INSIDE
    recep = world.landmarks[last.location.ref]
    twins = [
        lm for lm in world.landmarks.values()
        if lm.is_receptacle and lm.name == recep.name and lm.room_id == recep.room_id
    ]
    assert len(twins) >= 2


def test_commonsense_target_never_observed():
    task = build_task(1, "commonsense", "commonsense", 0, seed=4)
    config = SuiteConfig(methods=("star",), modes=("oracle",), seed=4)
    memory = prepare_task(task, config)[0]["oracle"]
    for rec in memory.records:
        assert all(e.entity_id != task.target_entity for e in rec.raw.visible_entities)


def test_prior_table_covers_hidden_classes_with_true_rooms():
    table = default_prior_table()
    for scene in (1, 2, 3):
        for idx in range(2):
            task = build_task(scene, "commonsense", "commonsense", idx, seed=0)
            world, _ = generate_world(task.layout_seed, task.scene_id)
            target = world.objects[task.target_entity]
            recep = world.landmarks[target.location.ref]
            assert table[target.class_label] == recep.room_id


# -- adjudication ----------------------------------------------------------------------


def episode_with(steps, budget=20):
    h = WorkingMemory.fresh(Instruction(text="find the mug"), budget)
    for tool, payload in steps:
        h = h.append(Action(tool, {"entity": payload.get("entity", "")} if tool == "pick" else {}),
                     Outcome("skill_result", payload))
    return h


def test_adjudicate_correct_pick():
    task = build_task(1, "class", "visible", 0, seed=0)
    trace = episode_with([("pick", {"success": True, "entity": task.target_entity})])
    assert adjudicate(task, trace)


def test_adjudicate_wrong_instance_fails():
    task = build_task(1, "attribute", "visible", 0, seed=0)
    trace = episode_with([("pick", {"success": True, "entity": "folder_2"})])
    assert not adjudicate(task, trace)


def test_adjudicate_failed_pick_of_target_fails():
    task = build_task(1, "class", "visible", 0, seed=0)
    trace = episode_with([("pick", {"success": False, "reason": "not visible",
                                    "entity": task.target_entity})])
    assert not adjudicate(task, trace)


def test_adjudicate_guards_budget_overrun():
    """Defensive bound: a pick past the budget never counts, even on a trace
    object that violates the loop's own accounting."""
    from types import SimpleNamespace

    task = build_task(1, "class", "visible", 0, seed=0)
    steps = tuple(
        (Action("detect"), Outcome("perception", {"entities": []})) for _ in range(20)
    ) + (
        (Action("pick", {"entity": task.target_entity}),
         Outcome("skill_result", {"success": True, "entity": task.target_entity})),
    )
    rogue = SimpleNamespace(steps=steps, remaining_budget=-1)  # implies budget 20
    assert not adjudicate(task, rogue)


# -- optimal counts -----------------------------------------------------------------------


def test_optimal_counts_visible_and_interactive_constants():
    vis = build_task(1, "class", "visible", 0, seed=0)
    inter = build_task(1, "class", "interactive", 0, seed=0)
    assert optimal_counts(vis) == {"perception": 1, "navigation": 1, "manipulation": 1}
    assert sum(optimal_counts(vis).values()) == 3
    assert optimal_counts(inter) == {"perception": 2, "navigation": 1, "manipulation": 2}
    assert sum(optimal_counts(inter).values()) == 5


def test_optimal_counts_commonsense_shortest_plan():
    task = build_task(1, "commonsense", "commonsense", 0, seed=0)
    counts = optimal_counts(task)
    assert counts == {"perception": 1, "navigation": 1, "manipulation": 2}
    # An open-air commonsense target is one navigate away: {1,1,1}.
    from objsearch.bench.tasks import _commonsense_optimal
    world, _ = generate_world(0, 1)
    assert _commonsense_optimal(world, "toy_1") == {
        "perception": 1, "navigation": 1, "manipulation": 1,
    }


# -- wilson intervals ----------------------------------------------------------------------


def test_wilson_against_statsmodels():
    statsmodels = pytest.importorskip("statsmodels.stats.proportion")
    for k, n in [(11, 18), (0, 20), (20, 20), (7, 45), (1, 3)]:
        lo, hi = wilson_interval(k, n)
        ref_lo, ref_hi = statsmodels.proportion_confint(k, n, alpha=0.05, method="wilson")
        assert lo == pytest.approx(ref_lo, abs=1e-9)
        assert hi == pytest.approx(ref_hi, abs=1e-9)


def test_wilson_18_of_11_frozen_values():
    # Frozen from the closed form (statsmodels agrees): n=18, 11 successes.
    lo, hi = wilson_interval(11, 18)
    assert lo == pytest.approx(0.3861904, abs=1e-6)
    assert hi == pytest.approx(0.7969475, abs=1e-6)


def test_wilson_degenerate():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi < 0.35


# -- suite runner ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    tasks = [
        build_task(1, "class", "visible", 0, seed=2),
        build_task(1, "attribute", "visible", 0, seed=2),
        build_task(1, "attribute", "interactive", 0, seed=2),
        build_task(1, "commonsense", "commonsense", 0, seed=2),
    ]
    config = SuiteConfig(methods=("random", "sg_s", "tr_s", "star"), modes=("oracle",), seed=2)
    log = tmp_path_factory.mktemp("logs") / "episodes.jsonl"
    report = run_suite(tasks, config, log_path=str(log))
    return report, str(log), tasks, config


def test_suite_runs_all_episodes(small_report):
    report, _, tasks, config = small_report
    assert len(report.episodes) == len(tasks) * len(config.methods)


def test_suite_deterministic_across_runs(small_report):
    report, log_path, tasks, config = small_report
    report2 = run_suite(tasks, config)
    assert report.to_dict() == report2.to_dict()


def test_suite_parallel_matches_sequential(small_report, tmp_path):
    report, log_path, tasks, config = small_report
    import dataclasses

    par = dataclasses.replace(config, parallelism=2)
    log2 = tmp_path / "episodes2.jsonl"
    report2 = run_suite(tasks, par, log_path=str(log2))
    assert [e for e in report.episodes] == [e for e in report2.episodes]
    assert open(log_path, "rb").read() == open(log2, "rb").read()


def test_suite_output_is_frozen(tmp_path):
    """Golden digests of a small slice: one scene, both modes, every scripted
    method, and two 1300-ticks/day tasks whose episodes query whole-day
    windows. The digests were computed before the policies' trace view became
    incremental, and re-pinned when noise model v2 changed realistic captions
    (and realistic configs' lineage). The log digest was re-pinned when the
    policies' whole-day windows came to ask for one hit per run of records
    (the report's stayed), and again when hits lost their keyframe flag (the
    new log is the old one with each "keyframe" key taken out); any change
    to a decision, an outcome or the log format changes them."""
    tasks = [
        build_task(1, "spatial_temporal", "visible", 0, 0, 3, 200),
        build_task(1, "spatial_frequentist", "interactive", 0, 0, 3, 200),
        build_task(1, "commonsense", "commonsense", 0, 0, 3, 200),
        build_task(1, "spatial_frequentist", "visible", 0, 0, 3, 1300),
        build_task(1, "spatial_temporal", "interactive", 0, 0, 3, 1300),
    ]
    config = SuiteConfig(methods=("random", "sg_s", "tr_s", "star"), modes=("oracle", "realistic"), seed=0)
    log = tmp_path / "episodes.jsonl"
    report = run_suite(tasks, config, log_path=str(log))
    assert hashlib.sha256(log.read_bytes()).hexdigest() == (
        "7bc943b29b3eea2e8f469df2c701aeefdf13839b3e498544414db94a1e2602b9"
    )
    assert hashlib.sha256(canonical_dumps(report.to_dict()).encode()).hexdigest() == (
        "026641f6f3652e8cc35e0ecf47b6aac1266ff74902c7ac5b895702708ca04559"
    )


def test_generated_task_suites_are_frozen():
    """Golden digest of whole task files: the desk suite, the full-scale
    slice, a four-day suite on another seed, and every fixture kind at two
    seeds. Any change to a target, an instruction or a schedule move of any
    family and task type changes it."""
    suites = [
        generate_suite(per_family=3),
        generate_suite(per_family=1, ticks_per_day=1300),
        generate_suite(per_family=2, days=4, seed=5),
    ]
    suites += [build_fixture_suite(kind, seed=seed) for kind in FIXTURE_KINDS for seed in (0, 3)]
    digest = hashlib.sha256()
    for task in (task for suite in suites for task in suite):
        digest.update(canonical_dumps(task.to_dict()).encode() + b"\n")
    assert digest.hexdigest() == "8b1b19ffeb47fff469c71f203a131d2565000e57b9206a93901264afc05b9ca8"


def test_report_conservation(small_report):
    """Per-category means over successes times success count equals the summed
    counts in the raw episode records."""
    report, _, _, _ = small_report
    for key, stat in report.action_stats.items():
        t, method, mode = key.split("/")
        succ = [
            e for e in report.episodes
            if e["type"] == t and e["method"] == method and e["mode"] == mode and e["success"]
        ]
        if not succ:
            assert stat["mean_counts_successful"] == {}
            continue
        for cat in ("perception", "navigation", "manipulation", "temporal_query"):
            total = sum(e["action_counts"][cat] for e in succ)
            assert stat["mean_counts_successful"][cat] * len(succ) == pytest.approx(total)


def test_method_isolation_in_traces(small_report):
    """Random receives neither memory nor graphs; SG+S alone gets graphs;
    memory-backed retrieval appears only in TR+S and STAR traces."""
    report, log_path, _, _ = small_report
    import json

    current = None
    for line in open(log_path):
        rec = json.loads(line)
        if rec.get("event") == "episode_start":
            current = rec["method"]
        elif rec.get("event") == "step" and rec["action"]["tool"] in (
            "semantic_query", "temporal_query", "spatial_query", "fetch_raw"
        ):
            assert current in ("tr_s", "star"), f"{current} issued a temporal action"


def test_isolated_methods_get_empty_memory():
    """Even if random or sg_s issued a memory query, it would see an empty
    store."""
    task = build_task(1, "class", "visible", 0, seed=2)
    config = SuiteConfig(methods=("random",), modes=("oracle",), seed=2)
    memories, graphs, embedder, world = prepare_task(task, config)
    memory = memories["oracle"]
    from objsearch.memstore import LongTermMemory
    from objsearch.agent import ActionExecutor, default_registry, run_episode, PolicyDecision
    from objsearch.core import Action

    # Mirror the suite wiring for isolated methods.
    world = world.at(task.schedule, world.clock)
    empty = LongTermMemory(d=memory.d, ticks_per_day=memory.ticks_per_day)
    executor = ActionExecutor(empty, world, task.schedule, embedder)
    probe_hits = []

    def probing(text, h, remaining, schema):
        if not h.steps:
            return PolicyDecision(Action("semantic_query", {"query": "anything"}))
        probe_hits.append(h.steps[-1][1].payload["hits"])
        return None

    run_episode(task.instruction_full(), executor, probing, default_registry(world), budget=3)
    assert probe_hits == [[]]


def test_episodes_leave_the_prepared_world_as_it_was():
    """Each episode runs on its own copy of the patrolled world: a star
    episode that opens a receptacle and picks the target leaves the world it
    was given unchanged, and the next episode runs as on a fresh one."""
    task = build_task(1, "attribute", "interactive", 0, seed=7)
    config = SuiteConfig(methods=("star", "tr_s"), modes=("oracle",), seed=7)
    memories, graphs, embedder, world = prepare_task(task, config)
    memory = memories["oracle"]

    def state(w):
        return (w.to_dict(), dict(w.receptacle_open), list(w.inventory), list(w.applied_moves),
                w.robot_pose, w.robot_focus)

    before = state(world)
    star = run_task_episode(task, "star", config, memory, graphs, embedder, world)
    tools = [a.tool for a, _ in star.trace.steps]
    assert star.success and "open" in tools and "pick" in tools
    assert state(world) == before
    for method in config.methods:
        after = run_task_episode(task, method, config, memory, graphs, embedder, world)
        memories, *prepared = prepare_task(task, config)
        fresh = run_task_episode(task, method, config, memories["oracle"], *prepared)
        assert after.error is None and fresh.error is None, (after.error, fresh.error)
        assert after.trace == fresh.trace


def test_crash_containment(tmp_path):
    task = build_task(1, "class", "visible", 0, seed=2)
    config = SuiteConfig(methods=("llm",), modes=("oracle",), seed=2)
    # llm without endpoint config -> per-episode crash recorded, suite continues
    report = run_suite([task], config)
    assert len(report.episodes) == 1
    assert report.episodes[0]["termination"] == "crash"
    assert not report.episodes[0]["success"]
    assert "error" in report.episodes[0]


def test_llm_endpoint_is_in_the_lineage_hash():
    def cfg(**llm):
        return SuiteConfig(llm=LLMPolicyConfig(**llm) if llm else None)

    a = cfg(url="http://localhost:1/v1", model="m1")
    hashes = {
        c.config_hash()
        for c in (a, cfg(url="http://localhost:1/v1", model="m2"), cfg(url="http://localhost:2/v1", model="m1"))
    }
    assert len(hashes) == 3
    # Scripted configs carry no llm key, so their hashes are the same as before.
    assert "llm" not in cfg().to_dict()
    assert cfg().config_hash() == "020e6ebe9dc05e36"
    # Realistic configs gained the noise version and label pool (noise v2).
    assert SuiteConfig(modes=("oracle", "realistic"), seed=3).config_hash() == "7109f6f8d2b8f059"


def test_noise_model_is_in_the_lineage_hash():
    """The label pool and the noise version change realistic memories, so
    they are in a realistic config's lineage; an oracle-only config's dict
    is as it was."""
    realistic = SuiteConfig(modes=("realistic",))
    pool = SuiteConfig(modes=("realistic",), noise=NoiseModel(label_pool=("mug", "book")))
    assert realistic.config_hash() != pool.config_hash()
    assert realistic.to_dict()["noise"] == {
        "p_drop": 0.1, "p_mislabel": 0.1, "version": NOISE_VERSION, "label_pool": list(DEFAULT_LABEL_POOL),
    }
    assert SuiteConfig().to_dict()["noise"] == {"p_drop": 0.1, "p_mislabel": 0.1}
    oracle_pool = SuiteConfig(noise=NoiseModel(label_pool=("mug", "book")))
    assert oracle_pool.config_hash() == SuiteConfig().config_hash()


@pytest.mark.parametrize("field, value", [("budget", 0), ("budget", -1), ("parallelism", 0), ("parallelism", -3)])
def test_suite_config_refuses_budget_or_parallelism_below_one(field, value):
    """A config no suite can run is refused when made, rather than recording
    every episode as a crash (budget) or running serially under a
    parallelism written into the report (parallelism)."""
    with pytest.raises(ValueError, match=re.escape(f"{field} must be >= 1, got {value}")):
        SuiteConfig(**{field: value})
    assert getattr(SuiteConfig(**{field: 1}), field) == 1


@pytest.mark.parametrize("field", ["methods", "modes"])
def test_suite_config_refuses_no_method_or_no_mode(field):
    """A suite that would run no episode is refused when made, rather than
    patrolling and building every task for a report of zero episodes."""
    with pytest.raises(ValueError, match=f"no {field[:-1]} given"):
        SuiteConfig(**{field: ()})


def test_suite_patrols_once_per_task(monkeypatch):
    """The unit of work is the task: one prepare_task call per task, with
    one scene world (no ambient schedule drawn), one patrol and one set of
    day graphs, and one memory per (task, mode). Episodes run through
    run_task_episode, on copies of the patrolled world, over the memory of
    their own mode, and generate none; a memory-blind method's episode runs
    in the first mode only.
    Calls are counted at the globals of the module that makes them, where a
    tracer wraps them: day_graphs exports the graphs."""
    from objsearch.bench import suite
    from objsearch.homesim import scenegraph

    calls = {"scene_world": 0, "patrol": 0, "day_graphs": 0, "export_scene_graph": 0, "build": 0,
             "prepare_task": 0, "run_task_episode": 0}
    memory_modes = []

    def counting(name):
        module = scenegraph if name == "export_scene_graph" else suite
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "run_task_episode":
                task, method, _, memory = args[:4]
                memory_modes.append((task.task_id, memory.mode, method))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in calls:
        counting(name)
    tasks = [build_task(1, "class", "visible", 0, seed=2), build_task(2, "attribute", "visible", 0, seed=2)]
    config = SuiteConfig(methods=("random", "star"), modes=("oracle", "realistic"), seed=2)
    report = run_suite(tasks, config)
    assert calls == {
        "scene_world": 2,
        "patrol": 2,
        "day_graphs": 2,
        "export_scene_graph": sum(t.days for t in tasks),
        "build": 4,
        "prepare_task": 2,
        "run_task_episode": 6,
    }
    expected = [(t.task_id, mode, method) for t in tasks for mode in config.modes for method in config.methods]
    assert [(e["task_id"], e["mode"], e["method"]) for e in report.episodes] == expected
    assert memory_modes == [(task_id, mode, method) for task_id, mode, method in expected
                            if not (mode == "realistic" and method == "random")]


def episode_chunks(log_text):
    """The lines of an episode log split into episodes: (task_id, mode,
    method) and the episode's lines, episode_start to episode_end."""
    chunks = []
    for line in log_text.splitlines():
        event = json.loads(line)
        if event["event"] == "episode_start":
            chunks.append(((event["task_id"], event["mode"], event["method"]), []))
        chunks[-1][1].append(line)
    return chunks


def test_memory_blind_episodes_do_not_depend_on_the_mode():
    """The premise of sharing a memory-blind episode between modes: over the
    oracle and the realistic memory of each task of a one-scene desk slice,
    run_task_episode gives equal results and writes equal step lines."""
    from objsearch.bench.suite import MEMORY_BLIND, _step_line

    config = SuiteConfig(methods=MEMORY_BLIND, modes=("oracle", "realistic"))
    steps = 0
    for task in generate_suite(scenes=(1,), per_family=1):
        memories, graphs, embedder, world = prepare_task(task, config)
        for method in MEMORY_BLIND:
            runs = []
            for memory in memories.values():
                lines = []
                result = run_task_episode(task, method, config, memory, graphs, embedder, world,
                                          lambda *step: lines.append(_step_line(*step).encode()))
                assert result.error is None, (task.task_id, method, result.error)
                runs.append(((result.success, result.steps_used, result.action_counts, result.termination,
                              result.error, canonical_dumps(result.trace.to_dict())), lines))
            assert runs[0] == runs[1], (task.task_id, method)
            steps += len(runs[0][1])
    assert steps > 0


def test_a_crashing_memory_blind_episode_is_logged_under_each_mode(monkeypatch, tmp_path):
    """A memory-blind policy that raises after its first step runs once and
    gives a crash record per mode, with the same error and step counts, and
    an episode_start ... episode_end run of lines per mode holding the same
    step line."""
    from objsearch.bench import suite

    make_policy, made = suite.make_policy, []

    def failing(method, task, config, scene_graphs=None):
        policy, calls = make_policy(method, task, config, scene_graphs=scene_graphs), []
        made.append(method)

        def decide(*args):
            calls.append(1)
            if len(calls) > 1:
                raise RuntimeError("policy fault")
            return policy(*args)
        return decide

    monkeypatch.setattr(suite, "make_policy", failing)
    tasks = [build_task(1, "class", "visible", 0, seed=2)]
    log = tmp_path / "episodes.jsonl"
    report = run_suite(tasks, SuiteConfig(methods=("random",), modes=("oracle", "realistic")), log_path=str(log))
    assert made == ["random"]
    assert [(e["mode"], e["termination"], e["error"], e["steps_used"]) for e in report.episodes] == [
        (mode, "crash", "RuntimeError: policy fault", 1) for mode in ("oracle", "realistic")
    ]
    assert report.episodes[0]["action_counts"] == report.episodes[1]["action_counts"]
    assert report.episodes[0]["action_counts"] is not report.episodes[1]["action_counts"]
    chunks = episode_chunks(log.read_text())
    assert [key for key, _ in chunks] == [(tasks[0].task_id, mode, "random") for mode in ("oracle", "realistic")]
    for _, lines in chunks:
        events = [json.loads(line)["event"] for line in lines]
        assert events == ["episode_start", "step", "episode_end"]
        assert json.loads(lines[-1])["termination"] == "crash"
    assert chunks[0][1][1] == chunks[1][1][1]


def test_two_mode_suite_interleaves_its_single_mode_runs(tmp_path):
    """A suite over modes ("realistic", "oracle") gives, task by task, the
    records and episode lines of a realistic-only run and then those of an
    oracle-only run; episode_start lines differ only in the config hash of
    the suite that wrote them."""
    tasks = generate_suite(scenes=(1,), per_family=1)[::3]
    runs = {}
    for modes in (("realistic", "oracle"), ("realistic",), ("oracle",)):
        log = tmp_path / f"{'-'.join(modes)}.jsonl"
        runs[modes] = run_suite(tasks, SuiteConfig(modes=modes), log_path=str(log)), episode_chunks(log.read_text())
    both, both_chunks = runs[("realistic", "oracle")]
    expected_records, expected_lines = [], []
    for task in tasks:
        for mode in ("realistic", "oracle"):
            report, chunks = runs[(mode,)]
            expected_records += [e for e in report.episodes if e["task_id"] == task.task_id]
            for (task_id, _, _), lines in chunks:
                if task_id == task.task_id:
                    header = {**json.loads(lines[0]), "config_hash": both.config_hash}
                    expected_lines += [canonical_dumps(header), *lines[1:]]
    assert both.episodes == expected_records
    assert [line for _, lines in both_chunks for line in lines] == expected_lines


@pytest.mark.parametrize("parallelism,methods", [(1, ("random", "llm")), (2, ("random", "star"))])
def test_llm_config_hash_reaches_every_log_header(monkeypatch, tmp_path, parallelism, methods):
    """Workers get the config object itself, so a config with an llm endpoint
    (non-default timeout and retries included) logs the suite's own hash."""
    from objsearch.agent import ChatCompletionPolicy
    from objsearch.bench import suite
    from objsearch.embed import TransportError

    def unreachable(url, payload, timeout):
        raise TransportError(f"no endpoint at {url}")

    monkeypatch.setattr(suite, "ChatCompletionPolicy", lambda cfg: ChatCompletionPolicy(cfg, post=unreachable))
    llm = LLMPolicyConfig(url="http://localhost:1/v1", model="m1", timeout=2.5, transport_retries=0)
    config = SuiteConfig(methods=methods, modes=("oracle",), seed=2, parallelism=parallelism, llm=llm)
    tasks = [build_task(1, "class", "visible", 0, seed=2), build_task(2, "class", "visible", 0, seed=2)]
    log = tmp_path / "episodes.jsonl"
    report = run_suite(tasks, config, log_path=str(log))
    headers = [r for r in map(json.loads, log.read_text().splitlines()) if r["event"] == "episode_start"]
    assert len(headers) == len(tasks) * len(methods)
    assert {h["config_hash"] for h in headers} == {config.config_hash()}
    assert report.config_hash == config.config_hash()
    assert all(e["termination"] != "crash" for e in report.episodes)


# -- fixture suites ---------------------------------------------------------------------------


def test_fixture_suites_have_requested_sizes():
    for kind in ("unmoved_visible", "moved_spatial_temporal", "twin_interactive", "commonsense"):
        tasks = build_fixture_suite(kind, n=20, seed=0)
        assert len(tasks) == 20
        for t in tasks:
            check_family_hazard(t)


def test_fixture_kind_validation():
    with pytest.raises(ValueError):
        build_fixture_suite("bogus", n=5)


@pytest.mark.parametrize("fault", ["policy", "step_line"])
def test_crash_record_keeps_the_steps_that_ran(monkeypatch, tmp_path, fault):
    """A policy that raises on its 3rd decision, or a step line that cannot
    be written for the 3rd step: the 2 logged steps stay in the crash record
    and in episode_end, and no unlogged step is counted."""
    from objsearch.agent import classify_action, default_registry
    from objsearch.bench import suite
    from objsearch.core import Action

    real = suite.make_policy

    def flaky(method, task, config, scene_graphs=None):
        policy = real(method, task, config, scene_graphs=scene_graphs)
        decisions = []

        def decide(*args):
            decisions.append(None)
            if len(decisions) == 3:
                raise RuntimeError("third decision")
            return policy(*args)

        return decide

    real_line = suite._step_line

    def unwritable(step, *rest):
        if step == 3:
            raise RuntimeError("third decision")
        return real_line(step, *rest)

    if fault == "policy":
        monkeypatch.setattr(suite, "make_policy", flaky)
    else:
        monkeypatch.setattr(suite, "_step_line", unwritable)
    task = build_task(1, "class", "visible", 0, seed=2)
    config = SuiteConfig(methods=("star", "random"), modes=("oracle",), seed=2)
    log = tmp_path / "episodes.jsonl"
    report = run_suite([task], config, log_path=str(log))
    events = [json.loads(line) for line in log.read_text().splitlines()]
    registry = default_registry()
    for episode in report.episodes:
        assert episode["termination"] == "crash" and not episode["success"]
        assert episode["error"] == "RuntimeError: third decision"
        assert "adjudication_mismatch" not in episode
        mine = []
        for e in events:
            if e["event"] == "episode_start":
                current = e["method"]
            elif e["event"] == "step" and current == episode["method"]:
                mine.append(e)
        assert episode["steps_used"] == 2 == len(mine)
        counts = {c: 0 for c in episode["action_counts"]}
        for e in mine:
            counts[classify_action(Action.from_dict(e["action"]), registry)] += 1
        assert episode["action_counts"] == counts
        [end] = [e for e in events if e["event"] == "episode_end" and e["method"] == episode["method"]]
        assert (end["steps_used"], end["action_counts"], end["termination"]) == (2, counts, "crash")


def test_render_report_counts_terminations():
    from objsearch.bench import SuiteReport, render_report
    from objsearch.bench.suite import _aggregate

    def episode(method, termination, **extra):
        return {"task_id": "x", "family": "class", "type": "visible", "method": method, "mode": "oracle",
                "success": termination == "retrieved", "steps_used": 3, "termination": termination,
                "action_counts": {"temporal_query": 1, "perception": 1, "navigation": 1, "manipulation": 0},
                "optimal_counts": {"perception": 1, "navigation": 1, "manipulation": 1}, **extra}

    episodes = [
        episode("star", "retrieved"),
        episode("star", "retrieved", adjudication_mismatch=True),
        episode("star", "crash", error="RuntimeError: boom"),
        episode("random", "budget_exhausted"),
        episode("random", "policy_abort"),
    ]
    rates, stats = _aggregate(episodes)
    report = SuiteReport(config={}, config_hash="h", episodes=episodes, success_rates=rates, action_stats=stats)
    before = json.dumps(report.to_dict(), sort_keys=True)
    text = render_report(report)
    assert json.dumps(report.to_dict(), sort_keys=True) == before
    table = text.split("== episode terminations ==\n")[1].splitlines()
    assert table[0].split() == ["Type", "Method", "Mode", "Retrieved", "Budget", "Abort", "Crash", "Mismatch"]
    assert [row.split() for row in table[1:]] == [
        ["visible", "Random", "oracle", "0", "1", "1", "0", "0"],
        ["visible", "STAR", "oracle", "2", "0", "0", "1", "1"],
    ]
