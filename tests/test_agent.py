"""Decision loop, unified action space accounting, and scripted policies."""

import dataclasses
import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objsearch.agent import (
    R_MAX,
    ActionExecutor,
    ChatCompletionPolicy,
    LLMPolicyConfig,
    PolicyDecision,
    RandomSearchPolicy,
    SgPlusSPolicy,
    build_request,
    classify_action,
    default_registry,
    encode_request,
    outcome_json,
    run_episode,
)
from conftest import no_crash, spec_batch
from objsearch.agent.registry import record_views
from objsearch.agent.policies import (
    ATTRIBUTE_VOCAB,
    CaptionEntity,
    HitMatch,
    StarScriptedPolicy,
    TraceView,
    TrPlusSPolicy,
    parse_caption,
    parse_instruction,
    trace_view,
)
from objsearch.bench import (
    FIXTURE_KINDS,
    SuiteConfig,
    build_fixture_suite,
    build_task,
    default_prior_table,
    generate_suite,
    prepare_task,
    run_task_episode,
)
from objsearch.bench.suite import _step_line
from objsearch.core import (
    CONTAINMENTS,
    CONTAINMENT_INSIDE_OPEN,
    Action,
    Hits,
    Instruction,
    Outcome,
    Pose,
    SymbolicObservation,
    VisibleEntity,
    WorkingMemory,
    canonical_dumps,
    render_caption,
    validate_action,
)
from objsearch.embed import Embedder, EmbedderConfig
from objsearch.homesim import (
    Landmark,
    Location,
    Room,
    Schedule,
    WorldObject,
    WorldState,
    generate_world,
)
from objsearch.memstore import DEFAULT_TOP_R, Batch, LongTermMemory, QueryResult, build
from objsearch.homesim import patrol


# Episodes the tests below expect to end without a crash.
run_episode_ok = no_crash(run_episode)
run_task_episode_ok = no_crash(run_task_episode)

EMB = Embedder(EmbedderConfig(d=64))  # small embedder for plumbing-level tests
CONFIG = SuiteConfig(methods=("random", "sg_s", "tr_s", "star"), modes=("oracle",), seed=7)


def tiny_world(n_landmarks=1):
    """Single-room world with one mug in the open."""
    rooms = [Room("den", (0, 0, 10, 10))]
    landmarks = [
        Landmark(f"spot_{i}", f"spot {i}", "den", (1.0 + i, 1.0)) for i in range(n_landmarks)
    ]
    objects = [WorldObject("mug_1", "mug", ("red",), Location("landmark", "spot_0"))]
    return WorldState(1, 0, rooms, landmarks, objects, ticks_per_day=50)


def executor_for(world, memory=None):
    mem = memory or LongTermMemory(d=64, ticks_per_day=world.ticks_per_day)
    return ActionExecutor(mem, world, Schedule(seed=0), EMB)


def standard_setup(scene=1, family="attribute", ttype="visible", idx=0):
    task = build_task(scene, family, ttype, idx, seed=7)
    memories, graphs, embedder, world = prepare_task(task, CONFIG)
    memory = memories["oracle"]
    return task, memory, graphs, embedder, world


# -- parsing helpers -------------------------------------------------------------


def test_parse_instruction_families():
    p = parse_instruction("find the green folder")
    assert (p.class_label, p.attributes, p.landmark_phrase, p.day_ref) == ("folder", ("green",), None, None)
    p = parse_instruction("find the mug on the kitchen counter")
    assert (p.class_label, p.landmark_phrase, p.day_ref) == ("mug", "kitchen counter", None)
    p = parse_instruction("find the mug that was on the sink yesterday")
    assert (p.landmark_phrase, p.day_ref) == ("sink", "yesterday")
    p = parse_instruction("find the book that was by the bookshelf")
    assert (p.landmark_phrase, p.day_ref) == ("bookshelf", "past")
    p = parse_instruction("find the green folder that is usually by the study desk")
    assert (p.attributes, p.landmark_phrase, p.day_ref) == (("green",), "study desk", "usually")
    p = parse_instruction("bring me the milk")
    assert (p.class_label, p.day_ref) == ("milk", None)


def test_memoized_parse_instruction_equals_the_unmemoized_parse():
    """parse_instruction is memoized; its result, a frozen ParsedInstruction,
    equals the plain parse of every instruction a generated or fixture suite
    holds, on a first call and on a repeat."""
    suites = [generate_suite(per_family=3), *(build_fixture_suite(kind) for kind in FIXTURE_KINDS)]
    for text in {task.instruction for suite in suites for task in suite}:
        for _ in range(2):
            assert parse_instruction(text) == parse_instruction.__wrapped__(text)
    with pytest.raises(dataclasses.FrozenInstanceError):
        parse_instruction("find the mug").class_label = "plate"


def test_parse_caption_inverts_template():
    ents = parse_caption("a green folder on the study desk; a red mug inside the white cabinet")
    assert ents[0].class_label == "folder" and ents[0].attributes == ("green",)
    assert ents[0].landmark_name == "study desk" and not ents[0].contained
    assert ents[1].contained and ents[1].landmark_name == "white cabinet"
    assert parse_caption("nothing notable") == ()


_WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)


@st.composite
def caption_entities(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    return [
        VisibleEntity(
            entity_id=f"e{i}",
            class_label=draw(_WORDS),
            attributes=tuple(draw(st.lists(st.sampled_from(sorted(ATTRIBUTE_VOCAB)), max_size=3))),
            landmark_id=f"lm{i}",
            containment=draw(st.sampled_from(CONTAINMENTS)),
            landmark_name=" ".join(draw(st.lists(_WORDS, min_size=1, max_size=3))),
        )
        for i in range(n)
    ]


@given(caption_entities())
def test_parse_caption_round_trips_render_caption(ents):
    caption = render_caption(ents)
    expected = tuple(
        CaptionEntity(e.class_label, e.attributes, e.landmark_name, e.containment == CONTAINMENT_INSIDE_OPEN)
        for e in ents
    )
    assert parse_caption(caption) == expected


# -- loop: budget, accounting, locality -------------------------------------------


def test_update_working_memory_order():
    h = WorkingMemory.fresh(Instruction(text="x"), budget=5)
    actions = [Action("detect"), Action("navigate", {"landmark": "a"}), Action("detect")]
    for i, a in enumerate(actions):
        h = h.append(a, Outcome("perception", {"k": i}))
    assert [a.tool for a, _ in h.steps] == ["detect", "navigate", "detect"]
    assert [o.payload["k"] for _, o in h.steps] == [0, 1, 2]


def test_immediate_pick_success():
    world = tiny_world()
    registry = default_registry(world)

    def grabber(text, h, remaining, schema):
        return PolicyDecision(Action("pick", {"entity": "mug_1"}))

    result = run_episode_ok(
        Instruction(text="find the red mug"), executor_for(world), grabber, registry,
        budget=20, target_entity="mug_1",
    )
    assert result.success and result.steps_used == 1
    assert result.termination == "retrieved"


def test_wrong_pick_does_not_end_episode():
    """A successful pick of the wrong object keeps the episode going; the
    agent can notice and still retrieve the real target."""
    world = tiny_world(n_landmarks=1)
    world.objects["decoy_1"] = __import__("objsearch.homesim", fromlist=["WorldObject"]).WorldObject(
        "decoy_1", "mug", ("blue",), Location("landmark", "spot_0")
    )
    registry = default_registry(world)
    plan = iter([
        Action("pick", {"entity": "decoy_1"}),
        Action("pick", {"entity": "mug_1"}),
    ])

    def scripted(text, h, remaining, schema):
        return PolicyDecision(next(plan))

    result = run_episode_ok("find the red mug", executor_for(world), scripted, registry,
                            budget=20, target_entity="mug_1")
    assert result.success and result.steps_used == 2
    assert result.trace.steps[0][1].payload["success"]  # wrong pick succeeded at skill level


def test_budget_exhaustion_on_pure_queries():
    world = tiny_world()
    registry = default_registry(world)

    def querier(text, h, remaining, schema):
        return PolicyDecision(Action("semantic_query", {"query": "mug"}))

    result = run_episode_ok("find the mug", executor_for(world), querier, registry,
                            budget=20, target_entity="mug_1")
    assert not result.success
    assert result.steps_used == 20
    assert result.termination == "budget_exhausted"
    assert result.action_counts["temporal_query"] == 20


def test_invalid_actions_consume_budget_and_feed_back():
    world = tiny_world()
    registry = default_registry(world)
    seen_feedback = []

    def confused(text, h, remaining, schema):
        if h.steps:
            seen_feedback.append(h.steps[-1][1].payload)
        return PolicyDecision(Action("navigate", {"bogus": 1}))

    result = run_episode_ok("find the mug", executor_for(world), confused, registry, budget=5)
    assert result.steps_used == 5
    assert result.termination == "budget_exhausted"
    assert all(p["reason"] == "schema_error" for p in seen_feedback)
    assert all("errors" in p for p in seen_feedback)


def test_policy_abort_termination():
    world = tiny_world()
    registry = default_registry(world)
    result = run_episode_ok("find the mug", executor_for(world), lambda *a: None, registry, budget=5)
    assert result.termination == "policy_abort"
    assert result.steps_used == 0 and not result.success


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_raising_policy_ends_the_episode_as_its_abort_would(data):
    """A policy that raises at its k-th decision ends the episode as a crash
    with the trace, steps and action counts of the same policy returning None
    there; only the termination and the error differ."""
    executor = shared_patrolled_executor()
    registry = default_registry(executor.world)
    budget = data.draw(st.integers(1, 8))
    actions = data.draw(st.lists(query_and_skill_actions(executor.world), min_size=budget, max_size=budget))
    k = data.draw(st.integers(1, budget))

    def fault():
        raise RuntimeError(f"decision {k}")

    def run(at_k):
        decisions = []

        def scripted(text, h, remaining, schema):
            decisions.append(None)
            return at_k() if len(decisions) == k else PolicyDecision(actions[len(decisions) - 1])

        # Each run acts in its own copy of the world, as a suite episode does.
        world = executor.world.at(executor.schedule, executor.world.clock)
        return run_episode("find the mug", ActionExecutor(executor.memory, world, executor.schedule, EMB),
                           scripted, registry, budget=budget)

    crashed, aborted = run(fault), run(lambda: None)
    assert (crashed.termination, crashed.error) == ("crash", f"RuntimeError: decision {k}")
    assert (aborted.termination, aborted.error) == ("policy_abort", None)
    assert crashed.trace == aborted.trace and len(crashed.trace.steps) == k - 1
    assert crashed.steps_used == aborted.steps_used == k - 1
    assert crashed.action_counts == aborted.action_counts
    assert not crashed.success and not aborted.success


@pytest.mark.parametrize("where", ["executor", "step_callback"])
def test_a_raising_executor_or_step_callback_ends_the_episode_as_a_crash(where):
    """The third step raises, in the executor or in the step callback. The
    loop calls the callback before it commits a step, so either way the
    third step is not counted: the result holds the 2 steps that ran."""
    world = tiny_world()
    executor = executor_for(world)
    calls = []

    def raise_at_third(*args):
        calls.append(None)
        if len(calls) == 3:
            raise KeyError("third")

    if where == "executor":
        execute = executor.execute
        executor.execute = lambda action: raise_at_third() or execute(action)
    querier = lambda *a: PolicyDecision(Action("semantic_query", {"query": "mug"}))  # noqa: E731
    result = run_episode("find the mug", executor, querier, default_registry(world), budget=5,
                         step_callback=raise_at_third if where == "step_callback" else None)
    assert (result.termination, result.error, result.success) == ("crash", "KeyError: 'third'", False)
    assert result.steps_used == len(result.trace.steps) == 2
    assert result.action_counts["temporal_query"] == 2


def test_action_counts_sum_to_steps():
    task, memory, graphs, embedder, world = standard_setup()
    for method in ("random", "sg_s", "tr_s", "star"):
        r = run_task_episode_ok(task, method, CONFIG, memory, graphs, embedder, world)
        assert sum(r.action_counts.values()) == r.steps_used


def test_classification_covers_all_tools():
    world = tiny_world()
    registry = default_registry(world)
    expected = {
        "semantic_query": "temporal_query",
        "temporal_query": "temporal_query",
        "spatial_query": "temporal_query",
        "fetch_raw": "temporal_query",
        "navigate": "navigation",
        "detect": "perception",
        "open": "manipulation",
        "pick": "manipulation",
    }
    for tool, category in expected.items():
        assert classify_action(Action(tool, {}), registry) == category
    assert classify_action(Action("martian_scan", {}), registry) == "perception"


def test_policy_sees_only_redacted_views():
    """The policy interface carries text, working memory, budget, and schema;
    benchmark annotations and engine handles stay invisible."""
    world = tiny_world()
    registry = default_registry(world)
    observed = {}

    def probe(text, h, remaining, schema):
        observed["args"] = (text, h, remaining, schema)
        return None

    instr = Instruction(text="find the mug", family="class", type="visible")
    run_episode_ok(instr, executor_for(world), probe, registry, budget=3)
    text, h, remaining, schema = observed["args"]
    assert text == "find the mug"
    assert isinstance(h, WorkingMemory)
    assert h.instruction.family is None and h.instruction.type is None
    assert remaining == 3
    assert set(schema) == {"version", "tools", "landmarks", "rooms"}
    with pytest.raises(Exception):
        h.steps.append(("x", "y"))  # trace is immutable


def test_mid_episode_schedule_move():
    """The world keeps evolving while the agent acts."""
    world = tiny_world(n_landmarks=3)
    start = world.clock
    schedule = Schedule(seed=0, moves=(
        # Fires after two executed actions.
        __import__("objsearch.homesim", fromlist=["Move"]).Move(
            0, start + 2, "mug_1", Location("landmark", "spot_2")
        ),
    ))
    executor = ActionExecutor(LongTermMemory(d=64, ticks_per_day=50), world, schedule, EMB)
    registry = default_registry(world)
    plan = iter([
        Action("detect", {}),
        Action("detect", {}),
        Action("detect", {}),
    ])

    detections = []

    def scripted(text, h, remaining, schema):
        return PolicyDecision(next(plan))

    result = run_episode_ok("find the mug", executor, scripted, registry, budget=3)
    for _, outcome in result.trace.steps:
        detections.append({e["entity_id"]: e["landmark_id"] for e in outcome.payload["entities"]})
    assert detections[0]["mug_1"] == "spot_0"
    assert detections[-1]["mug_1"] == "spot_2"


# -- retrieval outcomes feed later actions ------------------------------------------


def test_retrieval_indices_survive_for_fetch_raw():
    world, schedule = generate_world(7, 1)
    stream = patrol(world, schedule, days=3)
    memory = build(stream, EMB, ticks_per_day=200)
    executor = ActionExecutor(memory, world, schedule, EMB)
    registry = default_registry(world)

    out1 = executor.execute(Action("semantic_query", {"query": "green folder", "r": 5}))
    idx = out1.payload["hits"][0]["record_index"]
    out2 = executor.execute(Action("fetch_raw", {"record_index": idx}))
    rec = out2.payload["record"]
    assert rec["record_index"] == idx
    assert rec["caption"] == out1.payload["hits"][0]["caption"]
    assert rec["entities"], "raw entities exposed for re-inspection"
    # The fetched record is the record's hit view, without a score and with
    # its raw entities.
    hit = {k: v for k, v in out1.payload["hits"][0].items() if k != "score"}
    entities = [e.to_dict() for e in memory.fetch_raw(idx).visible_entities]
    assert rec == {**hit, "entities": entities}


def test_fetch_raw_out_of_range_is_outcome_not_crash():
    world = tiny_world()
    executor = executor_for(world)
    out = executor.execute(Action("fetch_raw", {"record_index": 99}))
    assert out.kind == "retrieval" and "error" in out.payload


def patrolled_executor():
    world, schedule = generate_world(7, 1)
    memory = build(patrol(world, schedule, days=3), EMB, ticks_per_day=200)
    return ActionExecutor(memory, world, schedule, EMB)


# Arguments outside the registry's bounds, each with the argument named and
# whether the memory, asked directly, refuses it too.
_OUT_OF_BOUNDS = [
    (Action("semantic_query", {"query": "green folder", "r": 0}), "r", True),
    (Action("semantic_query", {"query": "green folder", "r": R_MAX + 1}), "r", False),
    (Action("temporal_query", {"timestep": 10, "r": 0}), "r", True),
    (Action("temporal_query", {"timestep": 2**63}), "timestep", False),
    (Action("temporal_query", {"day_start": -2**63 - 1, "day_end": 0}), "day_start", False),
    (Action("temporal_query", {"day_start": 0, "day_end": 2**63}), "day_end", False),
    (Action("temporal_query", {"day_start": 0, "day_end": 0, "per": "hour"}), "per", True),
    (Action("temporal_query", {"timestep": 10, "per": "run"}), "per", True),
    (Action("spatial_query", {"x": 1.0, "y": 1.0, "radius": 2.0, "r": 0}), "r", True),
    (Action("spatial_query", {"x": math.nan, "y": 1.0, "radius": 2.0}), "x", True),
    (Action("spatial_query", {"x": 1.0, "y": math.nan, "radius": 2.0}), "y", True),
    (Action("spatial_query", {"x": 1.0, "y": -math.inf, "radius": 2.0}), "y", True),
    (Action("spatial_query", {"x": 10**400, "y": 1.0, "radius": 2.0}), "x", True),
    (Action("spatial_query", {"x": 1.0, "y": 1.0, "radius": math.nan}), "radius", True),
    (Action("spatial_query", {"x": 1.0, "y": 1.0, "radius": math.inf}), "radius", True),
    (Action("spatial_query", {"x": 1.0, "y": 1.0, "radius": 0.0}), "radius", True),
    (Action("spatial_query", {"x": 1.0, "y": 1.0, "radius": -1}), "radius", True),
    (Action("fetch_raw", {"record_index": -2**63 - 1}), "record_index", True),
]


def _action_id(action):
    return f"{action.tool}-{sorted(action.args.items())}"


@pytest.mark.parametrize(
    "action",
    [Action("semantic_query", {"query": "!!!"})] + [a for a, _, refused in _OUT_OF_BOUNDS if refused],
    ids=_action_id,
)
def test_bad_query_arguments_are_error_outcomes(action):
    """A query the memory cannot answer gets the error outcome, never an
    exception: a schema-valid one, and out-of-bounds ones that skip
    validate_action."""
    executor = patrolled_executor()
    out = executor.execute(action)
    assert out.kind == "retrieval"
    assert out.payload["hits"] == [] and out.payload["error"]


@pytest.mark.parametrize("action, name", [(a, name) for a, name, _ in _OUT_OF_BOUNDS],
                         ids=[_action_id(a) for a, _, _ in _OUT_OF_BOUNDS])
def test_out_of_bounds_arguments_are_schema_errors(action, name):
    errors = validate_action(action, default_registry())
    assert errors and all(e.startswith(f"{name}: ") for e in errors), errors


@pytest.mark.parametrize("action", [
    Action("semantic_query", {"query": "!!!", "r": R_MAX}),
    Action("temporal_query", {"timestep": 2**63 - 1, "r": 1}),
    Action("temporal_query", {"day_start": -2**63, "day_end": 2**63 - 1, "per": "run"}),
    Action("temporal_query", {"day_start": 0, "day_end": 0, "per": "record"}),
    Action("spatial_query", {"x": -1e308, "y": 2, "radius": 5e-324}),
    Action("fetch_raw", {"record_index": 2**63 - 1}),
], ids=_action_id)
def test_arguments_at_their_bounds_are_valid(action):
    assert validate_action(action, default_registry()) == []


def test_unbounded_r_is_a_schema_error_not_a_whole_memory():
    """On the 3,900-record memory of a full-scale task, spatial_query with a
    radius around the world and r 10**9 once answered with every record (a
    984,132 B outcome). It is now schema_error feedback, and the memory is
    not queried."""
    task = generate_suite(scenes=(1,), per_family=1, ticks_per_day=1300)[0]
    memories, _, embedder, world = prepare_task(task, CONFIG)
    memory = memories["oracle"]
    assert len(memory.query_spatial((0, 0), 1e9, r=10**9)) == len(memory) == 3900
    action = Action("spatial_query", {"x": 0, "y": 0, "radius": 1e9, "r": 10**9})
    executor = ActionExecutor(memory, world, task.schedule, embedder)

    def policy(text, h, remaining, schema):
        return PolicyDecision(action) if not h.steps else None

    result = run_episode_ok("find the mug", executor, policy, default_registry(world), budget=3)
    [(_, outcome)] = result.trace.steps
    assert outcome.payload == {"success": False, "reason": "schema_error", "errors": [f"r: must be <= {R_MAX}"]}
    assert len(outcome_json(outcome)) < 200


# Ints past every fixed width and floats that are no finite number: the
# executor must still answer with an outcome.
_ANY_INT = st.integers() | st.sampled_from([10**30, -10**30, 2**63, 2**64])
_ANY_FLOAT = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 10**30, 10**400, -10**400])


def _with_r(draw, args):
    if draw(st.booleans()):
        args["r"] = draw(_ANY_INT)
    return args


def _with_per(draw, args):
    if draw(st.booleans()):
        args["per"] = draw(st.sampled_from(["record", "run"]) | st.text(max_size=4))
    return args


@st.composite
def query_and_skill_actions(draw, world):
    """Actions of every tool with arguments of the declared kinds and of any
    size, in the registry's bounds or not."""
    tool = draw(st.sampled_from(sorted(t.name for t in default_registry(world).tools)))
    if tool == "semantic_query":
        args = _with_r(draw, {"query": draw(st.text())})
    elif tool == "temporal_query":
        if draw(st.booleans()):
            args = _with_r(draw, {"timestep": draw(_ANY_INT)})
        else:
            args = _with_r(draw, {"day_start": draw(_ANY_INT), "day_end": draw(_ANY_INT)})
        args = _with_per(draw, args)
    elif tool == "spatial_query":
        args = _with_r(draw, {"x": draw(_ANY_FLOAT), "y": draw(_ANY_FLOAT), "radius": draw(_ANY_FLOAT)})
    elif tool == "fetch_raw":
        args = {"record_index": draw(_ANY_INT)}
    elif tool == "navigate":
        args = {"landmark": draw(st.sampled_from(sorted(world.landmarks)))}
    elif tool == "open":
        args = {"receptacle": draw(st.sampled_from(sorted(world.receptacle_open)))}
    elif tool == "pick":
        args = {"entity": draw(st.text())}
    else:
        args = {}
    return Action(tool, args)


def _finite(v):
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


_IN_INT64 = lambda v: -2**63 <= v < 2**63  # noqa: E731
_BOUNDS = {
    "r": lambda v: 1 <= v <= R_MAX,
    "timestep": _IN_INT64, "day_start": _IN_INT64, "day_end": _IN_INT64, "record_index": _IN_INT64,
    "x": _finite, "y": _finite, "radius": lambda v: _finite(v) and v > 0,
    "per": lambda v: v in ("record", "run"),
}


def in_bounds(action):
    """The registry's bounds, restated: each argument's, and per only in a
    temporal_query's window form."""
    args = action.args
    if "timestep" in args and "per" in args:
        return False
    return all(_BOUNDS.get(k, lambda v: True)(v) for k, v in args.items())


@functools.lru_cache(maxsize=1)
def shared_patrolled_executor():
    return patrolled_executor()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_executor_is_total_over_schema_valid_actions(data):
    """validate_action accepts an action of the declared kinds exactly when
    its arguments are in the registry's bounds. Every such action of all 8
    tools gets an outcome of its tool's kind, and so does every other one
    given to the executor directly: none raises, whatever its numbers or
    text."""
    executor = shared_patrolled_executor()
    registry = default_registry(executor.world)
    action = data.draw(query_and_skill_actions(executor.world))
    assert (validate_action(action, registry) == []) == in_bounds(action)
    out = executor.execute(action)
    assert out.kind == registry.get(action.tool).output_kind
    if "error" in out.payload:
        assert out.payload["hits"] == [] and isinstance(out.payload["error"], str)


# -- outcome encoding -------------------------------------------------------------------

# Texts a JSON encoder must escape: quotes, backslashes, control characters,
# non-ASCII and the line separators JSON allows raw but ASCII output escapes.
_TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\b\n\u2028\u2029\xe9\u6f22\U0001f642 a') | st.characters(), max_size=8)
# Both zeros (equal and hashing alike), the smallest subnormal, the largest
# magnitudes and any other finite float.
_POSITION = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5]) | st.floats(allow_nan=False, allow_infinity=False)
# 0-2 entities of distinct ids, with escaped texts.
_ENTITIES = st.lists(st.builds(lambda k, label: VisibleEntity(f"e{k}", label, (label,), "desk"), st.integers(0, 2), _TEXT),
                     max_size=2, unique_by=lambda entity: entity.entity_id)


@st.composite
def hit_memories(draw):
    """A memory of 1-12 records over drawn captions, rooms and positions,
    each caption's raw holding drawn entities and its embedding a drawn row
    of the 4 x 4 identity."""
    captions = draw(st.lists(_TEXT, min_size=1, max_size=3))
    rooms = draw(st.lists(_TEXT, min_size=1, max_size=3))
    positions = draw(st.lists(st.tuples(_POSITION, _POSITION), min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    tpd = draw(st.integers(1, 5))
    t = list(itertools.accumulate(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))))
    pos = [draw(st.sampled_from(positions)) for _ in range(n)]
    memory = LongTermMemory(d=4, ticks_per_day=tpd)
    memory.extend(Batch(
        t=t, day=[v // tpd for v in t], pose=range(n),
        poses=[Pose(position=p, yaw=0.0, room_id=draw(st.sampled_from(rooms))) for p in pos],
        raw=[draw(st.integers(0, len(captions) - 1)) for _ in range(n)],
        embeddings=[np.eye(4)[draw(st.integers(0, 3))] for _ in captions],
        raws=[SymbolicObservation(visible_entities=draw(_ENTITIES), caption=c) for c in captions],
    ))
    return memory, positions


@st.composite
def memory_actions(draw, n, positions):
    """Any retrieval action on a memory of n records, errors included."""
    r = {"r": draw(st.integers(1, 15))} if draw(st.booleans()) else {}
    x, y = draw(st.sampled_from(positions))
    return draw(st.sampled_from([
        Action("semantic_query", {"query": "mug", **r}),
        Action("temporal_query", {"timestep": draw(st.integers(-2, 60)), **r}),
        Action("temporal_query", {"day_start": draw(st.integers(-1, 20)), "day_end": draw(st.integers(-1, 20)), **r}),
        Action("spatial_query", {"x": x, "y": y, "radius": draw(st.sampled_from([1e-9, 1.0, 1e308])), **r}),
        Action("fetch_raw", {"record_index": draw(st.integers(-1, n))}),
    ]))


def _skill_and_schema_outcomes():
    executor = executor_for(tiny_world())
    steps = [(a, executor.execute(a)) for a in (
        Action("navigate", {"landmark": "spot_0"}), Action("detect", {}),
        Action("pick", {"entity": "mug_1"}), Action("pick", {"entity": "mug_9"}))]
    bad = Action("open", {"receptacle": 1})
    errors = validate_action(bad, default_registry(executor.world))
    steps.append((bad, Outcome(kind="skill_result", payload={"success": False, "reason": "schema_error",
                                                            "errors": errors})))
    return steps


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_outcome_json_and_step_lines_equal_canonical_dumps(data):
    """outcome_json, the suite's step lines and wire requests are
    canonical_dumps of the same records, byte for byte, over executor
    outcomes of random memories (NaN and inf query vectors, both zeros,
    escaped texts), the same outcomes with their hits as a list of dicts
    (as Outcome.from_dict gives them), error payloads and skill outcomes."""
    memory, positions = data.draw(hit_memories())
    qvec = data.draw(st.sampled_from([np.eye(4)[0], np.full(4, np.nan), np.array([np.inf, 0, 0, 0]),
                                      np.array([-np.inf, 1, 0, 0])]))
    executor = ActionExecutor(memory, tiny_world(), Schedule(seed=0), lambda query: qvec)
    actions = data.draw(st.lists(memory_actions(len(memory), positions), min_size=1, max_size=6))
    with np.errstate(invalid="ignore"):  # inf * 0 in the scores of an inf query
        steps = [(a, executor.execute(a)) for a in actions]
    steps += [(a, Outcome(o.kind, {**o.payload, "hits": [dict(hit) for hit in o.payload["hits"]]}))
              for a, o in steps if "hits" in o.payload] + _skill_and_schema_outcomes()
    h = WorkingMemory.fresh(Instruction(text="find the mug"), len(steps))
    for k, (action, outcome) in enumerate(steps, start=1):
        assert outcome_json(outcome) == canonical_dumps(outcome.to_dict())
        rationale = data.draw(st.sampled_from(["", "\u2028 \u00e9\"\\"]) | _TEXT)
        record = {"event": "step", "k": k, "action": action.to_dict(), "outcome": outcome.to_dict()}
        if rationale:
            record["rationale"] = rationale
        assert _step_line(k, action, outcome, rationale) == canonical_dumps(record)
        h = h.append(action, outcome)
    schema = default_registry().schema()
    assert encode_request("find the mug", 3, schema, h) == canonical_dumps(build_request("find the mug", 3, schema, h))


def reference_views(memory, index, score):
    """record_views' dicts, built per hit from MemoryRecords."""
    views = []
    for i, s in zip(index, score):
        rec = memory.record(i)
        views.append({"record_index": i, "score": s, "t": rec.t.value, "day": rec.t.day, "room": rec.pose.room_id,
                      "x": rec.pose.position[0], "y": rec.pose.position[1], "caption": rec.raw.caption})
    return views


def columns_of(views):
    """The Hits of hit dicts with the Hits.KEYS."""
    return Hits(*([view[key] for view in views] for key in Hits.KEYS))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hits_read_as_record_views_dicts(data):
    """record_views' Hits reads as the dicts of each hit's record: length,
    truth, every index (negative ones too), slices, iteration and key order,
    equality both ways, a fresh dict on every read, and the same canonical
    JSON as the list of those dicts."""
    memory, _ = data.draw(hit_memories())
    index = data.draw(st.lists(st.integers(0, len(memory) - 1), max_size=8))
    score = data.draw(st.lists(st.floats(allow_nan=False), min_size=len(index), max_size=len(index)))
    result = QueryResult(np.array(index, dtype=np.int64), np.array(score, dtype=np.float64))
    hits, views = record_views(memory, result), reference_views(memory, index, score)
    assert (len(hits), bool(hits)) == (len(views), bool(views))
    assert hits == views and views == hits and hits == tuple(views) and not hits != views
    assert [hits[j] for j in range(-len(hits), len(hits))] == views + views
    for j in (len(hits), -len(hits) - 1):
        with pytest.raises(IndexError):
            hits[j]
    part = hits[1:-1:2]
    assert type(part) is Hits and part == views[1:-1:2]
    assert [list(view) for view in hits] == [list(Hits.KEYS)] * len(views)
    assert columns_of(views) == hits and isinstance(hits, Hits)
    for view in hits:
        view.clear()
    if hits:
        hits[0]["caption"] = "another caption"
        assert hits[0] == views[0]
        assert hits != views[:-1] and hits != [{**views[0], "score": "not a score"}] + views[1:]
    assert list(hits) == views and hits != "not a sequence of hits"
    assert canonical_dumps(hits) == canonical_dumps(list(hits)) == canonical_dumps(views)
    assert canonical_dumps({"hits": hits}) == canonical_dumps({"hits": views})


def mixed_type_memory():
    """A memory of 15 records whose neighbours differ only in room, in
    caption or in the sign of a zero (0.0 == -0.0, and they hash alike), with
    rooms and captions that are not a str but equal one another (1 == 1.0 ==
    True)."""
    rows = [("den", "a mug", 2.0, 1.0), ("hall", "a mug", 2.0, 1.0), ("hall", "a cup", 2.0, 1.0),
            ("hall", "a cup", -0.0, 1.0), ("hall", "a cup", -0.0, 1.0), ("hall", "a cup", 1.0, -0.0),
            ("hall", "a cup", 1.0, 0.0), ("hall", "a cup", 0.0, 0.0), ("hall", "a cup", 0.0, 0.0),
            (1, "a cup", 1.0, 1.0), (1.0, "a cup", 1.0, 1.0), (True, "a cup", 1.0, 1.0),
            ("hall", 1, 1.0, 1.0), ("hall", 1.0, 1.0, 1.0), ("hall", True, 1.0, 1.0)]
    captions = [(str, "a mug"), (str, "a cup"), (int, 1), (float, 1.0), (bool, True)]
    memory = LongTermMemory(d=4, ticks_per_day=5)
    memory.extend(Batch(
        t=range(len(rows)), day=[t // 5 for t in range(len(rows))], pose=range(len(rows)),
        poses=[Pose(position=(row[2], row[3]), yaw=0.0, room_id=row[0]) for row in rows],
        raw=[captions.index((type(row[1]), row[1])) for row in rows], embeddings=[np.eye(4)[0]] * len(captions),
        raws=[SymbolicObservation(visible_entities=(), caption=c) for _, c in captions],
    ))
    return memory


def test_outcome_json_remakes_texts_where_a_run_changes():
    """Neighbouring hits that differ only in room, in caption or in the sign
    of a zero each get their own texts, and so do rooms and captions that are
    not a str but equal one another (mixed_type_memory)."""
    memory = mixed_type_memory()
    executor = ActionExecutor(memory, tiny_world(), Schedule(seed=0), EMB)
    for action in (Action("temporal_query", {"day_start": 0, "day_end": 2, "r": len(memory)}),
                   Action("temporal_query", {"timestep": 0, "r": len(memory)})):
        outcome = executor.execute(action)
        assert len(outcome.payload["hits"]) == len(memory)
        assert outcome_json(outcome) == canonical_dumps(outcome.to_dict())


def typed(items):
    """(key, type, repr) of each item, so that 0.0 and -0.0, or 1 and True,
    differ."""
    return [(key, type(value), repr(value)) for key, value in items]


@settings(max_examples=100, deadline=None)
@given(memory=hit_memories().map(lambda drawn: drawn[0]) | st.builds(mixed_type_memory), data=st.data())
def test_fetch_raw_record_is_the_hit_view(memory, data):
    """fetch_raw's record, read from the record set, is reference_views'
    dict of the record without its score and with the raw's entity dicts:
    the same keys in the same order and the same values, the sign of a zero
    and the type of a room or caption too; outcome_json writes the outcome
    as canonical_dumps does."""
    i = data.draw(st.integers(0, len(memory) - 1))
    outcome = ActionExecutor(memory, tiny_world(), Schedule(seed=0), EMB).execute(
        Action("fetch_raw", {"record_index": i}))
    [view] = reference_views(memory, [i], [0.0])
    del view["score"]
    view["entities"] = [e.to_dict() for e in memory.fetch_raw(i).visible_entities]
    assert typed(outcome.payload["record"].items()) == typed(view.items())
    assert outcome_json(outcome) == canonical_dumps(outcome.to_dict())


@st.composite
def split_records(draw):
    """Records (t, pose id, raw id) over drawn poses, some sharing a
    position, and drawn raws, both numbered by first use, so that the
    entries first used by the records of a batch come right after those of
    the records before it; and 0-2 cuts that split the records into extend
    batches."""
    places = draw(st.lists(st.tuples(_POSITION, _POSITION), min_size=1, max_size=3))
    kinds = draw(st.lists(st.tuples(st.sampled_from(places), st.sampled_from(["den", "hall"])), min_size=1,
                          max_size=4))
    captions = draw(st.lists(_TEXT, min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    t = list(itertools.accumulate(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))))
    pose_of, raw_of = {}, {}
    records = [(v, pose_of.setdefault(draw(st.integers(0, len(kinds) - 1)), len(pose_of)),
                raw_of.setdefault(draw(st.integers(0, len(captions) - 1)), len(raw_of))) for v in t]
    poses = [Pose(position=kinds[k][0], yaw=0.0, room_id=kinds[k][1]) for k in pose_of]
    raws = [SymbolicObservation(visible_entities=draw(_ENTITIES), caption=captions[k]) for k in raw_of]
    embeddings = [np.eye(4)[draw(st.integers(0, 3))] for _ in raws]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2))) if n > 1 else []
    return records, poses, raws, embeddings, cuts, places


def records_batch(records, start, end, poses, raws, embeddings, tpd):
    """The Batch of records[start:end] for a memory holding records[:start]."""
    def count(j, upto):  # entries the records before upto use
        return max((record[j] + 1 for record in records[:upto]), default=0)

    (p0, p1), (m0, m1) = [(count(j, start), count(j, end)) for j in (1, 2)]
    t, pose, raw = zip(*records[start:end])
    return Batch(t=t, day=[v // tpd for v in t], pose=pose, raw=raw, poses=poses[p0:p1], raws=raws[m0:m1],
                 embeddings=embeddings[m0:m1])


@settings(max_examples=100, deadline=None)
@given(drawn=split_records(), data=st.data())
def test_retrieval_outcomes_of_split_batches_equal_one_batch(drawn, data):
    """After each of 1-3 extend batches, every retrieval tool's outcome is,
    byte for byte, that of a memory holding the same records in one batch:
    what a record set derives for queries and payloads (postings, run ends,
    captions, pose rows, the last record) is its own, none of it kept from
    the record set before the batch."""
    records, poses, raws, embeddings, cuts, places = drawn
    tpd = data.draw(st.integers(1, 5))
    qvec = np.eye(4)[data.draw(st.integers(0, 3))]
    split = LongTermMemory(d=4, ticks_per_day=tpd)
    executor = ActionExecutor(split, tiny_world(), Schedule(seed=0), lambda query: qvec)
    start = 0
    for end in (*cuts, len(records)):
        split.extend(records_batch(records, start, end, poses, raws, embeddings, tpd))
        whole = LongTermMemory(d=4, ticks_per_day=tpd)
        whole.extend(records_batch(records, 0, end, poses, raws, embeddings, tpd))
        reference = ActionExecutor(whole, tiny_world(), Schedule(seed=0), lambda query: qvec)
        r = data.draw(st.integers(1, 15))
        x, y = data.draw(st.sampled_from(places))
        days = sorted(data.draw(st.lists(st.integers(-1, 12), min_size=2, max_size=2)))
        for action in (
            Action("semantic_query", {"query": "mug", "r": r}),
            Action("temporal_query", {"timestep": data.draw(st.integers(-2, 50)), "r": r}),
            Action("temporal_query", {"day_start": days[0], "day_end": days[1], "r": r}),
            Action("temporal_query", {"day_start": days[0], "day_end": days[1], "r": r, "per": "run"}),
            Action("spatial_query", {"x": x, "y": y, "radius": data.draw(st.sampled_from([1e-9, 1.0, 1e308])),
                                     "r": r}),
            Action("fetch_raw", {"record_index": data.draw(st.integers(0, end - 1))}),
            Action("fetch_raw", {"record_index": end}),
        ):
            assert outcome_json(executor.execute(action)) == outcome_json(reference.execute(action)), action
        start = end


@functools.lru_cache(maxsize=None)
def patrol_memory(mode):
    """A memory of a three-day patrol (scene 1, 60 ticks a day) in mode, or an
    empty one: an oracle raw holds long runs of records, so a query's best
    entry often fills r alone."""
    if mode == "empty":
        return LongTermMemory(d=EMB.config.d, ticks_per_day=60)
    world, schedule = generate_world(0, 1, ticks_per_day=60)
    return build(patrol(world, schedule, 3), EMB, mode=mode, ticks_per_day=60)


def fields_reference(memory, embedder, action):
    """The outcome_json of a retrieval the memory's query answers, built with
    LongTermMemory.fields: one dict per hit, or the record's view, beside the
    record count and the last record's t and day."""
    args, n = action.args, len(memory)
    last = memory.record(n - 1).t if n else None
    payload = {"total": n, "ticks_per_day": memory.ticks_per_day, "last_t": None if last is None else last.value,
               "last_day": None if last is None else last.day}
    r = args.get("r", DEFAULT_TOP_R)
    try:
        if action.tool == "fetch_raw":
            i = args["record_index"]
            raw = memory.fetch_raw(i)
            payload["record"] = {"record_index": i, **{k: v[0] for k, v in memory.fields([i]).items()},
                                 "entities": [e.to_dict() for e in raw.visible_entities]}
        else:
            if action.tool == "semantic_query":
                result = memory.query_semantic(args["query"], embedder, r=r)
            elif action.tool == "spatial_query":
                result = memory.query_spatial((args["x"], args["y"]), args["radius"], r=r)
            elif "timestep" in args:
                result = memory.query_temporal(t_center=args["timestep"], r=r)
            else:
                result = memory.query_temporal(day_window=(args["day_start"], args["day_end"]), r=r,
                                               per=args.get("per", "record"))
            f = memory.fields(result.indices)
            payload["hits"] = [{"record_index": i, "score": s, **{k: v[j] for k, v in f.items()}}
                               for j, (i, s) in enumerate(result.hits)]
    except (ValueError, LookupError) as exc:
        payload = {"hits": [], "error": str(exc)}
    return canonical_dumps({"kind": "retrieval", "payload": payload})


@st.composite
def retrieval_actions(draw, memory):
    """Any retrieval action on memory: r from 1 to R_MAX, spatial centres at
    its poses and at 1e200, day windows per record and per run, and record
    indices one past either end."""
    r = {"r": draw(st.integers(1, 8) | st.sampled_from([25, 200, R_MAX]))} if draw(st.booleans()) else {}
    x, y = draw(st.sampled_from([pose.position for pose in memory._set.poses] + [(1e200, 0.0)]))
    days = sorted(draw(st.lists(st.integers(-1, 3), min_size=2, max_size=2)))
    per = draw(st.sampled_from(["record", "run"]))
    return draw(st.sampled_from([
        Action("semantic_query", {"query": draw(st.sampled_from(["mug", "book", "plant on a shelf", "zzz"])), **r}),
        Action("temporal_query", {"timestep": draw(st.integers(-2, len(memory) + 2)), **r}),
        Action("temporal_query", {"day_start": days[0], "day_end": days[1], "per": per, **r}),
        Action("spatial_query", {"x": x, "y": y, "radius": draw(st.sampled_from([1e-9, 1.0, 2.5, 1e300])), **r}),
        Action("fetch_raw", {"record_index": draw(st.integers(-1, len(memory)))}),
    ]))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["oracle", "realistic", "empty", "drawn", "mixed"]), data=st.data())
def test_executor_outcomes_equal_the_fields_reference(kind, data):
    """Every retrieval tool's outcome through the executor, whose hits are
    gathered from the record set unchecked, is byte for byte the one built
    from LongTermMemory.fields: on oracle and realistic patrol memories (a
    lone best raw or pose), drawn and mixed-type memories (ties at the first
    score, zeros of both signs) and an empty memory."""
    if kind == "drawn":
        memory = data.draw(hit_memories())[0]
    else:
        memory = mixed_type_memory() if kind == "mixed" else patrol_memory(kind)
    qvec = np.eye(4)[data.draw(st.integers(0, 3))]
    embedder = EMB if memory.d == EMB.config.d else (lambda query: qvec)
    executor = ActionExecutor(memory, tiny_world(), Schedule(seed=0), embedder)
    for action in data.draw(st.lists(retrieval_actions(memory), min_size=1, max_size=6)):
        assert outcome_json(executor.execute(action)) == fields_reference(memory, embedder, action), action


def test_outcome_json_encodes_foreign_hits_whole():
    """Hit dicts, of record_views' shape or not, are encoded whole, also when
    a field's value equals one of another type: 1 == 1.0 == True and
    0 == 0.0 == -0.0 == False. So are the same hits as a Hits not made by
    record_views, and record_views' hits of scores that are not floats."""
    hit = {"record_index": 0, "score": 1.0, "t": 3, "day": 0, "room": "den", "x": 1.0, "y": -0.0,
           "caption": "a mug"}
    meta = {"total": 1, "ticks_per_day": 5, "last_t": 3, "last_day": 0}
    for h in (hit, {**hit, "x": 1}, {**hit, "x": True}, {**hit, "y": 0}, {**hit, "y": False},
              {**hit, "caption": 1.0}, {**hit, "room": 1}, {**hit, "score": 1}, {**hit, "day": True},
              {**hit, "t": 3.0}, {**hit, "record_index": False}, {**hit, "record_index": 0.0},
              {**hit, "x": np.float64(1.0)}, {**hit, "score": np.float64(1.0)},
              {k: v for k, v in hit.items() if k != "y"}, {**hit, "extra": 1}, dict(sorted(hit.items()))):
        for hits in ([hit, h], columns_of([hit, h])) if h.keys() >= set(Hits.KEYS) else ([hit, h],):
            outcome = Outcome(kind="retrieval", payload={"hits": hits, **meta})
            assert outcome_json(outcome) == canonical_dumps(outcome.to_dict()), h
    memory = LongTermMemory(d=EMB.config.d, ticks_per_day=5)
    memory.extend(spec_batch(memory, [(0, "a mug", (0.0, 0.0))], EMB))
    for score in ([1, 2], [True, False], np.array([1.0, 2.0], dtype=np.float32)):
        result = QueryResult(np.zeros(2, dtype=np.int64), np.asarray(score))
        outcome = Outcome(kind="retrieval", payload={"hits": record_views(memory, result), **meta})
        assert outcome_json(outcome) == canonical_dumps(outcome.to_dict()), score


# -- random policy --------------------------------------------------------------------


def test_random_policy_succeeds_on_single_landmark_world():
    world = tiny_world(n_landmarks=1)
    registry = default_registry(world)
    policy = RandomSearchPolicy(seed=3)
    result = run_episode_ok("find the red mug", executor_for(world), policy, registry,
                            budget=20, target_entity="mug_1")
    assert result.success and result.steps_used == 3


def test_random_policy_never_emits_temporal_tools():
    task, memory, graphs, embedder, world = standard_setup()
    for seed in range(100):
        config = SuiteConfig(methods=("random",), modes=("oracle",), seed=seed)
        r = run_task_episode_ok(task, "random", config, memory, graphs, embedder, world)
        assert r.action_counts["temporal_query"] == 0


def test_random_policy_weak_on_hidden_targets():
    wins = 0
    for seed in range(10):
        config = SuiteConfig(methods=("random",), modes=("oracle",), seed=seed)
        task = build_task(1, "attribute", "interactive", 0, seed=7)
        memories, graphs, embedder, world = prepare_task(task, config)
        memory = memories["oracle"]
        r = run_task_episode_ok(task, "random", config, memory, graphs, embedder, world)
        wins += int(r.success)
    assert wins / 10 <= 0.2


def test_random_policy_deterministic_given_seed():
    task, memory, graphs, embedder, world = standard_setup()
    r1 = run_task_episode_ok(task, "random", CONFIG, memory, graphs, embedder, world)
    r2 = run_task_episode_ok(task, "random", CONFIG, memory, graphs, embedder, world)
    assert r1.trace == r2.trace


# -- tr+s policy -----------------------------------------------------------------------


def test_trs_unmoved_object_three_spatial_actions():
    task, memory, graphs, embedder, world = standard_setup(family="attribute")
    r = run_task_episode_ok(task, "tr_s", CONFIG, memory, graphs, embedder, world)
    assert r.success
    physical = r.action_counts["perception"] + r.action_counts["navigation"] + r.action_counts["manipulation"]
    assert physical == 3


def test_trs_moved_object_fails_without_retry():
    task, memory, graphs, embedder, world = standard_setup(family="spatial_temporal")
    r = run_task_episode_ok(task, "tr_s", CONFIG, memory, graphs, embedder, world)
    assert not r.success
    assert r.termination == "policy_abort"


def test_trs_day_reference_triggers_window_query():
    task, memory, graphs, embedder, world = standard_setup(family="spatial_temporal")
    r = run_task_episode_ok(task, "tr_s", CONFIG, memory, graphs, embedder, world)
    tools = [a.tool for a, _ in r.trace.steps]
    assert "temporal_query" in tools
    window_args = [a.args for a, _ in r.trace.steps if a.tool == "temporal_query"]
    assert any("day_start" in args for args in window_args)


def test_trs_runs_fixed_probe_set_first():
    task, memory, graphs, embedder, world = standard_setup(family="class")
    r = run_task_episode_ok(task, "tr_s", CONFIG, memory, graphs, embedder, world)
    tools = [a.tool for a, _ in r.trace.steps]
    assert tools[0] == "semantic_query"
    assert "spatial_query" in tools[:3]


# -- sg+s policy ------------------------------------------------------------------------


def test_sgs_unique_class_goes_straight_to_landmark():
    task, memory, graphs, embedder, world = standard_setup(family="class")
    r = run_task_episode_ok(task, "sg_s", CONFIG, memory, graphs, embedder, world)
    assert r.success
    tools = [a.tool for a, _ in r.trace.steps]
    assert tools == ["navigate", "detect", "pick"]
    assert r.trace.steps[0][0].args["landmark"] == "bookshelf"


def test_sgs_never_issues_temporal_actions():
    for family in ("class", "attribute", "spatial", "spatial_temporal", "spatial_frequentist"):
        task, memory, graphs, embedder, world = standard_setup(family=family)
        r = run_task_episode_ok(task, "sg_s", CONFIG, memory, graphs, embedder, world)
        assert r.action_counts["temporal_query"] == 0


def test_sgs_twin_receptacles_at_chance():
    """Across seeds, SG+S picks each identical twin roughly half the time and
    only succeeds when the coin lands on the one hiding the target."""
    task = build_task(1, "attribute", "interactive", 0, seed=7)
    chosen = []
    outcomes = []
    for seed in range(16):
        config = SuiteConfig(methods=("sg_s",), modes=("oracle",), seed=seed)
        memories, graphs, embedder, world = prepare_task(task, config)
        memory = memories["oracle"]
        r = run_task_episode_ok(task, "sg_s", config, memory, graphs, embedder, world)
        nav = next(a for a, _ in r.trace.steps if a.tool == "navigate")
        chosen.append(nav.args["landmark"])
        outcomes.append(r.success)
    assert set(chosen) == {"kitchen_cabinet_left", "kitchen_cabinet_right"}
    for lm, ok in zip(chosen, outcomes):
        assert ok == (lm == "kitchen_cabinet_left")


def test_sgs_attribute_collision_resolved_by_node_attributes():
    """Two folder nodes share the class label; the attribute fields on the
    ground-truth nodes single out the green one."""
    task, memory, graphs, embedder, world = standard_setup(family="attribute")
    assert task.instruction == "find the green folder"
    r = run_task_episode_ok(task, "sg_s", CONFIG, memory, graphs, embedder, world)
    assert r.success
    picked = [a.args["entity"] for a, _ in r.trace.steps if a.tool == "pick"]
    assert picked == ["folder_1"]


def test_sgs_unresolvable_reference_aborts():
    task, memory, graphs, embedder, world = standard_setup(family="class")
    policy = SgPlusSPolicy(graphs, seed=0)
    decision = policy("find the unicorn", WorkingMemory.fresh(Instruction(text="x"), 20), 20, {})
    assert decision is None


def test_sgs_closed_receptacle_contents_invisible_to_resolution():
    task, memory, graphs, embedder, world = standard_setup()
    policy = SgPlusSPolicy(graphs, seed=0)
    h = WorkingMemory.fresh(Instruction(text="bring me the milk"), 20)
    assert policy("bring me the milk", h, 20, {}) is None


# -- star policy ---------------------------------------------------------------------------


def test_star_prior_table_first_navigation_in_prior_room():
    task, memory, graphs, embedder, world = standard_setup(family="commonsense", ttype="commonsense")
    r = run_task_episode_ok(task, "star", CONFIG, memory, graphs, embedder, world)
    assert r.success
    first_nav = next(a for a, _ in r.trace.steps if a.tool == "navigate")
    assert world.landmarks[first_nav.args["landmark"]].room_id == "kitchen"
    assert task.target_entity == "milk_1"


def test_star_moved_object_recovers_after_failed_probe():
    task, memory, graphs, embedder, world = standard_setup(family="spatial_temporal")
    r = run_task_episode_ok(task, "star", CONFIG, memory, graphs, embedder, world)
    assert r.success
    tools = [a.tool for a, _ in r.trace.steps]
    assert tools.count("navigate") >= 2  # stale probe plus recovery
    assert tools[0] == "semantic_query"


def test_star_twin_receptacles_resolved_via_raw_fetch():
    task = build_task(1, "attribute", "interactive", 0, seed=7)
    memories, graphs, embedder, world = prepare_task(task, CONFIG)
    memory = memories["oracle"]
    r = run_task_episode_ok(task, "star", CONFIG, memory, graphs, embedder, world)
    assert r.success
    tools = [a.tool for a, _ in r.trace.steps]
    assert "fetch_raw" in tools
    opens = [a.args["receptacle"] for a, _ in r.trace.steps if a.tool == "open"]
    assert opens == ["kitchen_cabinet_left"]


def test_star_commit_threshold_suppresses_late_queries():
    task, memory, graphs, embedder, world = standard_setup(family="spatial_temporal")
    r = run_task_episode_ok(task, "star", CONFIG, memory, graphs, embedder, world)
    budget = 20
    for i, (action, _) in enumerate(r.trace.steps):
        remaining = budget - i
        if remaining <= 4:
            assert action.tool in ("navigate", "detect", "open", "pick")


def test_star_deterministic_trace():
    task, memory, graphs, embedder, world = standard_setup(family="spatial_frequentist")
    r1 = run_task_episode_ok(task, "star", CONFIG, memory, graphs, embedder, world)
    r2 = run_task_episode_ok(task, "star", CONFIG, memory, graphs, embedder, world)
    assert r1.trace == r2.trace


# -- the incremental trace view -------------------------------------------------------


@functools.lru_cache(maxsize=None)
def fold_setup():
    """An interactive task (twin receptacles, a moved target) and its memory."""
    task = build_task(1, "spatial_temporal", "interactive", 0, seed=7)
    memories, _, embedder, world = prepare_task(task, CONFIG)
    memory = memories["oracle"]
    return task, memory, embedder, world


def fold_instructions(world):
    out = []
    for obj in sorted(world.objects.values(), key=lambda o: o.entity_id)[:6]:
        descr = " ".join([*obj.attributes, obj.class_label])
        lm = world.landmarks[obj.location.ref].name
        out += [f"find the {descr}", f"find the {descr} on the {lm}",
                f"find the {descr} that was on the {lm} yesterday",
                f"find the {descr} that is usually by the {lm}", f"bring me the {obj.class_label}"]
    return out


@st.composite
def fold_actions(draw, world, n_records):
    """Schema-valid and invalid actions over the task's world and memory."""
    landmarks = sorted(world.landmarks)
    entities = sorted(world.objects) + [""]
    lm = st.sampled_from(landmarks)
    actions = st.one_of(
        st.builds(lambda q, r: Action("semantic_query", {"query": q, "r": r}),
                  st.sampled_from(["red mug", "green folder", "mug sink", "white cabinet", "keys"]),
                  st.sampled_from([5, 25])),
        st.builds(lambda d: Action("temporal_query", {"day_start": d, "day_end": d, "r": 200}),
                  st.integers(0, 3)),
        st.builds(lambda d, r: Action("temporal_query", {"day_start": d, "day_end": d, "r": r, "per": "run"}),
                  st.integers(0, 3), st.sampled_from([3, R_MAX])),
        st.builds(lambda t: Action("temporal_query", {"timestep": t, "r": 5}), st.integers(0, 700)),
        st.builds(lambda i: Action("spatial_query", {"x": world.landmarks[i].position[0],
                                                     "y": world.landmarks[i].position[1],
                                                     "radius": 2.5, "r": 25}), lm),
        st.builds(lambda i: Action("fetch_raw", {"record_index": i}), st.integers(0, n_records + 2)),
        st.builds(lambda i: Action("navigate", {"landmark": i}), lm),
        st.just(Action("detect")),
        st.builds(lambda i: Action("open", {"receptacle": i}), lm),
        st.builds(lambda e: Action("pick", {"entity": e}), st.sampled_from(entities)),
        st.just(Action("navigate", {"bogus": True})),
    )
    return draw(st.lists(actions, min_size=1, max_size=12))


def fold_trace(task, memory, embedder, world, actions):
    """Working memories for every prefix of the actions, executed as
    run_episode does on a copy of the world at task time."""
    world = world.at(task.schedule, world.clock)
    registry = default_registry(world)
    executor = ActionExecutor(memory, world, task.schedule, embedder)
    h = WorkingMemory.fresh(Instruction(text="unused"), 20)
    prefixes = [h]
    for action in actions:
        errors = validate_action(action, registry)
        if errors:
            outcome = Outcome(kind="skill_result",
                              payload={"success": False, "reason": "schema_error", "errors": errors})
        else:
            outcome = executor.execute(action)
        h = h.append(action, outcome)
        prefixes.append(h)
    return prefixes


def view_state(view):
    public = {k: v for k, v in vars(view).items() if not k.startswith("_")}
    return public, view.matches()


def reference_matches(h, parsed):
    """The whole-trace scan the fold replaced: the retrieved record indices,
    and the instruction-matching phrases of each one's first view's caption
    in record order."""
    hits = {}
    for _, outcome in h.steps:
        if outcome.kind == "retrieval":
            for hit in outcome.payload.get("hits", []):
                hits.setdefault(hit["record_index"], hit)
    return set(hits), [
        HitMatch(idx, hit["t"], hit["day"], ent.landmark_name, ent.contained, ent.attributes)
        for idx, hit in sorted(hits.items())
        for ent in parse_caption(hit["caption"])
        if parsed.matches(ent.class_label, ent.attributes)
    ]


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_incremental_trace_view_equals_a_fresh_one(data):
    """Folding step by step (and reusing a view across calls) gives the same
    view, and the same decisions, as folding the whole trace afresh: along
    every prefix, on the same trace again, on a shorter one, on an unrelated
    one and for another instruction."""
    task, memory, embedder, at_task = fold_setup()
    world, _ = generate_world(task.layout_seed, task.scene_id, ticks_per_day=task.ticks_per_day)
    text, other_text = (data.draw(st.sampled_from(fold_instructions(world))) for _ in range(2))
    prefixes = fold_trace(task, memory, embedder, at_task, data.draw(fold_actions(world, len(memory))))
    unrelated = fold_trace(task, memory, embedder, at_task, data.draw(fold_actions(world, len(memory))))[-1]
    h = prefixes[-1]
    shorter = prefixes[data.draw(st.integers(0, len(prefixes) - 1))]
    calls = [(text, hk) for hk in prefixes]
    calls += [(text, h), (text, shorter), (text, unrelated), (other_text, h), (text, h)]

    view = None
    for instruction, hk in calls:
        parsed = parse_instruction(instruction)
        view = trace_view(view, hk, parsed)
        view.matches().clear()  # a caller's list is its own
        fresh = TraceView(hk, parsed)
        assert view_state(view) == view_state(fresh)
        assert (fresh.hits, fresh.matches()) == reference_matches(hk, parsed)

    schema = default_registry(world).schema()
    for make in (lambda: RandomSearchPolicy(seed=3), TrPlusSPolicy,
                 lambda: StarScriptedPolicy(prior_table=default_prior_table())):
        policy = make()
        for instruction, hk in calls:
            args = (instruction, hk, hk.remaining_budget, schema)
            assert policy(*args) == make()(*args)


def with_listed_hits(h):
    """h with each outcome's hits as a list of dicts, as Outcome.from_dict
    gives them."""
    steps = tuple((a, Outcome(o.kind, {**o.payload, "hits": [dict(hit) for hit in o.payload["hits"]]}))
                  if "hits" in o.payload else (a, o) for a, o in h.steps)
    return WorkingMemory(h.instruction, steps, h.remaining_budget)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_trace_view_folds_listed_hits_as_it_folds_hits(data):
    """A trace whose hits are lists of dicts folds to the same view as the
    executor's Hits: seen records, matches, first hit, fetched records and
    the memory's last day, along every prefix."""
    task, memory, embedder, at_task = fold_setup()
    world, _ = generate_world(task.layout_seed, task.scene_id, ticks_per_day=task.ticks_per_day)
    parsed = parse_instruction(data.draw(st.sampled_from(fold_instructions(world))))
    for hk in fold_trace(task, memory, embedder, at_task, data.draw(fold_actions(world, len(memory)))):
        columns, listed = TraceView(hk, parsed), TraceView(with_listed_hits(hk), parsed)
        assert (columns.hits, columns.matches(), columns.first_hit, columns.fetched, columns.last_day) == (
            listed.hits, listed.matches(), listed.first_hit, listed.fetched, listed.last_day)


@functools.lru_cache(maxsize=None)
def window_setup(mode):
    """fold_setup's task with its memory in either mode, and an executor."""
    task = build_task(1, "spatial_temporal", "interactive", 0, seed=7)
    memories, _, embedder, world = prepare_task(task, dataclasses.replace(CONFIG, modes=(mode,)))
    memory = memories[mode]
    return world, ActionExecutor(memory, world, task.schedule, embedder)


def newest_sightings(view):
    """The newest t of the instruction's matches per (landmark, contained)."""
    newest = {}
    for m in view.matches():
        key = (m.landmark_name, m.contained)
        newest[key] = max(newest.get(key, -1), m.t)
    return newest


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_per_run_window_decides_as_the_whole_day(data):
    """A day asked per run folds to the decisions of the same day asked per
    record, after the same semantic query or none: the newest sighting per
    (landmark, contained), tr_s's plan and star's hypotheses."""
    world, executor = window_setup(data.draw(st.sampled_from(["oracle", "realistic"])))
    memory = executor.memory
    text = data.draw(st.sampled_from(fold_instructions(world)))
    parsed = parse_instruction(text)
    day = data.draw(st.integers(0, memory.record(len(memory) - 1).t.day))
    first = data.draw(st.sampled_from([None, "red mug", "green folder", "mug sink", "keys"]))
    schema = default_registry(world).schema()
    views = []
    for window in ({"r": memory.ticks_per_day}, {"r": R_MAX, "per": "run"}):
        h = WorkingMemory.fresh(Instruction(text=text), 20)
        actions = [] if first is None else [Action("semantic_query", {"query": first, "r": 25})]
        for action in actions + [Action("temporal_query", {"day_start": day, "day_end": day, **window})]:
            h = h.append(action, executor.execute(action))
        views.append(TraceView(h, parsed))
    per_record, per_run = views
    assert len(per_run.hits) <= len(per_record.hits)
    assert newest_sightings(per_run) == newest_sightings(per_record)
    assert TrPlusSPolicy()._plan(parsed, per_run, schema) == TrPlusSPolicy()._plan(parsed, per_record, schema)
    star = StarScriptedPolicy()
    assert (star._hypotheses(parsed, per_run, schema, per_run.matches(), None)
            == star._hypotheses(parsed, per_record, schema, per_record.matches(), None))


def test_trace_view_keeps_the_first_view_of_a_record():
    """A record seen again, here under another caption and time, keeps the
    matches of its first view; its neighbour in the same hits is new."""
    first = {"record_index": 3, "score": 1.0, "t": 3, "day": 0, "room": "den", "x": 0.0, "y": 0.0,
             "caption": "a red mug on the sink"}
    again = {**first, "t": 9, "caption": "a red mug inside the fridge"}
    query = Action("semantic_query", {"query": "red mug"})
    h = WorkingMemory.fresh(Instruction(text="find the red mug"), 5)
    h = h.append(query, Outcome("retrieval", {"hits": [first]}))
    h = h.append(query, Outcome("retrieval", {"hits": columns_of([again, {**again, "record_index": 4}])}))
    view = TraceView(h, parse_instruction("find the red mug"))
    assert view.hits == {3, 4} and view.first_hit == first
    assert [(m.record_index, m.t, m.landmark_name) for m in view.matches()] == [(3, 3, "sink"), (4, 9, "fridge")]


# -- llm policy ------------------------------------------------------------------------------


def llm_with_replies(replies):
    replies = iter(replies)
    requests = []

    def post(url, payload, timeout):
        requests.append(payload)
        return {"choices": [{"message": {"content": next(replies)}}]}

    policy = ChatCompletionPolicy(LLMPolicyConfig(url="http://policy.local"), post=post)
    return policy, requests


def test_llm_fixed_reply_executed_verbatim():
    world = tiny_world(n_landmarks=2)
    registry = default_registry(world)
    policy, _ = llm_with_replies(['{"tool":"navigate","args":{"landmark":"spot_1"}}'] * 5)
    result = run_episode_ok("find the mug", executor_for(world), policy, registry, budget=2)
    assert [a.args.get("landmark") for a, _ in result.trace.steps] == ["spot_1", "spot_1"]


def test_llm_malformed_then_valid_reply_reprompts_once():
    policy, requests = llm_with_replies(
        ["i think we should look around", '{"tool":"detect","args":{}}']
    )
    h = WorkingMemory.fresh(Instruction(text="find the mug"), 5)
    decision = policy("find the mug", h, 5, {"tools": []})
    assert decision is not None and decision.action.tool == "detect"
    assert len(requests) == 2
    assert any("Parse error" in m["content"] for m in requests[1]["messages"])


def test_llm_double_malformed_aborts():
    policy, _ = llm_with_replies(["nope", "still nope"])
    h = WorkingMemory.fresh(Instruction(text="find the mug"), 5)
    assert policy("find the mug", h, 5, {"tools": []}) is None


def test_llm_transport_failure_aborts():
    def post(url, payload, timeout):
        raise ConnectionError("down")

    policy = ChatCompletionPolicy(
        LLMPolicyConfig(url="http://policy.local", transport_retries=1), post=post
    )
    h = WorkingMemory.fresh(Instruction(text="find the mug"), 5)
    assert policy("find the mug", h, 5, {}) is None


def test_llm_request_carries_full_trace_in_order():
    import json

    policy, requests = llm_with_replies(['{"tool":"detect","args":{}}'])
    h = WorkingMemory.fresh(Instruction(text="find the mug"), 10)
    for i in range(3):
        h = h.append(Action("navigate", {"landmark": f"spot_{i}"}),
                     Outcome("skill_result", {"success": True}))
    policy("find the mug", h, 7, {"tools": []})
    body = json.loads(requests[0]["messages"][1]["content"])
    assert body["remaining_budget"] == 7
    assert [s["action"]["args"]["landmark"] for s in body["trace"]] == ["spot_0", "spot_1", "spot_2"]
    assert len(body["trace"]) == 3
