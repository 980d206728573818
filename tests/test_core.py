"""Core type construction, serialization, captions, and action validation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objsearch.core import (
    EMPTY_CAPTION,
    Action,
    Instruction,
    MemoryRecord,
    NoiseModel,
    Outcome,
    Pose,
    SymbolicObservation,
    Timestep,
    VisibleEntity,
    WorkingMemory,
    canonical_dumps,
    canonical_loads,
    entity_phrase,
    mislabel_pool,
    noise_codes,
    noise_draws,
    normalize_yaw,
    render_caption,
    validate_action,
)
from objsearch.agent import default_registry


def make_entity(entity_id="folder_1", cls="folder", attrs=("green",), landmark="study_desk",
                containment="open-air", name=""):
    return VisibleEntity(
        entity_id=entity_id, class_label=cls, attributes=attrs,
        landmark_id=landmark, containment=containment, landmark_name=name,
    )


def make_record(t=5, day=0, x=1.0, y=2.0):
    rng = np.random.default_rng(0)
    v = rng.normal(size=32)
    v /= np.linalg.norm(v)
    obs = SymbolicObservation(
        visible_entities=(make_entity(),),
        caption="a green folder on the study desk",
    )
    return MemoryRecord(
        t=Timestep(value=t, day=day),
        pose=Pose(position=(x, y), yaw=0.5, room_id="study"),
        embedding=v,
        raw=obs,
    )


# -- construction and invariants ----------------------------------------------


def test_timestep_day_derivation():
    t = Timestep.at(450, ticks_per_day=200)
    assert t.value == 450 and t.day == 2


def test_timestep_rejects_negative():
    with pytest.raises(ValueError):
        Timestep(value=-1, day=0)


def test_pose_yaw_normalized_into_range():
    p = Pose(position=(0, 0), yaw=3 * math.pi, room_id="r")
    assert -math.pi <= p.yaw < math.pi
    assert normalize_yaw(math.pi) == pytest.approx(-math.pi)


@settings(max_examples=300, deadline=None)
@given(yaw=st.floats(-1e6, 1e6) | st.sampled_from([math.pi, -math.pi, math.nextafter(-math.pi, -math.inf),
                                                     math.nextafter(math.pi, math.inf), 3 * math.pi, -0.0]))
def test_normalize_yaw_lands_inside_and_keeps_what_is_inside(yaw):
    """normalize_yaw gives [-pi, pi), also for an angle just below -pi whose
    wrap rounds up to 2 pi, and returns an angle inside unchanged, bit for
    bit: a Pose rebuilt from its own fields, as a memory file is loaded,
    equals it."""
    wrapped = normalize_yaw(yaw)
    assert -math.pi <= wrapped < math.pi
    assert normalize_yaw(wrapped).hex() == wrapped.hex()
    pose = Pose(position=(0.0, 0.0), yaw=yaw, room_id="r")
    assert Pose(position=pose.position, yaw=pose.yaw, room_id=pose.room_id) == pose


def test_observation_rejects_duplicate_entity_ids():
    e = make_entity()
    with pytest.raises(ValueError):
        SymbolicObservation(visible_entities=(e, e), caption="x")


def test_memory_record_requires_unit_norm():
    """Not unit norm, and NaN or inf entries, whose norm compares false."""
    one_inf = np.zeros(8)
    one_inf[0] = np.inf
    for embedding in (np.ones(8), np.full(8, np.nan), one_inf):
        with pytest.raises(ValueError, match="unit norm"):
            MemoryRecord(
                t=Timestep(0, 0),
                pose=Pose(position=(0, 0), yaw=0, room_id="r"),
                embedding=embedding,
                raw=SymbolicObservation(visible_entities=(), caption="nothing notable"),
            )


def test_memory_record_rejects_non_1d_embedding():
    rec = make_record()
    for shape in ((1, 32), (32, 1)):  # unit norm, wrong rank
        with pytest.raises(ValueError, match="1-D"):
            MemoryRecord(t=rec.t, pose=rec.pose, embedding=rec.embedding.reshape(shape), raw=rec.raw)


def test_instruction_hides_annotations_after_redaction():
    instr = Instruction(text="find the mug", family="class", type="visible")
    red = instr.redacted()
    assert red.text == instr.text and red.family is None and red.type is None


# -- serialization round-trips -------------------------------------------------


@pytest.mark.parametrize(
    "value",
    [
        Pose(position=(1.25, -3.5), yaw=0.1, room_id="kitchen"),
        make_entity(),
        Instruction(text="find the mug", family="spatial", type="visible"),
        Action(tool="navigate", args={"landmark": "sink"}),
        Outcome(kind="skill_result", payload={"success": True, "skill": "navigate"}),
    ],
    ids=lambda v: type(v).__name__,
)
def test_roundtrip_byte_exact(value):
    encoded = canonical_dumps(value.to_dict())
    decoded = type(value).from_dict(canonical_loads(encoded))
    assert decoded == value
    assert canonical_dumps(decoded.to_dict()) == encoded


def test_working_memory_roundtrip():
    h = WorkingMemory.fresh(Instruction(text="find the mug"), budget=5)
    h = h.append(Action("detect"), Outcome("perception", {"entities": []}))
    encoded = canonical_dumps(h.to_dict())
    again = WorkingMemory.from_dict(canonical_loads(encoded))
    assert again == h
    assert canonical_dumps(again.to_dict()) == encoded


# -- working memory ------------------------------------------------------------


def test_working_memory_append_only():
    h0 = WorkingMemory.fresh(Instruction(text="find the mug"), budget=3)
    a1 = Action("detect")
    o1 = Outcome("perception", {"entities": []})
    h1 = h0.append(a1, o1)
    h2 = h1.append(Action("navigate", {"landmark": "sink"}),
                   Outcome("skill_result", {"success": True}))
    assert h0.steps == ()
    assert h1.steps == ((a1, o1),)
    assert h2.steps[0] == (a1, o1)
    assert h2.remaining_budget == 1
    assert len(h2.steps) == 2


def test_working_memory_budget_floor():
    h = WorkingMemory.fresh(Instruction(text="x"), budget=1)
    h = h.append(Action("detect"), Outcome("perception", {}))
    with pytest.raises(ValueError):
        h.append(Action("detect"), Outcome("perception", {}))


# -- captions --------------------------------------------------------------------


def test_caption_single_entity_template():
    caption = render_caption([make_entity()], mode="oracle")
    assert caption == "a green folder on the study desk"


def test_caption_empty_list():
    assert render_caption([], mode="oracle") == "nothing notable"


def test_caption_joins_entities_in_order():
    ents = [make_entity(), make_entity(entity_id="lamp_1", cls="lamp", attrs=())]
    caption = render_caption(ents, mode="oracle")
    assert caption == "a green folder on the study desk; a lamp on the study desk"


def test_caption_contained_entity_phrase():
    ent = make_entity(containment="inside-open-receptacle", landmark="fridge")
    assert render_caption([ent], mode="oracle") == "a green folder inside the fridge"


def test_caption_landmark_display_name_used():
    ent = make_entity(landmark="kitchen_cabinet_left", name="white cabinet")
    assert render_caption([ent], mode="oracle") == "a green folder on the white cabinet"


def test_caption_forced_drop_yields_empty_caption():
    noise = NoiseModel(p_drop=1.0, p_mislabel=0.0)
    ent = make_entity(entity_id="mug_1", cls="mug", attrs=("red",), landmark="sink")
    for draws in noise_draws(7, 0, range(200)):
        assert render_caption([ent], mode="realistic", draws=[draws], noise=noise) == "nothing notable"


def entity_draws(noise_seed, t, count):
    """The draws of a record's first count entity slots at timestep t."""
    return [noise_draws(noise_seed, j, [t])[0] for j in range(count)]


def test_caption_deterministic_per_seed():
    noise = NoiseModel(p_drop=0.3, p_mislabel=0.5)
    ents = [make_entity(entity_id=f"e{i}", cls="mug", attrs=("red",), landmark="sink") for i in range(6)]
    a = render_caption(ents, mode="realistic", draws=entity_draws(11, 0, 6), noise=noise)
    b = render_caption(ents, mode="realistic", draws=entity_draws(11, 0, 6), noise=noise)
    assert a == b
    c = render_caption(ents, mode="realistic", draws=entity_draws(12, 0, 6), noise=noise)
    # Other seeds exist that collide, but this pair is pinned not to.
    assert a != c
    # The draws are all that varies: oracle mode takes none, realistic needs
    # one row per entity.
    assert render_caption(ents, mode="oracle") == "; ".join(["a red mug on the sink"] * 6)
    with pytest.raises(ValueError):
        render_caption(ents, mode="realistic", draws=entity_draws(11, 0, 5), noise=noise)
    with pytest.raises(ValueError):
        render_caption(ents, mode="realistic", noise=noise)


NOISES = [
    NoiseModel(),
    NoiseModel(p_drop=0.3, p_mislabel=0.5, label_pool=("mug", "book", "toy")),
    NoiseModel(p_drop=0.0, p_mislabel=1.0, label_pool=("mug",)),
    NoiseModel(p_drop=1.0, p_mislabel=1.0, label_pool=()),
]


def draw_value(noise):
    """A draw in [0, 1): any, or one on an edge of the rule (p_drop,
    p_mislabel, the largest double below 1)."""
    return st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                     st.sampled_from([0.0, noise.p_drop, noise.p_mislabel, 1 - 2**-53]).filter(lambda u: u < 1))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), noise=st.sampled_from(NOISES),
       labels=st.lists(st.sampled_from(["mug", "book", "toy", "plant"]), max_size=5))
def test_caption_is_the_join_of_coded_entity_phrases(data, noise, labels):
    """render_caption is the "; " join of entity_phrase over noise_codes (or
    EMPTY_CAPTION), and each code follows the rule read one draw at a time:
    drop when u_drop < p_drop, else the pool label at floor(u_label * pool
    size) when u_mislabel < p_mislabel, else keep."""
    ents = [make_entity(entity_id=f"e{i}", cls=label, attrs=("red",) * (i % 2), landmark="sink")
            for i, label in enumerate(labels)]
    u = draw_value(noise)
    draws = [data.draw(st.tuples(u, u, u, st.just(0.5))) for _ in ents]
    sizes = [len(mislabel_pool(e, noise)) for e in ents]
    codes = noise_codes(np.array(draws).reshape(-1, 4), sizes, noise).tolist()
    phrases = [entity_phrase(e, code, noise) for e, code in zip(ents, codes) if code >= 0]
    assert render_caption(ents, "realistic", draws, noise) == ("; ".join(phrases) or EMPTY_CAPTION)
    for ent, (u_drop, u_mislabel, u_label, _), size, code in zip(ents, draws, sizes, codes):
        pool = [c for c in noise.label_pool if c != ent.class_label] or [ent.class_label]
        assert mislabel_pool(ent, noise) == pool
        if u_drop < noise.p_drop:
            assert code == -1 and entity_phrase(ent, code, noise) is None
        elif u_mislabel < noise.p_mislabel:
            label = pool[int(u_label * len(pool))]
            assert entity_phrase(ent, code, noise) == entity_phrase(replace(ent, class_label=label))
        else:
            assert code == 0
    assert render_caption(ents, "oracle") == ("; ".join(entity_phrase(e) for e in ents) or EMPTY_CAPTION)


def test_caption_mislabel_substitutes_class():
    noise = NoiseModel(p_drop=0.0, p_mislabel=1.0, label_pool=("mug", "book"))
    ent = make_entity(entity_id="m", cls="mug", attrs=(), landmark="sink")
    for draws in noise_draws(3, 0, range(200)):
        assert render_caption([ent], mode="realistic", draws=[draws], noise=noise) == "a book on the sink"
    # The label is pool[floor(u_label * len(pool))], the pool without the
    # true label; a pool of the true label alone keeps it.
    noise = NoiseModel(p_drop=0.0, p_mislabel=1.0, label_pool=("mug", "book", "toy"))
    for u_label, label in ((0.0, "book"), (0.4999, "book"), (0.5, "toy"), (1 - 2**-53, "toy")):
        assert render_caption([ent], "realistic", [(0.5, 0.5, u_label, 0.5)], noise) == f"a {label} on the sink"
    lone = NoiseModel(p_drop=0.0, p_mislabel=1.0, label_pool=("mug",))
    assert render_caption([ent], "realistic", [(0.5, 0.5, 0.9, 0.5)], lone) == "a mug on the sink"
    # Drop is decided first, then mislabel, each by its own draw.
    noise = NoiseModel(p_drop=0.5, p_mislabel=0.5, label_pool=("mug", "book"))
    assert render_caption([ent], "realistic", [(0.49, 0.0, 0.0, 0.0)], noise) == "nothing notable"
    assert render_caption([ent], "realistic", [(0.5, 0.49, 0.0, 0.0)], noise) == "a book on the sink"
    assert render_caption([ent], "realistic", [(0.5, 0.5, 0.0, 0.0)], noise) == "a mug on the sink"


@settings(max_examples=60, deadline=None)
@given(
    noise_seed=st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**63, 2**64 - 1]),
    slot=st.integers(0, 40),
    timesteps=st.sets(st.integers(0, 2**40), max_size=30).map(sorted),
    stretch=st.integers(0, 40),
)
def test_noise_draws_rows_are_the_counter_form(noise_seed, slot, timesteps, stretch):
    """Row i of a slot's block is the draw of a generator keyed by (noise
    seed, slot) at counter t_i, whether t_i starts a stretch of consecutive
    timesteps or continues one."""
    ts = sorted(set(timesteps) | set(range(1000, 1000 + stretch)))
    block = noise_draws(noise_seed, slot, ts)
    assert block.shape == (len(ts), 4)
    for t, row in zip(ts, block):
        key = np.array([noise_seed, slot], dtype=np.uint64)  # a list of Python ints may go through float64
        want = np.random.Generator(np.random.Philox(key=key, counter=t)).random(4)
        assert row.tobytes() == want.tobytes()


def test_noise_draws_refuse_a_seed_outside_the_key():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            noise_draws(seed, 0, [0])


# -- action validation -----------------------------------------------------------


@pytest.fixture(scope="module")
def registry():
    from objsearch.homesim import generate_world

    world, _ = generate_world(1, 1)
    return default_registry(world)


def test_validate_navigate_ok(registry):
    assert validate_action(Action("navigate", {"landmark": "study_desk"}), registry) == []


def test_validate_wrong_arg_kind(registry):
    errors = validate_action(Action("navigate", {"timestamp": 5}), registry)
    assert errors and any("timestamp" in e for e in errors)


def test_validate_unknown_tool(registry):
    errors = validate_action(Action("unknown_tool", {}), registry)
    assert errors and "unknown tool" in errors[0]


def test_validate_enum_membership(registry):
    errors = validate_action(Action("navigate", {"landmark": "narnia"}), registry)
    assert errors and "allowed values" in errors[0]


def test_validate_temporal_query_forms(registry):
    assert validate_action(Action("temporal_query", {"timestep": 5}), registry) == []
    assert validate_action(Action("temporal_query", {"day_start": 0, "day_end": 1}), registry) == []
    assert validate_action(Action("temporal_query", {}), registry) != []
    assert validate_action(
        Action("temporal_query", {"timestep": 5, "day_start": 0, "day_end": 1}), registry
    ) != []
    assert validate_action(Action("temporal_query", {"day_start": 0}), registry) != []


def test_validate_type_checks(registry):
    assert validate_action(Action("spatial_query", {"x": 1, "y": 2.0, "radius": 3}), registry) == []
    errors = validate_action(Action("spatial_query", {"x": "a", "y": 2.0, "radius": 3}), registry)
    assert errors and "expected float" in errors[0]
