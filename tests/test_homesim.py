"""Simulator: world generation, patrol streams, skills, scene graphs."""

import functools
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from objsearch.core import (
    CONTAINMENT_INSIDE_OPEN,
    ObservationStream,
    SymbolicObservation,
    Timestep,
    render_caption,
)
from objsearch.homesim import (
    LOC_INSIDE,
    LOC_INVENTORY,
    LOC_LANDMARK,
    Location,
    Move,
    SCENE_IDS,
    Schedule,
    ambient_schedule,
    detect,
    export_scene_graph,
    fast_forward,
    generate_world,
    graph_diff,
    navigate,
    open_receptacle,
    patrol,
    patrol_route,
    pick,
    scene_casting,
    read_stream,
    room_segment,
    write_stream,
)


def world_with(moves=()):
    world, _ = generate_world(1, 1)
    return world, Schedule(seed=0, moves=tuple(moves))


# -- generation -----------------------------------------------------------------


def test_generation_deterministic():
    w1, s1 = generate_world(1, 1)
    w2, s2 = generate_world(1, 1)
    assert w1.to_dict() == w2.to_dict()
    assert s1.to_dict() == s2.to_dict()


def test_three_scenes_available():
    assert SCENE_IDS == (1, 2, 3)
    for scene in SCENE_IDS:
        world, _ = generate_world(0, scene)
        assert world.scene_id == scene
    with pytest.raises(ValueError):
        generate_world(0, 4)


@pytest.mark.parametrize("scene", SCENE_IDS)
def test_scene_structural_minimums(scene):
    world, _ = generate_world(5, scene)
    assert len(world.rooms) >= 4
    assert len(world.landmarks) >= 8
    assert len(world.objects) >= 12
    assert len({o.class_label for o in world.objects.values()}) >= 5
    # At least two visually identical receptacle pairs in the same room.
    twins = {}
    for lm in world.landmarks.values():
        if lm.is_receptacle:
            twins.setdefault((lm.name, lm.room_id), []).append(lm.landmark_id)
    pairs = [ids for ids in twins.values() if len(ids) >= 2]
    assert len(pairs) >= 2
    # Attribute variation within at least one class.
    by_class = {}
    for o in world.objects.values():
        by_class.setdefault(o.class_label, set()).add(o.attributes)
    assert any(len(v) >= 2 for v in by_class.values())


@pytest.mark.parametrize("scene", SCENE_IDS)
def test_referential_integrity(scene):
    world, schedule = generate_world(9, scene)
    for obj in world.objects.values():
        assert obj.location.kind in (LOC_LANDMARK, LOC_INSIDE)
        assert obj.location.ref in world.landmarks
    for move in schedule.moves:
        assert move.entity_id in world.objects
        assert move.location.ref in world.landmarks


# -- patrol ----------------------------------------------------------------------


def test_patrol_length_and_days():
    world, schedule = generate_world(2, 1)
    stream = patrol(world, schedule, days=3)
    assert len(stream) == 600
    assert stream[0][0].value == 0
    assert stream[-1][0].value == 599
    assert stream[-1][0].day == 2
    assert world.clock == 600


def test_patrol_day_range_enforced():
    world, schedule = generate_world(2, 1)
    with pytest.raises(ValueError):
        patrol(world, schedule, days=2)
    world2, schedule2 = generate_world(2, 1)
    with pytest.raises(ValueError):
        patrol(world2, schedule2, days=7)


def test_patrol_full_scale_band():
    world, schedule = generate_world(2, 1, ticks_per_day=1300)
    stream = patrol(world, schedule, days=3)
    assert len(stream) == 3900
    per_day = len(stream) // 3
    assert 1200 <= per_day <= 1500


def test_patrol_visits_every_landmark_each_day():
    world, schedule = generate_world(2, 1)
    stream = patrol(world, schedule, days=3)
    tpd = world.ticks_per_day
    route = set(patrol_route(world))
    for day in range(3):
        focused = set()
        for t, pose, obs in stream[day * tpd : (day + 1) * tpd]:
            for lm in world.landmarks.values():
                if lm.room_id == pose.room_id:
                    focused.add(lm.landmark_id)
        # Room-scoped focus: being in the room covers its landmarks.
        assert focused == route


def test_patrol_pose_inside_room_bounds():
    world, schedule = generate_world(2, 1)
    stream = patrol(world, schedule, days=3)
    for _, pose, _ in stream[:250]:
        assert world.rooms[pose.room_id].contains(pose.position)


def test_scheduled_move_visible_across_days():
    world, _ = generate_world(1, 1)
    move = Move(day=1, tick_of_day=0, entity_id="toy_1", location=Location(LOC_LANDMARK, "sofa"))
    schedule = Schedule(seed=0, moves=(move,))
    stream = patrol(world, schedule, days=3)
    tpd = world.ticks_per_day

    def seen_at(day):
        spots = set()
        for t, pose, obs in stream[day * tpd : (day + 1) * tpd]:
            for ent in obs.visible_entities:
                if ent.entity_id == "toy_1":
                    spots.add(ent.landmark_id)
        return spots

    assert seen_at(0) == {"bed"}
    assert seen_at(1) == {"sofa"}
    assert seen_at(2) == {"sofa"}


def test_fast_forward_matches_patrol_end_state():
    w1, s1 = generate_world(4, 2)
    patrol(w1, s1, days=3)
    w2, s2 = generate_world(4, 2)
    fast_forward(w2, s2, days=3)
    assert w1.clock == w2.clock
    assert w1.robot_focus == w2.robot_focus
    assert {o.entity_id: o.location for o in w1.objects.values()} == {
        o.entity_id: o.location for o in w2.objects.values()
    }


def reference_patrol(world, schedule, days):
    """Patrol with every view recomputed on every tick: the oracle for the
    view reuse inside patrol()."""
    tpd = world.ticks_per_day
    route = patrol_route(world)
    stream = []
    for _ in range(days):
        for tick in range(tpd):
            world.sync(schedule)
            landmark_id = route[tick * len(route) // tpd]
            world.robot_pose = world.approach_pose(landmark_id)
            world.robot_focus = landmark_id
            entities = tuple(world.visible_entities())
            obs = SymbolicObservation(visible_entities=entities, caption=render_caption(entities))
            stream.append((Timestep.at(world.clock, tpd), world.robot_pose, obs))
            world.clock += 1
    world.sync(schedule)
    return stream


def world_end_state(world):
    return (
        world.to_dict(),
        world.robot_pose,
        world.robot_focus,
        list(world.applied_moves),
        dict(world.receptacle_open),
        list(world.inventory),
    )


def busy_schedule(world, days):
    """Ambient drift plus moves that land mid-day: across rooms, into a closed
    receptacle and back out again."""
    tpd = world.ticks_per_day
    drift = ambient_schedule(world, scene_casting(world.scene_id)["drifters"], seed=11,
                             days=days, moves_per_day=4)
    placed = [o for o in world.objects.values() if o.location.kind == LOC_LANDMARK]
    recep = next(lm for lm in world.landmarks.values() if lm.is_receptacle)
    mover, hider = placed[0], placed[1]
    far = next(
        lm for lm in world.landmarks.values()
        if not lm.is_receptacle and lm.room_id != world.landmarks[mover.location.ref].room_id
    )
    extra = (
        Move(0, tpd // 3, hider.entity_id, Location(LOC_INSIDE, recep.landmark_id)),
        Move(1, tpd // 2 + 3, mover.entity_id, Location(LOC_LANDMARK, far.landmark_id)),
        Move(days - 1, tpd // 2, hider.entity_id, hider.location),
    )
    return Schedule(seed=0, moves=drift.moves + extra)


@pytest.mark.parametrize("tpd", [200, 1300])
@pytest.mark.parametrize("scene", SCENE_IDS)
def test_patrol_equals_per_tick_reference(scene, tpd):
    days = 3
    w1, _ = generate_world(6, scene, ticks_per_day=tpd)
    w2, _ = generate_world(6, scene, ticks_per_day=tpd)
    schedule = busy_schedule(w1, days)
    assert any(0 < m.tick_of_day < tpd - 1 for m in schedule.moves)
    stream = patrol(w1, schedule, days)
    assert stream == reference_patrol(w2, schedule, days)
    assert world_end_state(w1) == world_end_state(w2)
    assert len(w1.applied_moves) == len(schedule.moves)
    # Views are shared between ticks, not recomputed per tick.
    assert len({id(obs) for _, _, obs in stream}) < len(stream) // 5


@st.composite
def patrol_setups(draw):
    """A world, a schedule and a start state for a 3-day patrol. Moves fall
    at tick 0, on route-slot boundaries, anywhere, several on one tick, and
    off the day (tick_of_day below 0 or past ticks_per_day, which
    Schedule.check refuses): those make the schedule's absolute ticks
    unsorted. Some receptacles may start open, and the clock past 0."""
    days = 3
    scene = draw(st.sampled_from(SCENE_IDS), label="scene")
    route_length = len(patrol_route(generate_world(6, scene)[0]))
    tpd = draw(st.sampled_from([route_length, 200, 1300]), label="tpd")
    world, _ = generate_world(6, scene, ticks_per_day=tpd)
    boundaries = [t for t in range(tpd) if t * route_length // tpd != (t - 1) * route_length // tpd]
    when = st.one_of(
        st.just((0, 0)),
        st.tuples(st.integers(0, days - 1), st.sampled_from(boundaries)),
        st.tuples(st.integers(0, days), st.integers(0, tpd - 1)),
        st.tuples(st.integers(0, days - 1), st.integers(tpd, 2 * tpd)),
        st.tuples(st.integers(1, days), st.integers(-tpd, -1)),
    )
    places = [Location(LOC_LANDMARK, lm) for lm in world.landmarks] + [
        Location(LOC_INSIDE, lm) for lm in world.receptacle_open
    ]
    moves = []
    for _ in range(draw(st.integers(0, 12), label="moves")):
        if moves and draw(st.booleans(), label="same tick as the last"):
            day, tick = moves[-1].day, moves[-1].tick_of_day
        else:
            day, tick = draw(when, label="when")
        moves.append(Move(day, tick, draw(st.sampled_from(sorted(world.objects))), draw(st.sampled_from(places))))
    opened = draw(st.lists(st.sampled_from(sorted(world.receptacle_open)), unique=True, max_size=2), label="open")
    clock = draw(st.sampled_from([0, 0, tpd // 2 + 1, tpd]), label="start clock")
    return scene, tpd, days, Schedule(seed=0, moves=tuple(moves)), opened, clock


@settings(max_examples=40, deadline=None)
@given(setup=patrol_setups())
def test_patrol_runs_equal_per_tick_reference_on_any_schedule(setup):
    scene, tpd, days, schedule, opened, clock = setup
    worlds = []
    for _ in range(2):
        world, _ = generate_world(6, scene, ticks_per_day=tpd)
        world.receptacle_open.update(dict.fromkeys(opened, True))
        world.clock = clock
        worlds.append(world)
    stream = patrol(worlds[0], schedule, days)
    reference = reference_patrol(worlds[1], schedule, days)
    assert stream == reference and reference == stream
    assert world_end_state(worlds[0]) == world_end_state(worlds[1])


def test_patrol_makes_no_per_tick_object(monkeypatch):
    world, _ = generate_world(6, 2, ticks_per_day=1300)
    schedule = busy_schedule(world, 3)

    def refuse(self):
        raise AssertionError("patrol made a Timestep")

    monkeypatch.setattr(Timestep, "__post_init__", refuse)
    stream = patrol(world, schedule, 3)
    monkeypatch.undo()
    assert len(stream) == 3900
    assert len(list(stream.runs())) < len(stream) // 50


@functools.lru_cache(maxsize=None)
def small_stream():
    world, schedule = generate_world(2, 1)
    return patrol(world, schedule, days=3)


indices = st.one_of(st.none(), st.integers(-700, 700))


@settings(max_examples=60, deadline=None)
@given(i=st.integers(-600, 599), start=indices, stop=indices,
       step=st.one_of(st.none(), st.integers(-9, 9).filter(bool)))
def test_stream_sequence_protocol_matches_its_list(i, start, stop, step):
    stream = small_stream()
    ticks = list(stream)
    assert len(stream) == len(ticks) == 600 == sum(run[2] for run in stream.runs())
    assert stream[i] == ticks[i]
    part = slice(start, stop, step)
    assert stream[part] == ticks[part] and ticks[part] == stream[part]
    assert list(stream[part]) == ticks[part] and len(stream[part]) == len(ticks[part])
    assert stream == ticks and ticks == stream and stream == tuple(ticks) and tuple(ticks) == stream
    assert ObservationStream.of(stream) is stream
    assert list(ObservationStream.of(ticks).runs()) == list(stream.runs())
    other = list(ticks)
    t, pose, obs = other[i]
    other[i] = (Timestep(t.value, t.day + 1), pose, obs)
    assert stream != other and other != stream
    assert stream != ticks[:-1] and ticks[:-1] != stream
    for bad in (600, -601):
        with pytest.raises(IndexError):
            stream[bad]
    with pytest.raises(TypeError):
        hash(stream)


def test_stream_and_memory_files_are_frozen(tmp_path):
    """write_stream and persist bytes of a 1300-ticks/day busy-schedule
    stream, as written before patrol and build worked per run."""
    from objsearch.embed import Embedder, EmbedderConfig
    from objsearch.memstore import build, persist

    world, _ = generate_world(6, 2, ticks_per_day=1300)
    stream = patrol(world, busy_schedule(world, 3), 3)
    path = tmp_path / "file.jsonl"
    write_stream(str(path), stream)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "eebab153be969180b31fda1db3935383813b4b183b7b4954445abb80a143e6be"
    )
    embedder = Embedder(EmbedderConfig(d=64))
    for mode, digest in (
        ("oracle", "8136966b7819e37ea626ba39aa5f4b1f732f1128518062d0a98ddca0b4697ac5"),
        ("realistic", "805a4aeca122b733068096a0f70dbdce0a0d1fce3ed1c76a3d291099c959a82f"),
    ):
        memory = build(stream, embedder, mode=mode, noise_seed=2, snapshot_every=7, ticks_per_day=1300)
        persist(memory, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, mode


@settings(max_examples=30, deadline=None)
@given(scene=st.sampled_from(SCENE_IDS), tpd=st.sampled_from([200, 1300]), data=st.data())
def test_world_at_tick_composes_and_equals_per_tick_reference(scene, tpd, data):
    """start.at(s, t2) is start.at(s, t1).at(s, t2) is the start world
    advanced one tick at a time to t2; the start world is left as it is,
    and a copy cannot go back in time."""
    days = 3
    start, _ = generate_world(6, scene, ticks_per_day=tpd)
    schedule = busy_schedule(start, days)
    t1 = data.draw(st.integers(0, days * tpd), label="t1")
    t2 = data.draw(st.integers(t1, days * tpd), label="t2")
    before = world_end_state(start)
    direct = start.at(schedule, t2)
    chained = start.at(schedule, t1).at(schedule, t2)
    reference, _ = generate_world(6, scene, ticks_per_day=tpd)
    reference.sync(schedule)
    for _ in range(t2):
        reference.advance(schedule)
    assert world_end_state(direct) == world_end_state(chained) == world_end_state(reference)
    assert world_end_state(start) == before
    if t2 > 0:
        with pytest.raises(ValueError, match="before the world clock"):
            direct.at(schedule, data.draw(st.integers(0, t2 - 1), label="earlier"))
    # What happens in a copy stays in it.
    held = next(iter(direct.objects.values()))
    held.location = Location(LOC_INVENTORY)
    direct.inventory.append(held.entity_id)
    direct.receptacle_open[next(iter(direct.receptacle_open))] = True
    direct.applied_moves.clear()
    assert world_end_state(start) == before
    assert world_end_state(chained) == world_end_state(reference)


def test_stream_file_round_trip(tmp_path):
    world, schedule = generate_world(2, 1)
    stream = patrol(world, schedule, days=3)
    path = str(tmp_path / "stream.jsonl")
    write_stream(path, stream, meta={"config": {"ticks_per_day": 200}})
    header, loaded = read_stream(path)
    assert len(loaded) == len(stream)
    assert loaded[5][0] == stream[5][0]
    assert loaded[5][1] == stream[5][1]
    assert loaded[5][2].visible_entities == stream[5][2].visible_entities
    # Consecutive ticks with equal entity lists share one observation, as
    # patrol's repeated views do.
    for (_, _, prev), (_, _, obs) in zip(loaded, loaded[1:]):
        assert (obs is prev) == (obs.visible_entities == prev.visible_entities)
    assert len({id(obs) for _, _, obs in loaded}) <= len({id(obs) for _, _, obs in stream})
    # Corruption is caught.
    text = open(path).read()
    open(path, "w").write(text.replace("toy", "tyo", 1))
    with pytest.raises(ValueError, match="checksum"):
        read_stream(path)


def test_room_segment_covers_whole_day():
    world, _ = generate_world(2, 1)
    segs = [room_segment(world, room) for room in world.rooms]
    assert segs[0][0] == 0
    assert segs[-1][1] == world.ticks_per_day - 1
    for (s0, e0), (s1, e1) in zip(segs, segs[1:]):
        assert e0 + 1 == s1


# -- skills -----------------------------------------------------------------------


def test_navigate_success_and_room():
    world, schedule = world_with()
    result = navigate(world, schedule, "study_desk")
    assert result.success
    assert world.robot_pose.room_id == "study"
    assert world.robot_focus == "study_desk"


def test_navigate_unknown_landmark_is_failure_not_exception():
    world, schedule = world_with()
    result = navigate(world, schedule, "nonexistent")
    assert not result.success and result.reason == "unknown landmark"


def test_clock_advances_per_skill():
    world, schedule = world_with()
    start = world.clock
    navigate(world, schedule, "sink")
    navigate(world, schedule, "sofa")
    assert world.clock == start + 2
    detect(world, schedule)
    assert world.clock == start + 3


def test_detect_sees_room_open_air():
    world, schedule = world_with()
    navigate(world, schedule, "sink")
    det = detect(world, schedule)
    ids = {e.entity_id for e in det.entities}
    assert "mug_1" in ids and "mug_2" in ids
    assert "folder_1" not in ids  # other room


def test_closed_receptacle_contents_hidden():
    world, schedule = world_with()
    navigate(world, schedule, "fridge")
    det = detect(world, schedule)
    assert "milk_1" not in {e.entity_id for e in det.entities}


def test_open_then_detect_reveals_contents():
    world, schedule = world_with()
    navigate(world, schedule, "fridge")
    assert open_receptacle(world, schedule, "fridge").success
    det = detect(world, schedule)
    milk = [e for e in det.entities if e.entity_id == "milk_1"]
    assert milk and milk[0].containment == CONTAINMENT_INSIDE_OPEN


def test_open_out_of_reach():
    world, schedule = world_with()
    navigate(world, schedule, "sofa")
    result = open_receptacle(world, schedule, "fridge")
    assert not result.success and result.reason == "out of reach"


def test_open_non_receptacle():
    world, schedule = world_with()
    navigate(world, schedule, "study_desk")
    result = open_receptacle(world, schedule, "study_desk")
    assert not result.success and result.reason == "not a receptacle"


def test_open_contents_only_visible_at_focus():
    world, schedule = world_with()
    navigate(world, schedule, "fridge")
    open_receptacle(world, schedule, "fridge")
    navigate(world, schedule, "sink")
    det = detect(world, schedule)
    assert "milk_1" not in {e.entity_id for e in det.entities}


def test_pick_visible_entity():
    world, schedule = world_with()
    navigate(world, schedule, "sink")
    detect(world, schedule)
    result = pick(world, schedule, "mug_1")
    assert result.success
    assert world.inventory == ["mug_1"]
    assert world.objects["mug_1"].location.kind == "inventory"


def test_pick_hidden_entity_fails():
    world, schedule = world_with()
    navigate(world, schedule, "fridge")
    result = pick(world, schedule, "milk_1")
    assert not result.success and result.reason == "not visible"


def test_pick_already_held():
    world, schedule = world_with()
    navigate(world, schedule, "sink")
    pick(world, schedule, "mug_1")
    result = pick(world, schedule, "mug_1")
    assert not result.success and result.reason == "already held"


def test_object_conservation_under_moves_and_picks():
    world, schedule = world_with(
        [Move(0, 0, "toy_1", Location(LOC_LANDMARK, "sofa"))]
    )
    before = sorted(world.objects)
    patrol(world, schedule, days=3)
    navigate(world, schedule, "sink")
    pick(world, schedule, "mug_1")
    assert sorted(world.objects) == before


def test_occlusion_soundness_randomized():
    import random

    rng = random.Random(0)
    for trial in range(10):
        world, schedule = generate_world(rng.randrange(100), rng.choice(SCENE_IDS))
        landmarks = list(world.landmarks)
        for _ in range(15):
            navigate(world, schedule, rng.choice(landmarks))
            if rng.random() < 0.3 and world.robot_focus in world.receptacle_open:
                open_receptacle(world, schedule, world.robot_focus)
            det = detect(world, schedule)
            for ent in det.entities:
                obj = world.objects[ent.entity_id]
                if obj.location.kind == LOC_INSIDE:
                    assert world.receptacle_open[obj.location.ref]
                    assert world.robot_focus == obj.location.ref


# -- scene graphs --------------------------------------------------------------------


def graph_days(days=3):
    """Day graphs of a world whose toy moves at the start of day 1: each one
    a copy of the start world at the day's last tick."""
    start, _ = generate_world(1, 1)
    move = Move(day=1, tick_of_day=0, entity_id="toy_1", location=Location(LOC_LANDMARK, "sofa"))
    schedule = Schedule(seed=0, moves=(move,))
    tpd = start.ticks_per_day
    return [export_scene_graph(start.at(schedule, (d + 1) * tpd - 1)) for d in range(days)]


def test_scene_graph_at_edge():
    g0 = graph_days()[0]
    assert ("mug_1", "at", "sink") in g0.edges
    assert ("toy_1", "at", "bed") in g0.edges


def test_scene_graph_day_diff_is_exactly_the_move():
    g0, g1, g2 = graph_days()
    diff = graph_diff(g0, g1)
    assert diff["added"] == [("toy_1", "at", "sofa")]
    assert diff["removed"] == [("toy_1", "at", "bed")]
    assert graph_diff(g1, g2) == {"added": [], "removed": []}


def test_scene_graph_stable_node_ids():
    for g in graph_days():
        assert g.node("mug_1") is not None
        assert g.node("mug_1")["label"] == "mug"


def test_scene_graph_day_out_of_range():
    """A graph is labelled with its world's day; a day that a world's clock
    has passed is out of its reach, and is taken from the start world."""
    assert [g.day for g in graph_days()] == [0, 1, 2]
    world, schedule = generate_world(1, 1)
    patrol(world, schedule, days=3)
    assert export_scene_graph(world).day == 3
    with pytest.raises(ValueError):
        world.at(schedule, world.ticks_per_day - 1)


def test_scene_graph_includes_rooms_landmarks_containment():
    g = graph_days()[0]
    kinds = {n["kind"] for n in g.nodes}
    assert kinds == {"room", "landmark", "receptacle", "object"}
    assert ("milk_1", "inside", "fridge") in g.edges
    assert ("sink", "in_room", "kitchen") in g.edges


def test_stream_meta_cannot_displace_format_keys(tmp_path):
    world, schedule = generate_world(2, 1)
    stream = patrol(world, schedule, days=3)
    path = str(tmp_path / "stream.jsonl")
    write_stream(path, stream, meta={"count": 3, "format": "other", "version": 9, "note": "kept"})
    header, loaded = read_stream(path)
    assert (header["count"], header["format"], header["version"]) == (600, "patrol-stream", 1)
    assert header["note"] == "kept" and len(loaded) == 600


def test_read_stream_rejects_other_formats(tmp_path):
    from objsearch import artifacts
    from objsearch.embed import EmbedderConfig
    from objsearch.memstore import build, persist

    world, schedule = generate_world(2, 1)
    stream = patrol(world, schedule, days=3)
    path = str(tmp_path / "memory.jsonl")
    persist(build(stream[:20], EmbedderConfig(d=16)), path)
    with pytest.raises(ValueError, match="malformed header: missing 'format'"):
        read_stream(path)
    artifacts.write(path, {"format": "patrol-stream", "version": 2}, [])
    with pytest.raises(ValueError, match="unsupported version 2, expected 1"):
        read_stream(path)
