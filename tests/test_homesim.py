"""Simulator: world generation, patrol streams, skills, scene graphs."""

import functools
import hashlib
import re

import pytest
from conftest import rewrite_line
from hypothesis import given, settings
from hypothesis import strategies as st

from objsearch.core import (
    CONTAINMENT_INSIDE_OPEN,
    ObservationStream,
    Pose,
    SymbolicObservation,
    Timestep,
    VisibleEntity,
    canonical_dumps,
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
    day_graphs,
    detect,
    export_scene_graph,
    fast_forward,
    generate_world,
    navigate,
    open_receptacle,
    patrol,
    patrol_route,
    pick,
    route_length,
    scene_casting,
    scene_world,
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


def test_generate_world_is_scene_world_plus_its_ambient_schedule():
    """generate_world's world is scene_world's, and its worlds and ambient
    schedules are frozen: the digest is that of the worlds and schedules
    generate_world made before scene_world was split out of it."""
    digest = hashlib.sha256()
    for scene in SCENE_IDS:
        for tpd in (200, 1300):
            for seed in (0, 6, 41):
                world, schedule = generate_world(seed, scene, ticks_per_day=tpd)
                assert world.to_dict() == scene_world(seed, scene, ticks_per_day=tpd).to_dict()
                digest.update(canonical_dumps([world.to_dict(), schedule.to_dict()]).encode() + b"\n")
    assert digest.hexdigest() == "43a319bb7409cfee9f9ca3dc140f297356c43170585f43b7f43f91e792f1371d"


@settings(max_examples=50, deadline=None)
@given(scene=st.sampled_from(SCENE_IDS), seeds=st.lists(st.integers(0, 2**63 - 1), min_size=2, max_size=2),
       tpd=st.sampled_from([200, 1300]))
def test_a_scene_world_is_the_same_for_every_layout_seed(scene, seeds, tpd):
    """The layout seed is only recorded: two seeds' worlds of a scene are
    equal but for it."""
    a, b = (scene_world(seed, scene, ticks_per_day=tpd).to_dict() for seed in seeds)
    assert [a.pop("layout_seed"), b.pop("layout_seed")] == seeds
    assert a == b


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


@pytest.mark.parametrize("scene", SCENE_IDS)
def test_route_length_is_the_shortest_day_patrol_accepts(scene):
    """route_length gives a scene's route length without a world, for
    checking task files: patrol covers a day of that many ticks and refuses
    one tick fewer."""
    n = route_length(scene)
    world, schedule = generate_world(0, scene, ticks_per_day=n)
    assert len(patrol_route(world)) == n
    assert len(patrol(world, schedule, days=3)) == 3 * n
    short, schedule = generate_world(0, scene, ticks_per_day=n - 1)
    with pytest.raises(ValueError, match=f"ticks_per_day={n - 1} cannot cover the {n}-landmark route"):
        patrol(short, schedule, days=3)


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
    stream: stream file v2 and memory file v8, the realistic memory as noise
    model v2 draws its captions. Each memory file loads to the records that
    the memory file v7 of the same memory loaded to, whose x, y, yaw and
    room run columns it holds as a pose column and a pose table."""
    from objsearch.embed import Embedder, EmbedderConfig
    from objsearch.memstore import build, persist

    world, _ = generate_world(6, 2, ticks_per_day=1300)
    stream = patrol(world, busy_schedule(world, 3), 3)
    path = tmp_path / "file.jsonl"
    write_stream(str(path), stream)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "0411e32b1391f57202d171c9e2a2654702dcf5cb1f93c62548e26ebff2358440"
    )
    assert list(read_stream(str(path))[1].runs()) == list(stream.runs())
    embedder = Embedder(EmbedderConfig(d=64))
    for mode, digest in (
        ("oracle", "3aaf3324ae8bb4c64667adf4fd5791c7639f3b28cd72bfe5c58d904b3b13c3fe"),
        ("realistic", "0ee6647b2bb63fdd850f0a1752a195a1df0f8fb9c609d4b9f2299f9f005a5799"),
    ):
        memory = build(stream, embedder, mode=mode, noise_seed=2, ticks_per_day=1300)
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


# Poses equal as values (0.0 == -0.0) and not, and entity lists: one, an
# equal copy of it, another, none.
STREAM_POSES = [((0.0, 1.0), 0.5, "kitchen"), ((-0.0, 1.0), 0.5, "kitchen"), ((2.5, 1.0), -3.0, "study")]
STREAM_VIEWS = [("mug_1",), ("mug_1",), ("mug_1", "book_1"), ()]


def stream_entities(ids):
    return tuple(VisibleEntity(entity_id=e, class_label=e.split("_")[0], attributes=("red",), landmark_id="desk")
                 for e in ids)


@settings(max_examples=60, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6), st.integers(0, 2), st.integers(0, 3)),
                     max_size=12))
def test_stream_file_v2_keeps_runs_and_sharing(tmp_path_factory, runs):
    """Over random streams of runs (gap, length, pose, view), 10 ticks a
    day, that share a pose or an observation object exactly where
    consecutive runs have equal ones: the stream read back from its file
    has the same runs, one record per run, and the same sharing."""
    made, t = [], 0
    for gap, length, pose, view in runs:
        t += gap
        length = min(length, 10 - t % 10)
        p = Pose(*STREAM_POSES[pose])
        entities = stream_entities(STREAM_VIEWS[view])
        if made and made[-1][3] == p:
            p = made[-1][3]
        if made and made[-1][4].visible_entities == entities:
            obs = made[-1][4]
        else:
            obs = SymbolicObservation(entities, render_caption(entities, mode="oracle"))
        made.append((t, t // 10, length, p, obs))
        t += length
    stream = ObservationStream(made)
    path = str(tmp_path_factory.mktemp("stream") / "stream.jsonl")
    write_stream(path, stream)
    header, loaded = read_stream(path)
    got = list(loaded.runs())
    assert header["count"] == len(got) == len(made)
    assert got == made and loaded == stream
    for k in range(1, len(got)):
        assert (got[k][3] is got[k - 1][3]) == (made[k][3] is made[k - 1][3])
        assert (got[k][4] is got[k - 1][4]) == (made[k][4] is made[k - 1][4])


@pytest.mark.parametrize("edit, message", [
    (lambda run: {**run, "length": 0}, "run 1: bad run: t0=5, day=0, length=0"),
    (lambda run: {**run, "t0": -1}, "run 1: bad run: t0=-1, day=0, length=2"),
    (lambda run: {**run, "day": True}, "run 1: day must be a JSON integer, got True"),
    (lambda run: {**run, "length": 2.0}, "run 1: length must be a JSON integer, got 2.0"),
    (lambda run: {k: v for k, v in run.items() if k != "pose"}, "run 1: 'pose'"),
    # A pose's position is two JSON numbers, and an entity's attributes JSON strings.
    (lambda run: {**run, "pose": {**run["pose"], "position": [1, 2, 3]}},
     "run 1: position must be a JSON array of 2 numbers, got [1, 2, 3]"),
    (lambda run: {**run, "pose": {**run["pose"], "position": "12"}},
     "run 1: position must be a JSON array of 2 numbers, got '12'"),
    (lambda run: {**run, "pose": {**run["pose"], "position": [True, 2]}},
     "run 1: position must be a JSON array of 2 numbers, got [True, 2]"),
    (lambda run: {**run, "entities": [{**run["entities"][0], "attributes": "red"}]},
     "run 1: attributes must be a JSON array of strings, got 'red'"),
])
def test_stream_file_v2_corruption_names_the_run(tmp_path, edit, message):
    entities = stream_entities(["mug_1"])
    obs = SymbolicObservation(entities, render_caption(entities, mode="oracle"))
    pose = Pose(*STREAM_POSES[0])
    path = str(tmp_path / "stream.jsonl")
    write_stream(path, ObservationStream([(0, 0, 5, pose, obs), (5, 0, 2, Pose(*STREAM_POSES[2]), obs)]))
    assert len(read_stream(path)[1]) == 7
    rewrite_line(path, 2, edit)
    with pytest.raises(ValueError, match=re.escape(message)):
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
    graphs = day_graphs(start, schedule, days)
    tpd = start.ticks_per_day
    assert graphs == [export_scene_graph(start.at(schedule, (d + 1) * tpd - 1)) for d in range(days)]
    assert start.clock == 0  # the start world is not changed
    return graphs


def test_scene_graph_at_edge():
    g0 = graph_days()[0]
    assert ("mug_1", "at", "sink") in g0.edges
    assert ("toy_1", "at", "bed") in g0.edges


def test_scene_graph_day_diff_is_exactly_the_move():
    g0, g1, g2 = graph_days()
    e0, e1, e2 = (set(g.edges) for g in (g0, g1, g2))
    assert sorted(e1 - e0) == [("toy_1", "at", "sofa")]
    assert sorted(e0 - e1) == [("toy_1", "at", "bed")]
    assert e1 == e2


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
    with pytest.raises(ValueError, match="tick 199 is before the world clock 600"):
        day_graphs(world, schedule, 3)


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
    assert (header["count"], header["format"], header["version"]) == (len(list(stream.runs())), "patrol-stream", 2)
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
    for version in (1, 3, 0, True, 2.0, "2"):
        artifacts.write(path, {"format": "patrol-stream", "version": version}, [])
        with pytest.raises(ValueError, match=re.escape(f"unsupported version {version!r}, expected 2; regenerate "
                                                       "the stream with `objsearch patrol`")):
            read_stream(path)
