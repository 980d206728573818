"""Memory store: construction, the three query modalities against linear-scan
oracles, raw retrieval, and file persistence."""

import functools
import itertools
import math
import random
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from objsearch.core import (
    MemoryRecord,
    ObservationStream,
    Pose,
    SymbolicObservation,
    Timestep,
    VisibleEntity,
    render_caption,
    stable_seed,
)
from objsearch import artifacts
from objsearch.embed import Embedder, EmbedderConfig
from objsearch.homesim import generate_world, patrol, read_stream, write_stream
from objsearch.memstore import (
    BatchError,
    IntegrityError,
    LongTermMemory,
    RECORD_FIELDS,
    build,
    load,
    persist,
    SCORE_DECIMALS,
)

EMB = Embedder(EmbedderConfig(d=64))


def synthetic_record(t, caption, pos, ticks_per_day=200):
    ent = VisibleEntity(
        entity_id=f"e{t}", class_label="mug", attributes=(), landmark_id="sink"
    )
    return MemoryRecord(
        t=Timestep.at(t, ticks_per_day),
        pose=Pose(position=pos, yaw=0.0, room_id="kitchen"),
        embedding=EMB(caption),
        raw=SymbolicObservation(visible_entities=(ent,), caption=caption),
    )


def fill(memory, specs):
    for t, caption, pos in specs:
        memory.append(synthetic_record(t, caption, pos))
    return memory


def new_memory(**kw):
    args = dict(d=64, ticks_per_day=200)
    args.update(kw)
    return LongTermMemory(**args)


# -- oracles ---------------------------------------------------------------------


def oracle_semantic(memory, qvec, r):
    scored = [
        (round(float(rec.embedding @ qvec), SCORE_DECIMALS), i)
        for i, rec in enumerate(memory.records)
    ]
    scored.sort(key=lambda s: (-s[0], s[1]))
    return [i for _, i in scored[:r]]


def oracle_temporal_point(memory, center, r):
    scored = [(abs(rec.t.value - center), i) for i, rec in enumerate(memory.records)]
    scored.sort(key=lambda s: (s[0], s[1]))
    return [i for _, i in scored[:r]]


def oracle_temporal_window(memory, d0, d1, r):
    hits = [
        (rec.t.value, i)
        for i, rec in enumerate(memory.records)
        if d0 <= rec.t.value // memory.ticks_per_day <= d1
    ]
    hits.sort(key=lambda s: (-s[0], s[1]))
    return [i for _, i in hits[:r]]


def oracle_spatial(memory, center, radius, r):
    scored = []
    for i, rec in enumerate(memory.records):
        d = round(math.dist(rec.pose.position, center), SCORE_DECIMALS)
        if d <= radius:
            scored.append((d, i))
    scored.sort(key=lambda s: (s[0], s[1]))
    return [i for _, i in scored[:r]]


# -- construction ------------------------------------------------------------------


def test_build_empty_stream():
    memory = build([], EMB, ticks_per_day=200)
    assert len(memory) == 0
    assert memory.query_semantic("anything", EMB, r=5).hits == ()


def test_build_length_conservation():
    stream = []
    for t in range(10):
        ent = VisibleEntity(entity_id=f"e{t}", class_label="mug", attributes=(), landmark_id="sink")
        obs = SymbolicObservation(visible_entities=(ent,), caption="")
        stream.append((Timestep.at(t, 200), Pose(position=(0, 0), yaw=0, room_id="kitchen"), obs))
    memory = build(stream, EMB, ticks_per_day=200)
    assert len(memory) == 10
    assert memory.semantic_index.shape == (10, 64)
    assert memory.temporal_index.shape == (10,)
    assert memory.spatial_index.shape == (10, 2)


def test_build_from_three_day_patrol():
    world, schedule = generate_world(3, 1)
    stream = patrol(world, schedule, days=3)
    memory = build(stream, EMB, ticks_per_day=200)
    assert len(memory) == 600
    assert max(rec.t.day for rec in memory.records) == 2


@pytest.mark.parametrize("mode", ["oracle", "realistic"])
def test_build_over_shared_views_equals_fresh_copies(mode):
    world, schedule = generate_world(3, 2)
    stream = patrol(world, schedule, days=3)
    assert len({id(obs.visible_entities) for _, _, obs in stream}) < len(stream)
    fresh = [
        (t, Pose.from_dict(pose.to_dict()), SymbolicObservation.from_dict(obs.to_dict()))
        for t, pose, obs in stream
    ]
    shared = build(stream, EMB, mode=mode, noise_seed=5, ticks_per_day=200)
    copied = build(fresh, EMB, mode=mode, noise_seed=5, ticks_per_day=200)
    assert list(shared.records) == list(copied.records)


def reference_build(stream, embedder, mode, noise_seed, snapshot_every, ticks_per_day):
    """One record per tick, each with its own raw observation, appended one
    at a time: the per-tick loop that build batches."""
    memory = LongTermMemory(d=embedder.d, ticks_per_day=ticks_per_day,
                            snapshot_every=snapshot_every, embedder_id=embedder.embedder_id, mode=mode)
    for i, (t, pose, obs) in enumerate(stream):
        caption = render_caption(obs.visible_entities, mode=mode,
                                 seed=stable_seed("caption", noise_seed, t.value))
        raw = replace(obs, caption=caption, keyframe=(i % snapshot_every == 0))
        memory.append(MemoryRecord(t=t, pose=pose, embedding=embedder(caption), raw=raw))
    return memory


def assert_same_memory(a, b):
    assert len(a) == len(b)
    assert list(a.records) == list(b.records)
    for name in ("semantic_index", "temporal_index", "spatial_index"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
        assert getattr(a, name).dtype == getattr(b, name).dtype


@functools.lru_cache(maxsize=None)
def patrol_stream(layout_seed, scene_id, days):
    world, schedule = generate_world(layout_seed, scene_id)
    return tuple(patrol(world, schedule, days=days))


@settings(max_examples=12, deadline=None)
@given(
    layout_seed=st.integers(0, 3),
    scene_id=st.sampled_from([1, 2, 3]),
    days=st.sampled_from([3, 4]),
    mode=st.sampled_from(["oracle", "realistic"]),
    snapshot_every=st.sampled_from([1, 7, 25]),
    noise_seed=st.integers(0, 5),
)
def test_build_equals_per_tick_reference(layout_seed, scene_id, days, mode, snapshot_every, noise_seed):
    stream = patrol_stream(layout_seed, scene_id, days)
    got = build(stream, EMB, mode=mode, noise_seed=noise_seed,
                snapshot_every=snapshot_every, ticks_per_day=200)
    want = reference_build(stream, EMB, mode, noise_seed, snapshot_every, 200)
    assert_same_memory(got, want)
    assert (got.snapshot_every, got.mode, got.embedder_id) == (snapshot_every, mode, EMB.embedder_id)


def test_build_shares_one_raw_observation_per_view():
    stream = patrol_stream(0, 1, 3)
    memory = build(stream, EMB, mode="oracle", snapshot_every=25, ticks_per_day=200)
    recs = memory.records
    for prev, rec, (_, _, prev_obs), (_, _, obs) in zip(recs, recs[1:], stream, stream[1:]):
        if rec.raw.keyframe or prev.raw.keyframe or obs is not prev_obs:
            assert rec.raw is not prev.raw
        else:
            assert rec.raw is prev.raw
    assert len({id(rec.raw) for rec in recs}) < len(recs) / 5


@pytest.fixture(scope="module")
def run_streams(tmp_path_factory):
    """A patrol stream, and the same stream read back from its file, whose
    consecutive runs at one room's landmarks share one observation."""
    world, schedule = generate_world(1, 2)
    patrolled = patrol(world, schedule, days=3)
    path = str(tmp_path_factory.mktemp("stream") / "stream.jsonl")
    write_stream(path, patrolled)
    _, from_file = read_stream(path)
    runs = list(from_file.runs())
    assert any(a[4] is b[4] and a[3] != b[3] for a, b in zip(runs, runs[1:]))
    return {"patrol": patrolled, "file": from_file}


def reference_raw_ids(stream, captions, snapshot_every):
    """Per tick: a record shares the raw of the record before unless either
    is a keyframe or the observation object or the caption changes."""
    ids: list[int] = []
    for i, ((_, _, obs), caption) in enumerate(zip(stream, captions)):
        shared = (i > 0 and i % snapshot_every and (i - 1) % snapshot_every
                  and obs is stream[i - 1][2] and caption == captions[i - 1])
        ids.append(ids[-1] if shared else (ids[-1] + 1 if ids else 0))
    return ids


@pytest.mark.parametrize("source", ["patrol", "file"])
@pytest.mark.parametrize("mode", ["oracle", "realistic"])
@pytest.mark.parametrize("snapshot_every", [1, 2, 7, 25])
def test_build_over_runs_equals_build_over_ticks_and_reference(run_streams, source, mode, snapshot_every):
    stream = run_streams[source]
    assert isinstance(stream, ObservationStream)
    args = dict(mode=mode, noise_seed=3, snapshot_every=snapshot_every, ticks_per_day=200)
    got = build(stream, EMB, **args)
    per_tick = build(list(stream), EMB, **args)
    assert_same_memory(got, per_tick)
    assert got._raws == per_tick._raws
    captions = [record.raw.caption for record in got.records]
    want = reference_raw_ids(list(stream), captions, snapshot_every)
    assert got._raw_id[: len(got)].tolist() == per_tick._raw_id[: len(got)].tolist() == want
    assert_same_memory(got, reference_build(stream, EMB, mode, 3, snapshot_every, 200))


EMB32 = Embedder(EmbedderConfig(d=32))


@settings(max_examples=60, deadline=None)
@given(
    stored=st.integers(0, 5),
    gaps=st.lists(st.integers(1, 4), max_size=40),
    bad_at=st.one_of(st.none(), st.integers(0, 39)),
    bad_kind=st.sampled_from(["dimension", "repeat", "earlier"]),
)
def test_extend_equals_sequential_appends(stored, gaps, bad_at, bad_kind):
    head = [(t, f"caption {t}", (t, 0)) for t in range(0, 3 * stored, 3)]
    last = head[-1][0] if head else -1
    ts = [last + c for c in itertools.accumulate(gaps)]
    batch = [synthetic_record(t, f"a mug on the sink {t % 5}", (t % 7, 0.5)) for t in ts]
    memory = fill(new_memory(), head)
    if bad_at is None or bad_at >= len(batch):
        want = fill(new_memory(), head)
        for rec in batch:
            want.append(rec)
        assert memory.extend(batch) == len(head)
        assert_same_memory(memory, want)
        assert np.array_equal(memory.semantic_index, np.array([r.embedding for r in memory.records]).reshape(-1, 64))
        assert memory.temporal_index.tolist() == [r.t.value for r in memory.records]
        assert memory.spatial_index.tolist() == [list(r.pose.position) for r in memory.records]
        return
    rec = batch[bad_at]
    if bad_kind == "dimension":
        batch[bad_at] = replace(rec, embedding=EMB32("a mug"))
    else:
        prev = ts[bad_at - 1] if bad_at else last
        t = prev if bad_kind == "repeat" else prev - 1
        assume(t >= 0)
        batch[bad_at] = replace(rec, t=Timestep.at(t, 200))
    before = fill(new_memory(), head)
    with pytest.raises(BatchError) as info:
        memory.extend(batch)
    assert info.value.position == bad_at
    assert_same_memory(memory, before)


def test_extend_bad_batch_is_value_error_naming_position():
    memory = fill(new_memory(), [(5, "a mug on the sink", (0, 0))])
    batch = [synthetic_record(t, "a mug", (0, 0)) for t in (6, 7, 7, 9)]
    with pytest.raises(ValueError, match="batch position 2: non-monotonic timestamp 7 after 7"):
        memory.extend(batch)
    with pytest.raises(ValueError, match="batch position 0: non-monotonic timestamp 4 after 5"):
        memory.extend([synthetic_record(4, "a mug", (0, 0))])
    assert len(memory) == 1
    assert memory.extend([]) == 1


def test_record_by_index():
    memory = fill(new_memory(), [(t, f"a mug on the sink {t}", (t, 0)) for t in range(3)])
    assert [memory.record(i) for i in range(3)] == list(memory.records)
    for bad in (-1, 3):
        with pytest.raises(IndexError):
            memory.record(bad)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 12),
    more=st.integers(0, 6),
    iterate_first=st.booleans(),
    iterate_after=st.booleans(),
    ints=st.lists(st.integers(-20, 20), max_size=8),
    slices=st.lists(
        st.tuples(*[st.one_of(st.none(), st.integers(-15, 15))] * 2, st.sampled_from([None, 1, 2, -1, -3])),
        max_size=4,
    ),
)
def test_records_view_indexes_like_its_list(n, more, iterate_first, iterate_after, ints, slices):
    """records[i] and records[s] equal list(records)[i] and [s], for a view
    made before later records are added, whether or not a pass has already
    built its records or more; an index outside the view's own length is an
    IndexError."""
    memory = fill(new_memory(), [(t, f"a mug on the sink {t % 3}", (t, 0)) for t in range(n)])
    view = memory.records
    if iterate_first:
        list(view)
    fill(memory, [(n + t, "a mug", (0, 0)) for t in range(more)])
    if iterate_after:
        list(memory.records)
    want = [memory.record(i) for i in range(n)]
    assert len(view) == n
    for i in ints:
        if -n <= i < n:
            assert view[i] == want[i]
        else:
            with pytest.raises(IndexError):
                view[i]
    for start, stop, step in slices:
        assert view[start:stop:step] == want[start:stop:step]
    assert list(view) == want


def test_spatial_rejects_non_finite_arguments():
    memory = fill(new_memory(), [(t, "a mug on the sink", (t, 0)) for t in range(3)])
    for center, radius in (((math.nan, 0.0), 1.0), ((0.0, math.inf), 1.0), ((0.0, 0.0), math.nan)):
        with pytest.raises(ValueError):
            memory.query_spatial(center, radius, r=5)


def test_build_rejects_non_monotonic_timestamps():
    memory = fill(new_memory(), [(5, "a mug on the sink", (0, 0))])
    with pytest.raises(ValueError):
        memory.append(synthetic_record(5, "again", (0, 0)))
    with pytest.raises(ValueError):
        memory.append(synthetic_record(3, "earlier", (0, 0)))


def test_keyframe_stride():
    stream = []
    for t in range(60):
        ent = VisibleEntity(entity_id=f"e{t}", class_label="mug", attributes=(), landmark_id="sink")
        obs = SymbolicObservation(visible_entities=(ent,), caption="")
        stream.append((Timestep.at(t, 200), Pose(position=(0, 0), yaw=0, room_id="kitchen"), obs))
    memory = build(stream, EMB, ticks_per_day=200, snapshot_every=25)
    flagged = [i for i, rec in enumerate(memory.records) if rec.raw.keyframe]
    assert flagged == [0, 25, 50]
    assert memory.fetch_raw(25).keyframe
    assert len(memory.fetch_raw(25).visible_entities) == 1


def test_build_is_task_agnostic_signature():
    import inspect

    params = inspect.signature(build).parameters
    assert "instruction" not in params and "task" not in params


# -- semantic queries -----------------------------------------------------------------


def test_semantic_unique_mention_ranked_first():
    memory = fill(
        new_memory(),
        [
            (0, "a red mug on the sink", (0, 0)),
            (1, "a green folder on the study desk", (1, 0)),
            (2, "a blue sofa cushion", (2, 0)),
        ],
    )
    result = memory.query_semantic("green folder", EMB, r=1)
    assert result.indices == (1,)
    assert oracle_semantic(memory, EMB("green folder"), 1) == [1]


def test_semantic_exact_caption_scores_one():
    memory = fill(new_memory(), [(0, "a red mug on the sink", (0, 0))])
    result = memory.query_semantic("a red mug on the sink", EMB, r=1)
    assert result.hits[0][1] == pytest.approx(1.0, abs=1e-6)


def test_semantic_empty_memory():
    assert new_memory().query_semantic("anything", EMB, r=5).hits == ()


def test_semantic_tie_break_lower_index():
    memory = fill(
        new_memory(),
        [(t, "a red mug on the sink", (0, 0)) for t in range(5)],
    )
    result = memory.query_semantic("red mug", EMB, r=3)
    assert result.indices == (0, 1, 2)


# -- temporal queries -------------------------------------------------------------------


def test_temporal_point_with_tie_break():
    memory = fill(new_memory(), [(t, f"caption {t}", (0, 0)) for t in range(10)])
    result = memory.query_temporal(t_center=5, r=3)
    assert result.indices == (5, 4, 6)
    assert oracle_temporal_point(memory, 5, 3) == [5, 4, 6]


def test_temporal_point_exact_timestamp():
    memory = fill(new_memory(), [(t, f"caption {t}", (0, 0)) for t in range(10)])
    assert memory.query_temporal(t_center=7, r=1).indices == (7,)


def test_temporal_window_selects_day():
    world, schedule = generate_world(3, 1)
    stream = patrol(world, schedule, days=3)
    memory = build(stream, EMB, ticks_per_day=200)
    result = memory.query_temporal(day_window=(1, 1), r=600)
    assert len(result) == 200
    assert all(200 <= memory.records[i].t.value <= 399 for i in result.indices)
    assert list(result.indices) == oracle_temporal_window(memory, 1, 1, 600)
    # Recency order within the window.
    assert result.indices[0] == 399 and result.indices[-1] == 200


def test_temporal_window_invalid():
    memory = fill(new_memory(), [(0, "x y", (0, 0))])
    with pytest.raises(ValueError):
        memory.query_temporal(day_window=(2, 1))
    with pytest.raises(ValueError):
        memory.query_temporal()
    with pytest.raises(ValueError):
        memory.query_temporal(t_center=1, day_window=(0, 1))


# -- spatial queries ---------------------------------------------------------------------


def test_spatial_exact_pose_match():
    memory = fill(new_memory(), [(t, f"caption {t}", (float(t), 0.0)) for t in range(5)])
    result = memory.query_spatial((2.0, 0.0), radius=0.01, r=5)
    assert result.indices == (2,)


def test_spatial_no_hits_outside_radius():
    memory = fill(new_memory(), [(0, "caption", (10.0, 10.0))])
    assert memory.query_spatial((0.0, 0.0), radius=1.0, r=5).hits == ()


def test_spatial_line_layout_distance_sorted():
    memory = fill(new_memory(), [(t, f"caption {t}", (float(t), 0.0)) for t in range(5)])
    result = memory.query_spatial((0.0, 0.0), radius=2.5, r=10)
    assert result.indices == (0, 1, 2)
    assert [round(s, 6) for _, s in result.hits] == [0.0, 1.0, 2.0]
    assert list(result.indices) == oracle_spatial(memory, (0.0, 0.0), 2.5, 10)


def test_spatial_tie_break_lower_index():
    memory = fill(new_memory(), [(t, f"caption {t}", (1.0, 0.0)) for t in range(4)])
    result = memory.query_spatial((0.0, 0.0), radius=2.0, r=3)
    assert result.indices == (0, 1, 2)


def test_spatial_far_center_measures_every_record():
    memory = build(patrol_stream(7, 1, 3), EMB, ticks_per_day=200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = memory.query_spatial((1e200, 1e200), radius=1e308, r=len(memory))
    assert sorted(result.indices) == list(range(len(memory)))
    assert all(1.4e200 < score < 1.42e200 for _, score in result.hits)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(positions=st.lists(st.tuples(finite, finite), min_size=1, max_size=12), center=st.tuples(finite, finite))
def test_spatial_distances_are_norms_wherever_the_norm_does_not_overflow(positions, center):
    memory = fill(new_memory(), [(t, "a mug on the sink", pos) for t, pos in enumerate(positions)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = memory.query_spatial(center, radius=sys.float_info.max, r=len(positions))
    scores = dict(result.hits)
    with np.errstate(all="ignore"):
        offsets = memory.spatial_index - np.asarray(center)
        norm = np.round(np.linalg.norm(offsets, axis=1), SCORE_DECIMALS)
        exact = np.hypot(offsets[:, 0], offsets[:, 1])
    for i in range(len(positions)):
        if np.isfinite(norm[i]):
            assert scores[i] == norm[i]
        elif np.isfinite(exact[i]):
            assert scores[i] == pytest.approx(exact[i], rel=1e-12)
        else:
            assert i not in scores


# -- randomized oracle equivalence ---------------------------------------------------------


def random_memory(rng, n, ticks_per_day=50):
    memory = new_memory(ticks_per_day=ticks_per_day)
    t = 0
    vocab = ["mug", "folder", "book", "sink", "desk", "red", "green", "toy", "sofa", "lamp"]
    for _ in range(n):
        t += rng.randrange(1, 4)
        words = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 6)))
        pos = (rng.randrange(0, 8) * 0.5, rng.randrange(0, 8) * 0.5)
        memory.append(synthetic_record(t, words, pos, ticks_per_day))
    return memory


def test_oracle_equivalence_randomized():
    rng = random.Random(123)
    for _ in range(8):
        memory = random_memory(rng, rng.randrange(20, 120))
        last_day = memory.records[-1].t.day
        for _ in range(20):
            r = rng.randrange(1, 12)
            qtext = " ".join(rng.choice(["mug", "red", "desk", "toy"]) for _ in range(2))
            qvec = EMB(qtext)
            assert list(memory.query_semantic(qtext, EMB, r=r).indices) == oracle_semantic(memory, qvec, r)
            center = rng.randrange(0, memory.records[-1].t.value + 5)
            assert list(memory.query_temporal(t_center=center, r=r).indices) == oracle_temporal_point(memory, center, r)
            d0 = rng.randrange(0, last_day + 1)
            d1 = rng.randrange(d0, last_day + 1)
            assert list(memory.query_temporal(day_window=(d0, d1), r=r).indices) == oracle_temporal_window(memory, d0, d1, r)
            cx, cy = rng.randrange(0, 8) * 0.5, rng.randrange(0, 8) * 0.5
            radius = rng.choice([0.25, 0.5, 1.0, 2.0])
            assert list(memory.query_spatial((cx, cy), radius, r=r).indices) == oracle_spatial(memory, (cx, cy), radius, r)


def test_monotone_insertion_preserves_tie_order():
    memory = fill(new_memory(), [(t, "a red mug on the sink", (1.0, 1.0)) for t in range(6)])
    before = memory.query_semantic("red mug", EMB, r=4).indices
    memory.append(synthetic_record(99, "a red mug on the sink", (1.0, 1.0)))
    after = memory.query_semantic("red mug", EMB, r=4).indices
    assert before == after


def test_score_bounds():
    rng = random.Random(5)
    memory = random_memory(rng, 60)
    sem = memory.query_semantic("red mug", EMB, r=20)
    assert all(-1.0 - 1e-9 <= s <= 1.0 + 1e-9 for _, s in sem.hits)
    spa = memory.query_spatial((1.0, 1.0), radius=5.0, r=20)
    assert all(s >= 0.0 for _, s in spa.hits)


# -- raw retrieval ------------------------------------------------------------------------


def test_fetch_raw_round_trip():
    memory = fill(new_memory(), [(0, "a red mug on the sink", (0, 0))])
    raw = memory.fetch_raw(0)
    assert raw.caption == "a red mug on the sink"
    assert raw.visible_entities[0].entity_id == "e0"


def test_fetch_raw_out_of_range():
    memory = fill(new_memory(), [(0, "a red mug on the sink", (0, 0))])
    with pytest.raises(IndexError):
        memory.fetch_raw(1)
    with pytest.raises(IndexError):
        memory.fetch_raw(-1)


# -- persistence --------------------------------------------------------------------------


def test_persist_load_round_trip(tmp_path):
    world, schedule = generate_world(3, 1)
    stream = patrol(world, schedule, days=3)
    memory = build(stream, EMB, ticks_per_day=200)
    path = str(tmp_path / "memory.jsonl")
    persist(memory, path)
    loaded = load(path)
    assert len(loaded) == len(memory)
    assert loaded.ticks_per_day == memory.ticks_per_day
    assert loaded.embedder_id == memory.embedder_id
    probes = [
        ("semantic", "green folder"),
        ("semantic", "red mug sink"),
        ("point", 123),
        ("window", (1, 2)),
        ("spatial", ((2.0, 2.0), 3.0)),
    ]
    for kind, arg in probes:
        if kind == "semantic":
            assert loaded.query_semantic(arg, EMB, r=7).hits == memory.query_semantic(arg, EMB, r=7).hits
        elif kind == "point":
            assert loaded.query_temporal(t_center=arg, r=7).hits == memory.query_temporal(t_center=arg, r=7).hits
        elif kind == "window":
            assert loaded.query_temporal(day_window=arg, r=7).hits == memory.query_temporal(day_window=arg, r=7).hits
        else:
            center, radius = arg
            assert loaded.query_spatial(center, radius, r=7).hits == memory.query_spatial(center, radius, r=7).hits


def test_persist_empty_memory(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    persist(new_memory(), path)
    assert len(load(path)) == 0


def test_truncated_file_rejected(tmp_path):
    memory = fill(new_memory(), [(t, f"caption {t}", (0, 0)) for t in range(5)])
    path = str(tmp_path / "memory.jsonl")
    persist(memory, path)
    text = open(path).read()
    open(path, "w").write("\n".join(text.splitlines()[:-2]) + "\n")
    with pytest.raises(IntegrityError):
        load(path)


def persist_v1(memory, path, extra_header=None):
    """The memory file v1 writer: one MemoryRecord.to_dict line per record."""
    header = {**(extra_header or {}), "format_version": 1, "d": memory.d, "ticks_per_day": memory.ticks_per_day,
              "snapshot_every": memory.snapshot_every, "embedder_id": memory.embedder_id, "mode": memory.mode}
    artifacts.write(path, header, (rec.to_dict() for rec in memory.records))


def test_corrupt_record_named(tmp_path):
    import hashlib

    memory = fill(new_memory(), [(t, f"caption {t}", (0, 0)) for t in range(3)])
    path = str(tmp_path / "memory.jsonl")
    persist_v1(memory, path)
    lines = open(path).read().splitlines()
    lines[2] = lines[2].replace('"value":1', '"value":"bogus"')
    body = "\n".join(lines[:-1]) + "\n"
    checksum = hashlib.sha256(body.encode()).hexdigest()
    open(path, "w").write(body + '{"sha256":"%s"}\n' % checksum)
    with pytest.raises(IntegrityError, match="record 1"):
        load(path)


# -- concurrency ---------------------------------------------------------------------------


def test_concurrent_readers_see_consistent_prefix():
    memory = new_memory()
    errors = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            n = len(memory)
            sem = memory.semantic_index
            ts = memory.temporal_index
            pos = memory.spatial_index
            if not (len(sem) >= n and len(ts) >= n and len(pos) >= n):
                errors.append(f"torn read: {len(sem)}/{len(ts)}/{len(pos)} vs {n}")
            result = memory.query_temporal(t_center=0, r=5)
            if any(i >= len(memory) for i in result.indices):
                errors.append("query returned unpublished record")

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for th in threads:
        th.start()
    for t in range(300):
        memory.append(synthetic_record(t, f"caption {t}", (0.0, 0.0)))
    stop.set()
    for th in threads:
        th.join()
    assert errors == []


def test_concurrent_readers_see_whole_batches():
    memory = new_memory()
    batch, batches = 7, 300
    errors = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            n = len(memory)
            if n % batch:
                errors.append(f"saw {n} records, not a whole number of batches")
            if len(memory.records) < n or len(memory.temporal_index) < n:
                errors.append("index shorter than the published count")

    threads = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for b in range(batches):
            memory.extend(synthetic_record(t, f"caption {t % 10}", (0.0, 0.0))
                          for t in range(b * batch, (b + 1) * batch))
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    assert errors == []
    assert len(memory) == batch * batches


def test_load_names_the_record_that_fails_the_batch_check(tmp_path):
    import hashlib

    memory = fill(new_memory(), [(t, f"caption {t}", (0, 0)) for t in range(5)])
    path = str(tmp_path / "memory.jsonl")
    persist_v1(memory, path)
    lines = open(path).read().splitlines()
    lines[4] = lines[4].replace('"value":3', '"value":2')
    body = "\n".join(lines[:-1]) + "\n"
    open(path, "w").write(body + '{"sha256":"%s"}\n' % hashlib.sha256(body.encode()).hexdigest())
    with pytest.raises(IntegrityError, match="record 3: non-monotonic timestamp 2 after 2"):
        load(path)


def rewrite_header(path, edit):
    """Apply edit to the header of a memory file and re-checksum it."""
    import hashlib
    import json

    lines = open(path).read().splitlines()[:-1]
    header = json.loads(lines[0])
    edit(header)
    lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
    body = "\n".join(lines) + "\n"
    open(path, "w").write(body + '{"sha256":"%s"}\n' % hashlib.sha256(body.encode()).hexdigest())


@pytest.mark.parametrize(
    "key", ["format_version", "d", "ticks_per_day", "snapshot_every", "embedder_id", "mode", "count"]
)
def test_load_header_missing_key_is_integrity_error(tmp_path, key):
    path = str(tmp_path / "memory.jsonl")
    persist(fill(new_memory(), [(t, f"caption {t}", (0, 0)) for t in range(3)]), path)
    rewrite_header(path, lambda header: header.pop(key))
    with pytest.raises(IntegrityError, match=f"malformed header: missing '{key}'"):
        load(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("format_version", 3, "unsupported format_version 3, expected 1 or 2"),
        ("d", "wide", "malformed header"),
        ("snapshot_every", 0, "malformed header: snapshot_every must be >= 1"),
        ("count", 2, "record count mismatch: header says 2, found 3"),
    ],
)
def test_load_header_bad_value_is_integrity_error(tmp_path, key, value, message):
    path = str(tmp_path / "memory.jsonl")
    persist(fill(new_memory(), [(t, f"caption {t}", (0, 0)) for t in range(3)]), path)
    rewrite_header(path, lambda header: header.update({key: value}))
    with pytest.raises(IntegrityError, match=message):
        load(path)


# -- columnar, content-addressed storage and memory file v2 --------------------------------

CAPTIONS = ["a red mug on the sink", "a green folder on the study desk", "a blue sofa cushion",
            "a toy on the bed", "a lamp", "red mug"]


def scan_semantic(memory, qvec, r):
    """The n x d scan: score every record's own embedding."""
    emb = np.array([rec.embedding for rec in memory.records]).reshape(-1, memory.d)
    scores = np.round(emb @ qvec, SCORE_DECIMALS)
    order = np.argsort(-scores, kind="stable")[:r]
    return tuple(zip(order.tolist(), scores[order].tolist()))


@settings(max_examples=80, deadline=None)
@given(
    batches=st.lists(st.lists(st.sampled_from(CAPTIONS), min_size=1, max_size=12), min_size=1, max_size=6),
    query=st.sampled_from(CAPTIONS + ["mug", "sofa desk", "nothing alike"]),
    r=st.integers(1, 80),
)
def test_semantic_k_rows_equal_n_by_d_scan(batches, query, r):
    memory = new_memory()
    t = 0
    for captions in batches:
        memory.extend(synthetic_record(t + j, c, (j, 0)) for j, c in enumerate(captions))
        t += len(captions)
    assert memory._k == len({c for captions in batches for c in captions})
    qvec = EMB(query)
    assert memory.query_semantic_vector(qvec, r=r).hits == scan_semantic(memory, qvec, r)


def assert_loaded_equals(loaded, memory):
    assert_same_memory(loaded, memory)
    assert (loaded.d, loaded.ticks_per_day, loaded.snapshot_every, loaded.embedder_id, loaded.mode) == (
        memory.d, memory.ticks_per_day, memory.snapshot_every, memory.embedder_id, memory.mode)


@settings(max_examples=10, deadline=None)
@given(
    layout_seed=st.integers(0, 3),
    scene_id=st.sampled_from([1, 2, 3]),
    mode=st.sampled_from(["oracle", "realistic"]),
    snapshot_every=st.sampled_from([1, 7, 25]),
)
def test_v2_and_v1_files_load_equal_to_the_build(tmp_path_factory, layout_seed, scene_id, mode, snapshot_every):
    memory = build(patrol_stream(layout_seed, scene_id, 3), EMB, mode=mode, noise_seed=3,
                   snapshot_every=snapshot_every, ticks_per_day=200)
    root = tmp_path_factory.mktemp("files")
    v2, v1, again = (str(root / name) for name in ("v2.jsonl", "v1.jsonl", "again.jsonl"))
    persist(memory, v2)
    loaded = load(v2)
    assert_loaded_equals(loaded, memory)
    assert (loaded._k, len(loaded._raws)) == (memory._k, len(memory._raws))
    persist_v1(memory, v1)
    from_v1 = load(v1)
    assert_loaded_equals(from_v1, memory)
    persist(from_v1, again)
    assert_loaded_equals(load(again), memory)
    for q in ("green folder", "red mug sink"):
        assert load(again).query_semantic(q, EMB, r=9).hits == memory.query_semantic(q, EMB, r=9).hits


def rewrite_line(path, index, edit):
    """Replace line index of a memory file by edit(parsed line) and re-checksum it."""
    import hashlib
    import json

    lines = open(path).read().splitlines()[:-1]
    lines[index] = json.dumps(edit(json.loads(lines[index])), sort_keys=True, separators=(",", ":"))
    body = "\n".join(lines) + "\n"
    open(path, "w").write(body + '{"sha256":"%s"}\n' % hashlib.sha256(body.encode()).hexdigest())


def record_edit(field, value):
    def edit(line):
        line[RECORD_FIELDS.index(field)] = value
        return line
    return edit


@pytest.mark.parametrize(
    "line, edit, message",
    [
        # 3 embedding rows (lines 1-3), 5 raws (lines 4-8), 5 records (lines 9-13)
        (11, record_edit("row", 3), r"record 2: row id 3 out of range \[0, 3\)"),
        (12, record_edit("row", -1), r"record 3: row id -1 out of range \[0, 3\)"),
        (10, record_edit("raw", 5), r"record 1: raw id 5 out of range \[0, 5\)"),
        (2, lambda row: [2 * v for v in row], "embeddings 1: embedding must be unit norm, got 2.0"),
        (3, lambda row: row[:-1], r"embeddings 2: embedding dimension \(63,\) != \(64,\)"),
        (12, record_edit("t", 2), "record 3: non-monotonic timestamp 2 after 2"),
        (9, record_edit("t", -1), "record 0: timestep value and day must be non-negative"),
        (13, lambda line: line[:-1], "record 4: expected a list of 8 fields"),
        (10, record_edit("room", 7), "record 1: malformed field types"),
        (5, lambda raw: {**raw, "visible_entities": raw["visible_entities"] * 2},
         "raws 1: duplicate entity_id within one observation"),
    ],
)
def test_v2_corruption_names_the_line(tmp_path, line, edit, message):
    memory = fill(new_memory(), [(t, CAPTIONS[t % 3], (t, 0)) for t in range(5)])
    path = str(tmp_path / "memory.jsonl")
    persist(memory, path)
    load(path)
    rewrite_line(path, line, edit)
    with pytest.raises(IntegrityError, match=message):
        load(path)


def test_table_rows_are_shared_and_checked_once():
    memory = fill(new_memory(), [(t, CAPTIONS[t % 2], (t, 0)) for t in range(6)])
    assert memory._k == 2
    assert memory.semantic_index.shape == (6, 64)
    batch = [synthetic_record(6, CAPTIONS[0], (0, 0)), synthetic_record(7, "a new caption", (0, 0))]
    batch[1] = replace(batch[1], embedding=EMB32("a mug"))
    with pytest.raises(BatchError) as info:
        memory.extend(batch)
    assert info.value.position == 1 and info.value.part == "record"
    assert (len(memory), memory._k) == (6, 2)


def test_retrieval_outcomes_build_no_memory_record(monkeypatch):
    from objsearch.agent import ActionExecutor
    from objsearch.core import Action

    world, schedule = generate_world(3, 1)
    memory = build(patrol_stream(3, 1, 3), EMB, ticks_per_day=200)
    want = {i: memory.record(i) for i in range(len(memory))}

    def refuse(self, i):
        raise AssertionError("a MemoryRecord was built")

    monkeypatch.setattr(LongTermMemory, "record", refuse)
    executor = ActionExecutor(memory, world, schedule, EMB)
    for action in (Action("semantic_query", {"query": "mug", "r": 30}),
                   Action("temporal_query", {"day_start": 1, "day_end": 1, "r": 200}),
                   Action("spatial_query", {"x": 2.0, "y": 2.0, "radius": 3.0, "r": 30}),
                   Action("fetch_raw", {"record_index": 17})):
        payload = executor.execute(action).payload
        assert payload["last_t"] == want[len(memory) - 1].t.value
        views = payload["hits"] if "hits" in payload else [payload["record"]]
        assert views
        for view in views:
            rec = want[view["record_index"]]
            assert (view["t"], view["day"], view["room"], view["x"], view["y"], view["caption"], view["keyframe"]) == (
                rec.t.value, rec.t.day, rec.pose.room_id, *rec.pose.position, rec.raw.caption, rec.raw.keyframe)


def test_concurrent_record_passes_see_their_prefix():
    """Readers that iterate records (and so build and share the kept
    MemoryRecords) while a writer extends see exactly their snapshot."""
    memory = new_memory()
    batch, batches = 5, 120
    errors = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            view = memory.records
            ts = [rec.t.value for rec in view]
            if ts != list(range(len(view))) or len(view) % batch:
                errors.append(f"pass over {len(view)} records saw {len(ts)}")
            if len(view) and view[-1].raw.caption != f"caption {(len(view) - 1) % 10}":
                errors.append("indexed record differs from its columns")

    threads = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for b in range(batches):
            memory.extend(synthetic_record(t, f"caption {t % 10}", (0.0, 0.0))
                          for t in range(b * batch, (b + 1) * batch))
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    assert errors == []
    assert [rec.t.value for rec in memory.records] == list(range(batch * batches))
