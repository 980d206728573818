"""Memory store: construction, the three query modalities against linear-scan
oracles, raw retrieval, and file persistence."""

import base64
import functools
import itertools
import json
import math
import random
import re
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import rewrite_header, rewrite_line, spec_batch
from objsearch.core import (
    DEFAULT_NOISE,
    NoiseModel,
    ObservationStream,
    Pose,
    SymbolicObservation,
    Timestep,
    VisibleEntity,
    embedding_problem,
    render_caption,
)
from objsearch import artifacts, memstore
from objsearch.embed import Embedder, EmbedderConfig
from objsearch.homesim import generate_world, patrol, read_stream, write_stream
from objsearch.memstore import (
    Batch,
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


def new_memory(specs=(), **kw):
    """A memory (d 64, 200 ticks/day unless kw says otherwise) holding one
    batch of the (t, caption, pos) specs; see conftest.spec_batch."""
    args = dict(d=64, ticks_per_day=200)
    args.update(kw)
    memory = LongTermMemory(**args)
    memory.extend(spec_batch(memory, specs, EMB))
    return memory


def extend(memory, specs):
    return memory.extend(spec_batch(memory, specs, EMB))


def own_poses(memory, positions):
    """The pose fields of a Batch that gives each record a new pose of its
    own at its position, of yaw 0 in room "kitchen"."""
    p = len(memory._set.poses)
    return {"pose": range(p, p + len(positions)),
            "poses": [Pose(position=pos, yaw=0.0, room_id="kitchen") for pos in positions]}


def pose_bits(pose):
    """A pose's fields, its floats by their bits (float.hex)."""
    return pose.position[0].hex(), pose.position[1].hex(), pose.yaw.hex(), pose.room_id


def record_poses(memory):
    """Each record's pose, by pose_bits."""
    held = memory._set
    return [pose_bits(held.poses[j]) for j in held.pose.tolist()]


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
    snap = memory._set
    assert snap.embeddings[snap.raw].shape == (10, 64)
    assert snap.t.shape == snap.pose.shape == (10,) and len(snap.poses) == 1


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
        (t, Pose.from_dict(pose.to_dict()),
         SymbolicObservation(tuple(map(replace, obs.visible_entities)), obs.caption))
        for t, pose, obs in stream
    ]
    shared = build(stream, EMB, mode=mode, noise_seed=5, ticks_per_day=200)
    copied = build(fresh, EMB, mode=mode, noise_seed=5, ticks_per_day=200)
    assert list(shared.records) == list(copied.records)


def reference_build(stream, embedder, mode, noise_seed, ticks_per_day, noise=DEFAULT_NOISE):
    """One record per tick, each with its own raw observation and its
    embedding (Embedder.__call__), extended one single-record batch at a time: the
    per-tick loop that build batches. A realistic caption takes entity j's
    draws from the counter form of the noise model: Philox keyed by
    (noise_seed, j), at counter t."""
    memory = LongTermMemory(d=embedder.d, ticks_per_day=ticks_per_day, embedder_id=embedder.embedder_id, mode=mode)
    for i, (t, pose, obs) in enumerate(stream):
        draws = [np.random.Generator(np.random.Philox(key=[noise_seed, j], counter=t.value)).random(4)
                 for j in range(len(obs.visible_entities))]
        caption = render_caption(obs.visible_entities, mode=mode, draws=draws if mode == "realistic" else None,
                                 noise=noise)
        raw = replace(obs, caption=caption)
        memory.extend(Batch(t=[t.value], day=[t.day], pose=[i], raw=[i], poses=[pose],
                            embeddings=[embedder(caption)], raws=[raw]))
    return memory


def assert_same_memory(a, b):
    """Equal records, equal t and day columns, each record's pose equal by
    bits and each record's embedding, gathered through its pose and raw."""
    assert len(a) == len(b)
    assert a.records == b.records
    sa, sb = a._set, b._set
    for name in ("t", "day"):
        assert getattr(sa, name).tobytes() == getattr(sb, name).tobytes()
    assert record_poses(a) == record_poses(b)
    assert np.array_equal(sa.embeddings[sa.raw], sb.embeddings[sb.raw])


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
    noise_seed=st.integers(0, 5),
)
def test_build_equals_per_tick_reference(layout_seed, scene_id, days, mode, noise_seed):
    stream = patrol_stream(layout_seed, scene_id, days)
    got = build(stream, EMB, mode=mode, noise_seed=noise_seed, ticks_per_day=200)
    want = reference_build(stream, EMB, mode, noise_seed, 200)
    assert_same_memory(got, want)
    assert (got.mode, got.embedder_id) == (mode, EMB.embedder_id)


def test_build_shares_one_raw_observation_per_view():
    """In both modes, records share a raw exactly when their raws are equal
    by value (entity list and caption); an oracle memory stores one raw per
    distinct view."""
    stream = patrol_stream(0, 1, 3)
    for mode in ("oracle", "realistic"):
        memory = build(stream, EMB, mode=mode, ticks_per_day=200)
        recs = memory.records
        assert len(set(memory._set.raws)) == len(memory._set.raws)
        for prev, rec in zip(recs, recs[1:]):
            assert (rec.raw is prev.raw) == (rec.raw == prev.raw)
        if mode == "oracle":
            assert len(memory._set.raws) == len({obs.visible_entities for _, _, obs in stream}) < len(recs) / 50


@pytest.mark.parametrize("mode", ["oracle", "realistic"])
def test_build_hashes_and_checks_each_entity_list_once(monkeypatch, mode):
    """build numbers entity lists by tuple identity before value, so each
    entity of a tuple object that many runs share is hashed once, and it
    checks each distinct list's ids once, however many raws share it."""
    import objsearch.core as core_module

    stream = ObservationStream.of(patrol_stream(1, 2, 3))
    tuples = {id(obs.visible_entities): obs.visible_entities for *_, obs in stream.runs()}
    distinct = len(set(tuples.values()))
    assert len(list(stream.runs())) > len(tuples) > distinct
    calls = {"hash": 0, "ids": 0}
    entity_hash, check_ids = VisibleEntity.__hash__, core_module._check_entity_ids

    def hashed(entity):
        calls["hash"] += 1
        return entity_hash(entity)

    def checked(entities):
        calls["ids"] += 1
        return check_ids(entities)

    monkeypatch.setattr(VisibleEntity, "__hash__", hashed)
    monkeypatch.setattr(core_module, "_check_entity_ids", checked)
    memory = build(stream, EMB, mode=mode, noise_seed=1, ticks_per_day=200)
    assert calls == {"hash": sum(map(len, tuples.values())), "ids": distinct}
    assert len(memory._set.raws) >= calls["ids"]


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


def first_use_ids(keys):
    """Per key: equal keys share one id, numbered in order of first use."""
    ids: dict = {}
    return [ids.setdefault(key, len(ids)) for key in keys]


WORDS = [0, 1, -1, 2**63 - 1, -2**63, *np.array([1.5, 2.0, -0.0, 0.1]).view(np.int64).tolist()]


@settings(max_examples=80, deadline=None)
@example(rows=0, width=3, kinds=1, seed=0, collide=False)
@example(rows=20, width=300, kinds=3, seed=1, collide=True)
@given(rows=st.integers(0, 40), width=st.integers(1, 300), kinds=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), collide=st.booleans())
def test_first_seen_numbers_rows_by_first_appearance(rows, width, kinds, seed, collide):
    """_first_seen numbers an int64 matrix's rows as a dict would, by first
    appearance, over rows drawn from a few base rows (each maybe changed in
    one word). With every row hashed alike it takes its exact fallback and
    still agrees."""
    rng = np.random.default_rng(seed)
    words = np.array(WORDS, dtype=np.int64)
    base = words[rng.integers(0, len(words), (kinds, width))]
    key = base[rng.integers(0, kinds, rows)]
    changed = rng.random(rows) < 0.3
    key[changed, rng.integers(0, width, int(changed.sum()))] = words[rng.integers(0, len(words), int(changed.sum()))]
    want = first_use_ids(row.tobytes() for row in key)
    with pytest.MonkeyPatch.context() as patch:
        if collide:
            patch.setattr(memstore, "_hash_weights", lambda c: np.zeros(c, dtype=np.uint64))
        number, first = memstore._first_seen(key)
    assert number.tolist() == want
    assert first.tolist() == [want.index(j) for j in range(len(first))]


@pytest.mark.parametrize("source", ["patrol", "file"])
@pytest.mark.parametrize("mode", ["oracle", "realistic"])
@pytest.mark.parametrize("noise_seed", [0, 3, 7, 11])
def test_build_over_runs_equals_build_over_ticks_and_reference(run_streams, source, mode, noise_seed):
    stream = run_streams[source]
    assert isinstance(stream, ObservationStream)
    args = dict(mode=mode, noise_seed=noise_seed, ticks_per_day=200)
    got = build(stream, EMB, **args)
    per_tick = build(list(stream), EMB, **args)
    assert_same_memory(got, per_tick)
    assert got._set.raws == per_tick._set.raws
    want = first_use_ids((obs.visible_entities, record.raw.caption)
                         for (_, _, obs), record in zip(stream, got.records))
    assert got._set.raw.tolist() == per_tick._set.raw.tolist() == want
    assert_same_memory(got, reference_build(stream, EMB, mode, noise_seed, 200))


EMB32 = Embedder(EmbedderConfig(d=32))


def with_entry(batch, field, j, value):
    """batch with entry j of field replaced by value."""
    entries = list(getattr(batch, field))
    entries[j] = value
    return replace(batch, **{field: entries})


@settings(max_examples=100, deadline=None)
@given(
    stored=st.integers(0, 5),
    gaps=st.lists(st.integers(1, 4), max_size=40),
    cuts=st.lists(st.integers(0, 40), max_size=6),
    bad=st.one_of(st.none(), st.tuples(
        st.sampled_from(["dimension", "norm", "nan", "repeat", "earlier", "pose", "raw"]),
        st.integers(0, 39),
        st.booleans(),
    )),
)
def test_extend_equals_sequential_appends(stored, gaps, cuts, bad):
    """One Batch gives the same memory as its records extended in any split
    into sub-batches, down to one record each. A single bad entry anywhere
    (a new row of the wrong dimension, not unit norm or all NaN, a repeated
    or earlier t, a pose or raw id out of range) raises BatchError naming
    its position and part, and stores nothing."""
    head = [(t, f"caption {t}", (t, 0)) for t in range(0, 3 * stored, 3)]
    last = head[-1][0] if head else -1
    ts = [last + c for c in itertools.accumulate(gaps)]
    specs = [(t, f"a mug on the sink {t % 5}", (t % 7, 0.5)) for t in ts]
    memory = new_memory(head)
    batch = spec_batch(memory, specs, EMB)
    if bad is None:
        split = new_memory(head)
        bounds = sorted({0, len(specs), *(c for c in cuts if c < len(specs))})
        for a, b in zip(bounds, bounds[1:]):
            extend(split, specs[a:b])
        assert memory.extend(batch) == len(head)
        assert_same_memory(memory, split)
        assert (len(memory._set.embeddings), memory._set.raws) == (len(split._set.embeddings), split._set.raws)
        assert memory._set.poses == split._set.poses
        return
    kind, at, low = bad
    if kind in ("dimension", "norm", "nan"):
        assume(batch.embeddings)
        part, j = "embeddings", at % len(batch.embeddings)
        vec = {"dimension": EMB32("a mug"), "norm": 2 * batch.embeddings[j], "nan": np.full(64, np.nan)}[kind]
        batch = with_entry(batch, "embeddings", j, vec)
    else:
        assume(specs)
        part, j = "record", at % len(specs)
        if kind in ("repeat", "earlier"):
            prev = ts[j - 1] if j else last
            t = prev if kind == "repeat" else prev - 1
            assume(t >= 0)
            batch = with_entry(batch, "t", j, t)
        else:
            table = memory._set.poses if kind == "pose" else memory._set.raws
            batch = with_entry(batch, kind, j, -1 if low else len(table) + len(specs))
    tables = (len(memory._set.embeddings), memory._set.raws, memory._set.poses)
    with pytest.raises(BatchError) as info:
        memory.extend(batch)
    assert (info.value.position, info.value.part) == (j, part)
    assert_same_memory(memory, new_memory(head))
    assert (len(memory._set.embeddings), memory._set.raws, memory._set.poses) == tables


def test_extend_bad_batch_is_value_error_naming_position():
    memory = new_memory([(5, "a mug on the sink", (0, 0))])
    with pytest.raises(ValueError, match="batch position 2: non-monotonic timestamp 7 after 7"):
        extend(memory, [(t, "a mug", (0, 0)) for t in (6, 7, 7, 9)])
    with pytest.raises(ValueError, match="batch position 0: non-monotonic timestamp 4 after 5"):
        extend(memory, [(4, "a mug", (0, 0))])
    assert len(memory) == 1
    assert extend(memory, []) == 1



@pytest.mark.parametrize("mode", ["bogus", "Oracle", ""])
def test_unknown_mode_is_refused(mode):
    """A memory is oracle or realistic: the constructor, and so build,
    refuses any other mode instead of labelling an oracle memory with it."""
    message = re.escape(f"mode must be one of oracle, realistic, got {mode!r}")
    with pytest.raises(ValueError, match=message):
        LongTermMemory(d=64, ticks_per_day=200, mode=mode)
    with pytest.raises(ValueError, match=message):
        build([], EMB, mode=mode, ticks_per_day=200)


def test_published_arrays_are_read_only():
    """No code holding the published record set can change a record that
    another reader sees: its columns and table refuse writes, and so does a
    record's embedding."""
    memory = new_memory([(t, f"caption {t}", (t, 0.0)) for t in range(3)])
    held = memory._set
    for name in (*RECORD_FIELDS, "embeddings"):
        column = getattr(held, name)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[1]
    with pytest.raises(ValueError, match="read-only"):
        memory.record(0).embedding[0] = 0.0
    assert memory.records == new_memory([(t, f"caption {t}", (t, 0.0)) for t in range(3)]).records

def test_record_by_index():
    memory = new_memory([(t, f"a mug on the sink {t}", (t, 0)) for t in range(3)])
    assert [memory.record(i) for i in range(3)] == list(memory.records)
    for bad in (-1, 3):
        with pytest.raises(IndexError):
            memory.record(bad)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 12), more=st.integers(0, 6), read_first=st.booleans(), read_after=st.booleans())
def test_records_view_indexes_like_its_list(n, more, read_first, read_after):
    """records is a new list of the records published when it was read, each
    equal to record(i): records added later are not in it, whether or not a
    read before or after has built MemoryRecords, and changing the list
    changes no later read."""
    memory = new_memory([(t, f"a mug on the sink {t % 3}", (t, 0)) for t in range(n)])
    if read_first:
        memory.records.insert(0, None)
    view = memory.records
    extend(memory, [(n + t, "a mug", (0, 0)) for t in range(more)])
    if read_after:
        assert len(memory.records) == n + more
    assert view == [memory.record(i) for i in range(n)]
    view.insert(0, None)
    assert memory.records == [memory.record(i) for i in range(n + more)]


def test_spatial_rejects_non_finite_arguments():
    memory = new_memory([(t, "a mug on the sink", (t, 0)) for t in range(3)])
    for center, radius in (((math.nan, 0.0), 1.0), ((0.0, math.inf), 1.0), ((0.0, 0.0), math.nan)):
        with pytest.raises(ValueError):
            memory.query_spatial(center, radius, r=5)


def test_build_rejects_non_monotonic_timestamps():
    memory = new_memory([(5, "a mug on the sink", (0, 0))])
    with pytest.raises(ValueError):
        extend(memory, [(5, "again", (0, 0))])
    with pytest.raises(ValueError):
        extend(memory, [(3, "earlier", (0, 0))])


def test_build_is_task_agnostic_signature():
    import inspect

    params = inspect.signature(build).parameters
    assert "instruction" not in params and "task" not in params


# -- semantic queries -----------------------------------------------------------------


def test_semantic_unique_mention_ranked_first():
    memory = new_memory(
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
    memory = new_memory([(0, "a red mug on the sink", (0, 0))])
    result = memory.query_semantic("a red mug on the sink", EMB, r=1)
    assert result.hits[0][1] == pytest.approx(1.0, abs=1e-6)


def test_semantic_empty_memory():
    assert new_memory().query_semantic("anything", EMB, r=5).hits == ()


def test_semantic_tie_break_lower_index():
    memory = new_memory(
        [(t, "a red mug on the sink", (0, 0)) for t in range(5)],
    )
    result = memory.query_semantic("red mug", EMB, r=3)
    assert result.indices == (0, 1, 2)


# -- temporal queries -------------------------------------------------------------------


def test_temporal_point_with_tie_break():
    memory = new_memory([(t, f"caption {t}", (0, 0)) for t in range(10)])
    result = memory.query_temporal(t_center=5, r=3)
    assert result.indices == (5, 4, 6)
    assert oracle_temporal_point(memory, 5, 3) == [5, 4, 6]


def test_temporal_point_exact_timestamp():
    memory = new_memory([(t, f"caption {t}", (0, 0)) for t in range(10)])
    assert memory.query_temporal(t_center=7, r=1).indices == (7,)


@settings(max_examples=200, deadline=None)
@given(
    gaps=st.lists(st.integers(1, 2**40), min_size=1, max_size=12),
    center=st.integers(-2**70, 2**70) | st.sampled_from([2**63 - 1, 2**63, -2**63, 2**64]),
    r=st.integers(1, 14),
)
def test_temporal_point_equals_python_int_scan(gaps, center, r):
    """Any integer centre, past int64 too, gets the hits of a linear scan in
    Python ints, each scored by its exact distance as a float."""
    ts = list(itertools.accumulate(gaps, initial=0))
    memory = new_memory([(t, f"caption {i}", (0, 0)) for i, t in enumerate(ts)])
    want = sorted(range(len(ts)), key=lambda i: (abs(ts[i] - center), i))[:r]
    assert memory.query_temporal(t_center=center, r=r).hits == tuple(
        (i, float(abs(ts[i] - center))) for i in want
    )


def test_temporal_point_past_int64_through_the_executor():
    from objsearch.agent import ActionExecutor
    from objsearch.core import Action

    world, schedule = generate_world(3, 1)
    memory = build(patrol(world, schedule, days=3), EMB, ticks_per_day=200)
    executor = ActionExecutor(memory, world, schedule, EMB)
    out = executor.execute(Action("temporal_query", {"timestep": 2**63, "r": 2}))
    assert "error" not in out.payload
    assert [h["record_index"] for h in out.payload["hits"]] == [599, 598]


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
    memory = new_memory([(0, "x y", (0, 0))])
    with pytest.raises(ValueError):
        memory.query_temporal(day_window=(2, 1))
    with pytest.raises(ValueError):
        memory.query_temporal()
    with pytest.raises(ValueError):
        memory.query_temporal(t_center=1, day_window=(0, 1))


any_day = st.integers(-2**70, 2**70) | st.sampled_from([-2**63, 2**63 - 1, 2**63, 2**64])


@settings(max_examples=300, deadline=None)
@given(
    first=st.integers(0, 120),
    gaps=st.lists(st.integers(1, 6), min_size=0, max_size=30),
    ticks_per_day=st.integers(1, 50),
    data=st.data(),
)
def test_temporal_window_equals_python_int_scan(first, gaps, ticks_per_day, data):
    """Any integer days, negative or past int64 too, and any r get the hits
    of a linear scan in Python ints: newest first, scored by timestep. Gaps
    run from one tick to several days."""
    scale = data.draw(st.sampled_from([1, ticks_per_day]))
    ts = list(itertools.accumulate((g * scale for g in gaps), initial=first))
    memory = new_memory([(t, "a mug on the sink", (0, 0)) for t in ts], ticks_per_day=ticks_per_day)
    last_day = ts[-1] // ticks_per_day
    day = st.integers(-3, last_day + 3) | any_day
    d_start, d_end = data.draw(day), data.draw(day)
    r = data.draw(st.integers(1, len(ts) + 3) | st.sampled_from([2**63, 2**70]))
    if d_start > d_end:
        with pytest.raises(ValueError, match="empty day window"):
            memory.query_temporal(day_window=(d_start, d_end), r=r)
        return
    want = [i for i in reversed(range(len(ts))) if d_start <= ts[i] // ticks_per_day <= d_end][:r]
    assert memory.query_temporal(day_window=(d_start, d_end), r=r).hits == tuple((i, float(ts[i])) for i in want)


def test_temporal_window_per_run_and_per_record():
    memory = LongTermMemory(d=64, ticks_per_day=10)
    memory.extend(run_batch(memory, list(range(0, 30)), 4))  # runs end at 3, 7, 11, ...
    assert memory.query_temporal(day_window=(1, 1), r=10).indices == tuple(range(19, 9, -1))
    # Day 1 is t 10..19; the day column splits the run 8..11, so day 1's runs
    # end at 11, 15 and 19.
    assert memory.query_temporal(day_window=(1, 1), r=10, per="run").indices == (19, 15, 11)
    assert memory.query_temporal(day_window=(1, 1), r=2, per="run").indices == (19, 15)
    assert memory.query_temporal(day_window=(5, 9), per="run").hits == ()
    for bad in ("records", "RUN", None):
        with pytest.raises(ValueError, match="per must be"):
            memory.query_temporal(day_window=(0, 0), per=bad)
    with pytest.raises(ValueError, match="per must be"):
        memory.query_temporal(t_center=3, per="run")


def oracle_run_window(columns, ticks_per_day, d_start, d_end, r):
    """Linear scan: the records in the window, grouped into maximal runs (t
    rises by 1, every other field equal), each run's newest, newest first,
    the first r."""
    t = columns["t"]
    key = [(columns["day"][i], columns["pose"][i], columns["raw"][i]) for i in range(len(t))]
    inside = [i for i in range(len(t)) if d_start <= t[i] // ticks_per_day <= d_end]
    newest = [i for j, i in enumerate(inside)
              if j + 1 == len(inside) or not (inside[j + 1] == i + 1 and t[i + 1] == t[i] + 1 and key[i + 1] == key[i])]
    return newest[::-1][:r]


# Poses of run_columns: distinct by bits, some equal as values.
RUN_POSES = [Pose(position=(0.0, 0.0), yaw=0.0, room_id="kitchen"), Pose(position=(-0.0, 0.0), yaw=0.0, room_id="kitchen"),
             Pose(position=(1.5, 0.0), yaw=0.0, room_id="kitchen"), Pose(position=(1.5, 0.0), yaw=0.0, room_id="den")]


@st.composite
def run_columns(draw):
    """Record columns in which neighbours often repeat every field but t, so
    runs form, some of them over gaps in t, or differ only in the pose or
    the raw; each day is t // ticks_per_day, as extend requires."""
    n = draw(st.integers(1, 40))
    ticks_per_day = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 5]), min_size=n - 1, max_size=n - 1))
    t = list(itertools.accumulate(gaps, initial=draw(st.integers(0, 30))))
    fields = st.tuples(st.integers(0, len(RUN_POSES) - 1), st.integers(0, 1))
    rows = [draw(fields)]
    for _ in range(n - 1):
        step = draw(st.integers(0, 4))
        if step == 0:
            rows.append(draw(fields))
        elif step == 1:
            j = draw(st.integers(0, 1))
            rows.append(rows[-1][:j] + ((rows[-1][j] + 1) % 2,) + rows[-1][j + 1:])
        else:
            rows.append(rows[-1])
    pose, raw = (list(c) for c in zip(*rows))
    day = [v // ticks_per_day for v in t]
    return ticks_per_day, {"t": t, "day": day, "pose": pose, "raw": raw}


@settings(max_examples=300, deadline=None)
@given(drawn=run_columns(), data=st.data())
def test_temporal_window_per_run_equals_a_run_grouping_scan(drawn, data):
    """A per-run day window answers as a linear scan that groups the window's
    records into maximal runs, on a memory extended in several batches (runs
    continue across them), after each batch: for any days, windows outside
    the memory included, and any r, including one that cuts the window."""
    ticks_per_day, columns = drawn
    n = len(columns["t"])
    memory = LongTermMemory(d=2, ticks_per_day=ticks_per_day)
    cuts = sorted(set(data.draw(st.lists(st.integers(1, n), max_size=3)) + [n]))
    start = 0
    for cut in cuts:
        table = {"poses": RUN_POSES, "embeddings": list(np.eye(2)),
                 "raws": [SymbolicObservation((), "a"), SymbolicObservation((), "b")]}
        memory.extend(Batch(**{k: v[start:cut] for k, v in columns.items()},
                            **(table if start == 0 else {"poses": [], "embeddings": [], "raws": []})))
        start = cut
        prefix = {k: v[:cut] for k, v in columns.items()}
        last_day = prefix["t"][-1] // ticks_per_day
        day = st.integers(-2, last_day + 2) | st.sampled_from([-2**70, 2**70])
        d_start, d_end = sorted((data.draw(day), data.draw(day)))
        r = data.draw(st.integers(1, cut + 2) | st.just(2**70))
        want = oracle_run_window(prefix, ticks_per_day, d_start, d_end, r)
        result = memory.query_temporal(day_window=(d_start, d_end), r=r, per="run")
        assert result.hits == tuple((i, float(prefix["t"][i])) for i in want)


# -- spatial queries ---------------------------------------------------------------------


def test_spatial_exact_pose_match():
    memory = new_memory([(t, f"caption {t}", (float(t), 0.0)) for t in range(5)])
    result = memory.query_spatial((2.0, 0.0), radius=0.01, r=5)
    assert result.indices == (2,)


def test_spatial_no_hits_outside_radius():
    memory = new_memory([(0, "caption", (10.0, 10.0))])
    assert memory.query_spatial((0.0, 0.0), radius=1.0, r=5).hits == ()


def test_spatial_line_layout_distance_sorted():
    memory = new_memory([(t, f"caption {t}", (float(t), 0.0)) for t in range(5)])
    result = memory.query_spatial((0.0, 0.0), radius=2.5, r=10)
    assert result.indices == (0, 1, 2)
    assert [round(s, 6) for _, s in result.hits] == [0.0, 1.0, 2.0]
    assert list(result.indices) == oracle_spatial(memory, (0.0, 0.0), 2.5, 10)


def test_spatial_tie_break_lower_index():
    memory = new_memory([(t, f"caption {t}", (1.0, 0.0)) for t in range(4)])
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
    memory = new_memory([(t, "a mug on the sink", pos) for t, pos in enumerate(positions)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = memory.query_spatial(center, radius=sys.float_info.max, r=len(positions))
    scores = dict(result.hits)
    with np.errstate(all="ignore"):
        offsets = np.asarray(positions, dtype=np.float64) - np.asarray(center)
        norm = np.round(np.linalg.norm(offsets, axis=1), SCORE_DECIMALS)
        exact = np.hypot(offsets[:, 0], offsets[:, 1])
    for i in range(len(positions)):
        if np.isfinite(norm[i]):
            assert scores[i] == norm[i]
        elif np.isfinite(exact[i]):
            assert scores[i] == pytest.approx(exact[i], rel=1e-12)
        else:
            assert i not in scores


coordinate = st.sampled_from([-2.0, -1.5, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(-10, 10)


@settings(max_examples=300, deadline=None)
@given(
    pool=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=5),
    center=st.tuples(coordinate, coordinate),
    data=st.data(),
)
def test_spatial_hits_are_the_radius_cut_in_norm_then_index_order(pool, center, data):
    """Many records per position, so distances tie; the radius is one of the
    distances, so records lie exactly on it; r is at most the number within
    it. The hits are the records within the radius ordered by rounded norm,
    then index, cut to r, each scored by its rounded norm."""
    positions = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    memory = new_memory([(t, "a mug on the sink", pos) for t, pos in enumerate(positions)])

    def norm(pos):
        dx, dy = pos[0] - center[0], pos[1] - center[1]
        return float(np.round(math.sqrt(dx * dx + dy * dy), SCORE_DECIMALS))

    dist = [norm(pos) for pos in positions]
    radius = data.draw(st.sampled_from([d for d in dist if d > 0] or [1.0]))
    inside = sorted((i for i in range(len(positions)) if dist[i] <= radius), key=lambda i: (dist[i], i))
    r = data.draw(st.integers(1, max(1, len(inside))))
    result = memory.query_spatial(center, radius, r=r)
    assert result.hits == tuple((i, dist[i]) for i in inside[:r])


# -- randomized oracle equivalence ---------------------------------------------------------


def random_memory(rng, n, ticks_per_day=50):
    specs = []
    t = 0
    vocab = ["mug", "folder", "book", "sink", "desk", "red", "green", "toy", "sofa", "lamp"]
    for _ in range(n):
        t += rng.randrange(1, 4)
        words = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 6)))
        pos = (rng.randrange(0, 8) * 0.5, rng.randrange(0, 8) * 0.5)
        specs.append((t, words, pos))
    return new_memory(specs, ticks_per_day=ticks_per_day)


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
    memory = new_memory([(t, "a red mug on the sink", (1.0, 1.0)) for t in range(6)])
    before = memory.query_semantic("red mug", EMB, r=4).indices
    extend(memory, [(99, "a red mug on the sink", (1.0, 1.0))])
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
    memory = new_memory([(0, "a red mug on the sink", (0, 0))])
    raw = memory.fetch_raw(0)
    assert raw.caption == "a red mug on the sink"
    assert raw.visible_entities[0].entity_id == "e0"


def test_fetch_raw_out_of_range():
    memory = new_memory([(0, "a red mug on the sink", (0, 0))])
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



@pytest.mark.parametrize("room", [5, None])
def test_persist_refuses_a_room_load_would_refuse(tmp_path, room):
    """A pose whose room is not a string is stored by extend, but a memory
    file holds JSON strings there: persist names the pose and writes no
    file, rather than one that load refuses."""
    memory = new_memory()
    batch = spec_batch(memory, [(t, f"caption {t}", (0.0, 0.0)) for t in range(4)], EMB)
    memory.extend(with_entry(batch, "poses", 2, replace(batch.poses[2], room_id=room)))
    path = tmp_path / "memory.jsonl"
    with pytest.raises(ValueError, match=re.escape(f"pose 2: room must be a string, got {room!r}")):
        persist(memory, str(path))
    assert not path.exists()

def test_truncated_file_rejected(tmp_path):
    memory = new_memory([(t, f"caption {t}", (0, 0)) for t in range(5)])
    path = str(tmp_path / "memory.jsonl")
    persist(memory, path)
    text = open(path).read()
    open(path, "w").write("\n".join(text.splitlines()[:-2]) + "\n")
    with pytest.raises(IntegrityError):
        load(path)


# -- concurrency ---------------------------------------------------------------------------


def test_concurrent_readers_see_consistent_prefix():
    memory = new_memory()
    errors = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            n = len(memory)
            snap = memory._set
            if not len(snap.t) == len(snap.pose) == len(snap.raw) >= n:
                errors.append(f"torn read: {len(snap.t)}/{len(snap.pose)}/{len(snap.raw)} vs {n}")
            if len(snap.embeddings) != len(snap.raws) or len(snap.raw) and (
                    snap.raw.max() >= len(snap.raws) or snap.pose.max() >= len(snap.poses)):
                errors.append("a published record names an unpublished table entry")
            result = memory.query_temporal(t_center=0, r=5)
            if any(i >= len(memory) for i in result.indices):
                errors.append("query returned unpublished record")

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for th in threads:
        th.start()
    for t in range(300):
        extend(memory, [(t, f"caption {t}", (0.0, 0.0))])
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
            if len(memory.records) < n or len(memory._set.t) < n:
                errors.append("columns shorter than the published count")

    threads = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for b in range(batches):
            extend(memory, [(t, f"caption {t % 10}", (0.0, 0.0)) for t in range(b * batch, (b + 1) * batch)])
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    assert errors == []
    assert len(memory) == batch * batches


def run_batch(memory, ts, length):
    """A Batch of records t in ts where t // length names the raw and the
    pose: so runs of length records, and the new poses and raws the batch's
    records name first. Pose g stands at (g % 4, -0.0)."""
    m = len(memory._set.raws)
    groups = [t // length for t in ts]
    new = sorted({g for g in groups if g >= m})
    return Batch(
        t=ts, day=[t // memory.ticks_per_day for t in ts], pose=groups, raw=groups,
        poses=[Pose(position=(g % 4, -0.0), yaw=0.0, room_id="kitchen") for g in new],
        embeddings=[EMB(f"caption {g}") for g in new],
        raws=[SymbolicObservation(visible_entities=(), caption=f"caption {g}") for g in new],
    )


def test_concurrent_index_backed_queries_see_whole_batches():
    """Readers run semantic and spatial queries, which build and replace the
    cached indexes, and per-run day windows, which derive the run ends, while
    a writer extends with new raws in every batch and runs of 5 records
    that cross batch boundaries: every answer holding all records covers a
    whole-batch prefix, each record once, at least as long as the memory was
    before the query, and the per-run window names exactly that prefix's
    run ends, the newest record first."""
    memory = new_memory()
    batch, batches, length = 7, 300, 5
    qvec = EMB("caption 3")
    errors = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            for query in (lambda: memory.query_semantic_vector(qvec, r=10**9),
                          lambda: memory.query_spatial((0.0, 0.0), sys.float_info.max, r=10**9)):
                n = len(memory)
                seen = sorted(query().indices)
                if len(seen) < n or len(seen) % batch or seen != list(range(len(seen))):
                    errors.append(f"{len(seen)} hits after {n} records are not a whole-batch prefix")
            n = len(memory)
            hits = list(memory.query_temporal(day_window=(0, 2**70), r=10**9, per="run").indices)
            prefix = hits[0] + 1 if hits else 0
            want = [i for i in reversed(range(prefix)) if i == prefix - 1 or i % length == length - 1]
            if prefix < n or prefix % batch or hits != want:
                errors.append(f"per-run window after {n} records is not the run ends of a whole-batch prefix")

    threads = [threading.Thread(target=reader) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for b in range(batches):
            memory.extend(run_batch(memory, list(range(b * batch, (b + 1) * batch)), length))
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    assert errors == []
    assert len(memory.query_spatial((0.0, 0.0), sys.float_info.max, r=10**9)) == batch * batches
    assert len(memory.query_temporal(day_window=(0, 2**70), r=10**9, per="run")) == batch * batches // length


# Memory files of either layout: "stored" (an embedder_id whose embeddings
# cannot be derived: the file holds them, one row per raw) and "derived" (the
# reference embedder's: the file holds none, and load re-embeds the raw
# captions).
LAYOUT_IDS = {"stored": "an embedder", "derived": EMB.embedder_id}


def layout_memory(layout, **kw):
    """Three records of distinct captions under the layout's embedder_id."""
    return new_memory([(t, f"caption {t}", (0, 0)) for t in range(3)], embedder_id=LAYOUT_IDS[layout], **kw)


HEADER_KEYS = ["format_version", "d", "ticks_per_day", "embedder_id", "mode", "count", "records", "runs", "poses",
               "raws"]


@pytest.mark.parametrize("layout, key", [(layout, key) for layout in ("stored", "derived") for key in HEADER_KEYS])
def test_load_header_missing_key_is_integrity_error(tmp_path, layout, key):
    path = str(tmp_path / "memory.jsonl")
    persist(layout_memory(layout), path)
    rewrite_header(path, lambda header: header.pop(key))
    with pytest.raises(IntegrityError, match=f"malformed header: missing '{key}'"):
        load(path)


# The refusal of any format_version but 8.
REFUSED = "expected 8; rebuild the memory from its stream with `objsearch build-memory`"


@pytest.mark.parametrize(
    "key, value, message",
    [
        *(("format_version", version, f"unsupported format_version {version}, {REFUSED}")
          for version in (1, 2, 3, 4, 5, 6, 7, 9)),
        ("d", "wide", "malformed header"),
        ("ticks_per_day", 0, "malformed header: ticks_per_day must be >= 1"),
        ("count", 2, "column count mismatch: header says 2, found 12"),
        ("entity_lists", 2, "column count mismatch: header says 12, found 13"),
        ("records", 3.0, "malformed header: records must be a JSON integer, got 3.0"),
        ("records", True, "malformed header: records must be a JSON integer, got True"),
        ("records", "3", "malformed header: records must be a JSON integer, got '3'"),
        ("records", -1, "malformed header: records must be >= 0, got -1"),
        ("records", 2, "record total mismatch: header says 2, runs hold 3"),
        ("records", 4, "record total mismatch: header says 4, runs hold 3"),
        # Checked before anything is expanded: no array of this size is made.
        ("records", 10**15, f"record total mismatch: header says {10**15}, runs hold 3"),
        ("runs", -1, "malformed header: runs must be >= 0, got -1"),
        ("runs", 3.0, "malformed header: runs must be a JSON integer, got 3.0"),
        ("raws", "3", "malformed header: raws must be a JSON integer, got '3'"),
        ("poses", -1, "malformed header: poses must be >= 0, got -1"),
        ("poses", 3.0, "malformed header: poses must be a JSON integer, got 3.0"),
        ("runs", 4, "column 't0': expected 4 values, one per run, got 3"),
        ("poses", 2, "column 'pose_x': expected 2 values, one per pose, got 3"),
        ("raws", 2, "column 'raw_list': expected 2 values, one per raw, got 3"),
    ],
)
def test_load_header_bad_value_is_integrity_error(tmp_path, key, value, message):
    path = str(tmp_path / "memory.jsonl")
    persist(new_memory([(t, f"caption {t}", (0, 0)) for t in range(3)]), path)
    rewrite_header(path, lambda header: header.update({key: value}))
    with pytest.raises(IntegrityError, match=re.escape(message)):
        load(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        # Another embedder or dimension asks for the stored layout.
        ("d", 32, "expected 12 column lines, found 11"),
        ("embedder_id", "an embedder", "expected 12 column lines, found 11"),
        ("count", 9, "column count mismatch: header says 9, found 11"),
        ("raws", 4, "column 'raw_list': expected 4 values, one per raw, got 3"),
        ("raws", -1, "malformed header: raws must be >= 0, got -1"),
    ],
)
def test_load_derived_header_bad_value_is_integrity_error(tmp_path, key, value, message):
    """A reference embedder's file is read by its own layout: a header whose
    d or embedder_id names another embedder asks for an embeddings line it
    does not hold."""
    path = str(tmp_path / "memory.jsonl")
    persist(layout_memory("derived"), path)
    assert "rows" not in artifacts.verify(path)[0]
    rewrite_header(path, lambda header: header.update({key: value}))
    with pytest.raises(IntegrityError, match=re.escape(message)):
        load(path)


def test_ticks_per_day_must_be_positive():
    for ticks_per_day in (0, -1):
        with pytest.raises(ValueError, match="ticks_per_day must be >= 1"):
            LongTermMemory(d=4, ticks_per_day=ticks_per_day)


@pytest.mark.parametrize("layout", ["stored", "derived"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("format_version", True, f"unsupported format_version True, {REFUSED}"),
        ("format_version", 8.0, f"unsupported format_version 8.0, {REFUSED}"),
        ("format_version", 3.0, f"unsupported format_version 3.0, {REFUSED}"),
        ("format_version", 1.0, f"unsupported format_version 1.0, {REFUSED}"),
        ("format_version", "8", f"unsupported format_version '8', {REFUSED}"),
        ("d", "64", "malformed header: d must be a JSON integer, got '64'"),
        ("d", 64.0, "malformed header: d must be a JSON integer, got 64.0"),
        ("d", 64.7, "malformed header: d must be a JSON integer, got 64.7"),
        ("ticks_per_day", "200", "malformed header: ticks_per_day must be a JSON integer, got '200'"),
        ("ticks_per_day", 200.0, "malformed header: ticks_per_day must be a JSON integer, got 200.0"),
        ("ticks_per_day", True, "malformed header: ticks_per_day must be a JSON integer, got True"),
    ],
)
def test_load_header_takes_json_integers_only(tmp_path, layout, key, value, message):
    """format_version, d and ticks_per_day are JSON integers: no boolean,
    float or string stands in for one, in a file of either layout."""
    memory = layout_memory(layout)
    path = str(tmp_path / "memory.jsonl")
    persist(memory, path)
    assert load(path).records == memory.records
    rewrite_header(path, lambda header: header.update({key: value}))
    with pytest.raises(IntegrityError, match=re.escape(message)):
        load(path)


@pytest.mark.parametrize("layout", ["stored", "derived"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("mode", 5, "malformed header: mode must be a JSON string, got 5"),
        ("mode", None, "malformed header: mode must be a JSON string, got None"),
        ("mode", ["oracle"], "malformed header: mode must be a JSON string, got ['oracle']"),
        ("mode", "weird", "malformed header: mode must be one of oracle, realistic, got 'weird'"),
        ("mode", "Oracle", "malformed header: mode must be one of oracle, realistic, got 'Oracle'"),
        ("embedder_id", None, "malformed header: embedder_id must be a JSON string, got None"),
        ("embedder_id", 7, "malformed header: embedder_id must be a JSON string, got 7"),
        ("embedder_id", False, "malformed header: embedder_id must be a JSON string, got False"),
    ],
)
def test_load_header_takes_json_strings_only(tmp_path, layout, key, value, message):
    """embedder_id and mode are JSON strings, taken as they are, and mode is
    oracle or realistic, in a file of either layout."""
    path = str(tmp_path / "memory.jsonl")
    persist(layout_memory(layout, mode="realistic"), path)
    assert (load(path).embedder_id, load(path).mode) == (LAYOUT_IDS[layout], "realistic")
    rewrite_header(path, lambda header: header.update({key: value}))
    with pytest.raises(IntegrityError, match=re.escape(message)):
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
def test_semantic_m_raws_equal_n_by_d_scan(batches, query, r):
    """Records of one caption share its raw, over several batches, so a
    raw's postings hold several records: scoring the m raws' embeddings
    gives the n x d scan's hits, scores and tie order."""
    memory = new_memory()
    raw_of: dict[str, int] = {}  # caption -> raw, in order of first use
    t = 0
    for captions in batches:
        new = [c for c in dict.fromkeys(captions) if c not in raw_of]
        raw_of.update({c: len(raw_of) + j for j, c in enumerate(new)})
        size = len(captions)
        memory.extend(Batch(
            t=range(t, t + size), day=[v // 200 for v in range(t, t + size)],
            **own_poses(memory, [(j, 0.0) for j in range(size)]), raw=[raw_of[c] for c in captions],
            embeddings=[EMB(c) for c in new], raws=[SymbolicObservation((), c) for c in new],
        ))
        t += size
    assert len(memory._set.embeddings) == len({c for captions in batches for c in captions})
    qvec = EMB(query)
    assert memory.query_semantic_vector(qvec, r=r).hits == scan_semantic(memory, qvec, r)


def scan_spatial(positions, center, radius, r):
    """The radius cut over every record's own position, positions[i] for
    record i: each distance in the rounded sqrt(dx*dx + dy*dy), np.hypot
    where that overflows (kept unrounded where rounding overflows again),
    then those within the radius stable-sorted by distance and cut to r."""
    pos = np.array(positions, dtype=np.float64).reshape(-1, 2)
    with np.errstate(over="ignore"):
        dx, dy = pos[:, 0] - center[0], pos[:, 1] - center[1]
        dist = np.round(np.sqrt(dx * dx + dy * dy), SCORE_DECIMALS)
        far = np.isinf(dist)
        exact = np.hypot(dx[far], dy[far])
        rounded = np.round(exact, SCORE_DECIMALS)
        dist[far] = np.where(np.isinf(rounded), exact, rounded)
    inside = np.flatnonzero(dist <= radius)
    order = inside[np.argsort(dist[inside], kind="stable")][:r]
    return tuple(zip(order.tolist(), dist[order].tolist()))


UNIT = np.eye(4)
# Table rows, distinct by bytes, whose rounded scores tie across rows for
# some query: 1e-12 rounds to 0.0 and -1e-12 to -0.0, which ties 0.0.
TIE_ROWS = [UNIT[0], UNIT[1], UNIT[2], np.array([1.0, 1e-12, 0.0, 0.0]), np.array([1.0, -1e-12, 0.0, 0.0]),
            np.array([0.6, 0.8, 0.0, 0.0]), np.array([0.8, 0.6, 0.0, 0.0]), -UNIT[0]]
TIE_QUERIES = [UNIT[0], UNIT[1], np.array([0.6, 0.8, 0.0, 0.0]), np.full(4, 0.5),
               np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2), np.full(4, np.nan), np.array([np.inf, 0.0, 0.0, 0.0])]
# Positions equal but for the sign of a zero are distinct positions at equal distances.
PLACES = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (3.0, 4.0)]
CENTRES = [(0.0, 0.0), (-0.0, -0.0), (0.5, 0.5), (3.0, 0.0), (1e200, -1e200), (1e308, 0.0), (-1.7e308, 1.7e308)]
RADII = [0.5, 1.0, 5.0, 1.5e200, 1e308, sys.float_info.max]
index_steps = st.one_of(
    st.tuples(st.just("extend"), st.lists(st.tuples(st.integers(0, len(TIE_ROWS) - 1),
                                                    st.integers(0, len(PLACES) - 1)), min_size=1, max_size=12)),
    st.tuples(st.just("semantic"), st.integers(0, len(TIE_QUERIES) - 1), st.integers(1, 40) | st.just(10**9)),
    st.tuples(st.just("spatial"), st.sampled_from(CENTRES), st.sampled_from(RADII), st.integers(1, 40) | st.just(10**9)),
)


def same_hits(a, b):
    """Equal indices and scores, a zero's sign included; any NaN equals any NaN."""
    return [(i, repr(s)) for i, s in a] == [(i, repr(s)) for i, s in b]


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(index_steps, min_size=1, max_size=12))
def test_index_backed_queries_equal_the_linear_scans(steps):
    """Extends and queries interleaved, so a query after an extend must see
    the new records. Each semantic query equals scan_semantic and each
    spatial query the radius-cut scan, scores included, on embeddings that
    tie across raws, positions that differ only in a zero's sign, far
    centres on the hypot path, NaN and inf query vectors, and r past the
    number of matches."""
    memory = LongTermMemory(d=4, ticks_per_day=10)
    raw_of: dict[int, int] = {}  # TIE_ROWS index -> raw, in order of first use
    for kind, *args in steps:
        if kind == "extend":
            [records] = args
            new = [p for p in dict.fromkeys(p for p, _ in records) if p not in raw_of]
            raw_of.update({p: len(raw_of) + j for j, p in enumerate(new)})
            n, size = len(memory), len(records)
            memory.extend(Batch(
                t=range(n, n + size), day=[t // 10 for t in range(n, n + size)],
                **own_poses(memory, [PLACES[q] for _, q in records]), raw=[raw_of[p] for p, _ in records],
                embeddings=[TIE_ROWS[p] for p in new], raws=[SymbolicObservation((), f"row {p}") for p in new],
            ))
        elif kind == "semantic":
            q, r = args
            with np.errstate(invalid="ignore"):
                assert same_hits(memory.query_semantic_vector(TIE_QUERIES[q], r=r).hits,
                                 scan_semantic(memory, TIE_QUERIES[q], r))
        else:
            centre, radius, r = args
            positions = [rec.pose.position for rec in memory.records]
            assert same_hits(memory.query_spatial(centre, radius, r=r).hits, scan_spatial(positions, centre, radius, r))


@settings(max_examples=150, deadline=None)
@given(
    d=st.sampled_from([1, 4, 256]),
    specs=st.lists(st.tuples(st.sampled_from([1 - 1e-6, 1 + 1e-6]), st.integers(-6, 6), st.integers(0, 2**32 - 1)),
                   min_size=1, max_size=8),
)
def test_new_rows_are_judged_as_embedding_problem_judges_them(d, specs):
    """Rows whose norms sit a few ulps either side of 1 - 1e-6 and 1 + 1e-6:
    extend's batch screen refers each one near the bound to
    core.embedding_problem, so the batch is refused exactly when a row has
    a problem, naming the first such row with its message."""
    rows = []
    for bound, ulps, seed in specs:
        scale = bound
        for _ in range(abs(ulps)):
            scale = np.nextafter(scale, math.copysign(math.inf, ulps))
        u = np.random.default_rng(seed).standard_normal(d)
        rows.append(scale * (u / math.sqrt(u @ u)))
    problems = [(j, reason) for j, row in enumerate(rows) if (reason := embedding_problem(row, d)) is not None]
    memory = LongTermMemory(d=d, ticks_per_day=10)
    batch = Batch(t=[0], day=[0], **own_poses(memory, [(0.0, 0.0)]), raw=[0],
                  embeddings=rows, raws=[SymbolicObservation((), f"row {j}") for j in range(len(rows))])
    if not problems:
        memory.extend(batch)
        assert memory._set.embeddings.tobytes() == np.array(rows).tobytes()
        return
    with pytest.raises(BatchError) as info:
        memory.extend(batch)
    assert (info.value.part, info.value.position, info.value.reason) == ("embeddings", *problems[0])
    assert len(memory) == 0 and len(memory._set.embeddings) == 0


# Rows that score 0.0 or -0.0 against UNIT[0] (and all rows against UNIT[3]),
# distinct by bytes, and a few that score above or below them; the cut of a
# small r then falls inside a tie group of up to 60 rows. NaN scores tie too.
ZERO_ROWS = [np.array([sign * 1e-12, math.cos(a), math.sin(a), 0.0])
             for sign in (0.0, 1.0, -1.0) for a in np.linspace(0.1, 3.0, 20)]
GROUP_ROWS = ZERO_ROWS + [UNIT[0], np.array([0.6, 0.8, 0.0, 0.0]), np.array([0.8, 0.6, 0.0, 0.0]), -UNIT[0]]
GROUP_QUERIES = [UNIT[0], UNIT[3], np.full(4, np.nan)]
# Distinct positions, up to the sign of a zero, that all lie 5.0 from the
# origin, and some nearer and farther ones.
RING = [(5 * math.cos(a), 5 * math.sin(a)) for a in np.linspace(0.0, 6.0, 25)] + [
    (3.0, 4.0), (-4.0, 3.0), (0.0, 5.0), (-0.0, 5.0), (5.0, -0.0), (-5.0, 0.0)]
GROUP_PLACES = RING + [(1.0, 0.0), (0.0, -1.0), (6.0, 0.0)]


@settings(max_examples=150, deadline=None)
@given(
    runs=st.lists(st.tuples(st.integers(0, len(GROUP_ROWS) - 1), st.integers(0, len(GROUP_PLACES) - 1),
                            st.just(1) | st.integers(1, 4)), min_size=1, max_size=60),
    unused=st.lists(st.tuples(st.integers(0, len(GROUP_ROWS) - 1), st.integers(0, 60)), max_size=20),
    r=st.integers(1, 30) | st.just(10**9),
)
@example(runs=[(row, 0, 1) for row in range(12)], unused=[], r=5)  # 12 tied raws of one record each, 5 of them read
@example(runs=[(0, 0, 1), (1, 0, 1)], unused=[(2, 2)], r=1)  # the last raw, tied at the cut, has no record
@example(runs=[(0, 0, 1), (1, 0, 1)], unused=[(2, 0)], r=1)  # so has the first
def test_queries_cut_inside_large_tie_groups_equal_the_linear_scans(runs, unused, r):
    """Semantic and spatial queries whose r-th hit falls in a tie group of
    many raws or positions (zero scores of both signs, NaN scores, positions
    on one circle) equal the linear scans. Raws that no record uses, each
    (GROUP_ROWS index, raw table position) of unused, tie at the cut too."""
    slots = [(row, True) for row in dict.fromkeys(row for row, _, _ in runs)]
    for row, at in unused:
        slots.insert(at, (row, False))
    position = {row: j for j, (row, used) in enumerate(slots) if used}
    t = [0]
    for _, _, length in runs:
        t += range(t[-1] + 1, t[-1] + 1 + length)
    t = t[1:]
    memory = LongTermMemory(d=4, ticks_per_day=10)
    memory.extend(Batch(
        t=t, day=[v // 10 for v in t], **own_poses(memory, [GROUP_PLACES[p] for _, p, n in runs for _ in range(n)]),
        raw=[position[row] for row, _, n in runs for _ in range(n)],
        embeddings=[GROUP_ROWS[row] for row, _ in slots],
        raws=[SymbolicObservation((), f"slot {j}") for j in range(len(slots))],
    ))
    for qvec in GROUP_QUERIES:
        with np.errstate(invalid="ignore"):
            assert same_hits(memory.query_semantic_vector(qvec, r=r).hits, scan_semantic(memory, qvec, r))
    for radius in (1.0, 5.0, 10.0):
        assert same_hits(memory.query_spatial((0.0, 0.0), radius, r=r).hits,
                         scan_spatial([rec.pose.position for rec in memory.records], (0.0, 0.0), radius, r))


def assert_loaded_equals(loaded, memory):
    assert_same_memory(loaded, memory)
    assert (loaded.d, loaded.ticks_per_day, loaded.embedder_id, loaded.mode) == (
        memory.d, memory.ticks_per_day, memory.embedder_id, memory.mode)


def assert_same_tables(a, b):
    """Equal raws and their embeddings (by bytes), in the same order."""
    assert (len(a._set.embeddings), a._set.raws) == (len(b._set.embeddings), b._set.raws)
    assert a._set.embeddings.tobytes() == b._set.embeddings.tobytes()


def with_embedder_id(memory, embedder_id="an embedder"):
    """The memory's records and tables under another embedder_id, whose
    embeddings its file stores (the stored layout)."""
    copy = LongTermMemory(d=memory.d, ticks_per_day=memory.ticks_per_day, embedder_id=embedder_id, mode=memory.mode)
    copy.extend(memory._set)
    return copy


def stores_embeddings(path):
    """Whether a memory file holds an embeddings line. No layout holds a
    rows count or a row column."""
    header, lines, _ = artifacts.verify(path)
    assert "rows" not in header and not any(line.startswith('{"row":') for line in lines), path
    return any(line.startswith('{"embeddings":') for line in lines)


@settings(max_examples=10, deadline=None)
@given(
    layout_seed=st.integers(0, 3),
    scene_id=st.sampled_from([1, 2, 3]),
    mode=st.sampled_from(["oracle", "realistic"]),
)
def test_memory_files_load_equal_to_the_build(tmp_path_factory, layout_seed, scene_id, mode):
    """A built memory, persisted without its embeddings (the reference
    embedder's layout) and with them (the same memory under another
    embedder_id),
    loads equal to the build, tables included, and re-persists as its
    file's bytes."""
    memory = build(patrol_stream(layout_seed, scene_id, 3), EMB, mode=mode, noise_seed=3, ticks_per_day=200)
    root = tmp_path_factory.mktemp("files")
    for written, stored in ((memory, False), (with_embedder_id(memory), True)):
        path, again = str(root / "memory.jsonl"), str(root / "again.jsonl")
        persist(written, path)
        assert stores_embeddings(path) == stored
        loaded = load(path)
        assert_loaded_equals(loaded, written)
        assert_same_tables(loaded, written)
        persist(loaded, again)
        assert open(again, "rb").read() == open(path, "rb").read()
        for q in ("green folder", "red mug sink"):
            assert loaded.query_semantic(q, EMB, r=9).hits == memory.query_semantic(q, EMB, r=9).hits


def view_pool():
    """Entity lists for random streams: a list and a value-equal copy of it
    (one raw), a list whose caption differs only in case (a different raw
    and caption, an equal embedding), two entities, two entities with
    equal phrases (dropping either gives one caption), a book among mugs,
    and none."""
    def mug(attribute, landmark="sink", entity="m1", label="mug"):
        return VisibleEntity(entity_id=entity, class_label=label, attributes=(attribute,), landmark_id=landmark)

    lists = [(mug("red"),), (mug("red"),), (mug("Red"),), (mug("red"), mug("blue", "desk", "m2")),
             (mug("red"), mug("red", entity="m3")),
             (mug("red", entity="m3"), mug("red", entity="b1", label="book"), mug("red")), ()]
    return [SymbolicObservation(visible_entities=entities, caption="") for entities in lists]


VIEWS = view_pool()
POSES = [Pose(position=(x, 0.5 * x), yaw=0.1 * x, room_id="kitchen" if x < 2 else "study") for x in range(3)]
# Noise under which distinct codes give equal captions: a one-label pool
# mislabels a mug as a mug, and frequent drops meet equal phrases.
VIEW_NOISES = [DEFAULT_NOISE, NoiseModel(p_drop=0.4, p_mislabel=0.5, label_pool=("mug",)),
               NoiseModel(p_drop=0.3, p_mislabel=0.6, label_pool=("mug", "book"))]


@settings(max_examples=80, deadline=None)
@given(
    runs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 9), st.sampled_from(range(len(POSES))),
                            st.sampled_from(range(len(VIEWS)))), max_size=12),
    mode=st.sampled_from(["oracle", "realistic"]),
    noise_seed=st.integers(0, 3),
    noise=st.sampled_from(VIEW_NOISES),
)
def test_build_persist_load_keys_tables_by_value(tmp_path_factory, runs, mode, noise_seed, noise):
    """Over random streams (runs of (gap, length, pose, view), 10 ticks a
    day): build equals the per-tick reference; its raws are pairwise
    distinct by value, each with its embedding; and persist then load gives
    equal records and tables, from a file that stores no embeddings."""
    ticks, t = [], 0
    for gap, length, pose, view in runs:
        t += gap
        for _ in range(length):
            ticks.append((Timestep.at(t, 10), POSES[pose], VIEWS[view]))
            t += 1
    memory = build(ticks, EMB, mode=mode, noise=noise, noise_seed=noise_seed, ticks_per_day=10)
    assert_same_memory(memory, reference_build(ticks, EMB, mode, noise_seed, 10, noise))
    assert len(set(memory._set.raws)) == len(memory._set.raws) == len(memory._set.embeddings)
    path = str(tmp_path_factory.mktemp("memory") / "memory.jsonl")
    persist(memory, path)
    assert not stores_embeddings(path)
    loaded = load(path)
    assert_loaded_equals(loaded, memory)
    assert_same_tables(loaded, memory)


def fake_endpoint(calls):
    """An external embedding endpoint: the reference embedding of the text
    with its first two coordinates swapped, so no reference row equals it.
    Each request is counted in calls."""
    def post(url, payload, timeout):
        calls.append(payload["input"])
        vector = EMB(payload["input"]).copy()
        vector[[0, 1]] = vector[[1, 0]]
        return {"vector": vector.tolist()}
    return post


@pytest.mark.parametrize("mode", ["oracle", "realistic"])
def test_external_embedder_memory_stores_its_rows(tmp_path, mode):
    """An external endpoint's embeddings cannot be derived offline: its
    memory file holds them in base64, one row per raw, and loads bit for
    bit without calling the endpoint."""
    calls = []
    config = EmbedderConfig(kind="external", d=64, endpoint="http://embedder.invalid/v1", model="m")
    embedder = Embedder(config, post=fake_endpoint(calls))
    memory = build(patrol_stream(1, 2, 3), embedder, mode=mode, noise_seed=1, ticks_per_day=200)
    assert calls and memory.embedder_id == "external:m:d=64"
    path, again = str(tmp_path / "memory.jsonl"), str(tmp_path / "again.jsonl")
    persist(memory, path)
    assert stores_embeddings(path)
    made = len(calls)
    loaded = load(path)
    assert len(calls) == made
    assert_same_bits(loaded, memory)
    assert loaded.records == memory.records
    persist(loaded, again)
    assert open(again, "rb").read() == open(path, "rb").read()


def refused_memories():
    """Memories of the reference embedder whose embeddings are not the ones
    their raw captions derive, each with the first raw persist must name:
    the last raw holding another caption's embedding, and two raws whose
    embeddings are swapped."""
    base = [(t, CAPTIONS[t % 3], (t, 0)) for t in range(4)]
    wrong = new_memory(base, embedder_id=EMB.embedder_id)
    batch = spec_batch(wrong, [(4, "a new caption", (0, 0))], EMB)
    wrong.extend(replace(batch, embeddings=[EMB("another caption")]))
    swapped = new_memory(embedder_id=EMB.embedder_id)
    batch = spec_batch(swapped, base, EMB)
    swapped.extend(replace(batch, embeddings=[batch.embeddings[j] for j in (0, 3, 2, 1)]))
    return {"wrong": (wrong, "raw 4: its embedding is not the one derived from its caption"),
            "swapped": (swapped, "raw 1: its embedding is not the one derived from its caption")}


@pytest.mark.parametrize("case", ["wrong", "swapped"])
def test_persist_refuses_rows_that_are_not_derived(tmp_path, case):
    """A reference embedder's memory file stores no embeddings, so persist
    writes no file of a memory whose embeddings load could not derive back,
    and names the first raw that differs; the same memory under another
    embedder_id keeps its embeddings."""
    memory, message = refused_memories()[case]
    path = tmp_path / "memory.jsonl"
    with pytest.raises(ValueError, match=re.escape(message)):
        persist(memory, str(path))
    assert not path.exists()
    stored = with_embedder_id(memory)
    persist(stored, str(path))
    assert_same_bits(load(str(path)), stored)


@pytest.mark.parametrize("caption", ["a lamp on the shelf", CAPTIONS[1]])
def test_an_edited_caption_loads_with_rows_derived_from_it(tmp_path, caption):
    """The embeddings of a reference embedder's file are derived on load:
    with one raw caption edited (and the file re-checksummed), each record
    of that raw gets the new caption's embedding, one per raw, also where
    the caption is made equal to another raw's."""
    memory = new_memory([(t, CAPTIONS[t % 3], (t, 0)) for t in range(6)], embedder_id=EMB.embedder_id)
    path = str(tmp_path / "memory.jsonl")
    persist(memory, path)
    rewrite_line(path, column_line("raw_caption", "derived", 6), column_edit("raw_caption", 0, caption))
    loaded = load(path)
    captions = [caption, *[raw.caption for raw in memory._set.raws[1:]]]
    assert [raw.caption for raw in loaded._set.raws] == captions
    assert [rec.embedding.tobytes() for rec in loaded.records] == [
        EMB(captions[i]).tobytes() for i in loaded._set.raw.tolist()]
    assert len(loaded._set.embeddings) == len(captions)
    persist(loaded, str(tmp_path / "again.jsonl"))


@pytest.mark.parametrize("layout, embeds", [("stored", 0), ("derived", 1)])
def test_load_embeds_the_captions_once_where_rows_are_derived(tmp_path, monkeypatch, layout, embeds):
    """load makes one embed_captions call over all raw captions of a file
    that derives its embeddings, and none for a file that stores them."""
    memory = build(patrol_stream(1, 2, 3), EMB, mode="realistic", noise_seed=1, ticks_per_day=200)
    memory = memory if layout == "derived" else with_embedder_id(memory)
    path = str(tmp_path / "memory.jsonl")
    persist(memory, path)
    calls = []
    embed_captions = Embedder.embed_captions

    def counted(self, captions):
        calls.append(len(captions))
        return embed_captions(self, captions)

    monkeypatch.setattr(Embedder, "embed_captions", counted)
    assert_same_bits(load(path), memory)
    assert calls == [len(memory._set.raws)] * embeds


def runs_memory():
    """A memory of three runs, 10 ticks a day, with one raw:
    t 0-2 and t 3-4 in two poses, then t 7-9 back in the first."""
    ticks = [(Timestep.at(t, 10), POSES[1 if 3 <= t <= 4 else 0], VIEWS[0]) for t in (0, 1, 2, 3, 4, 7, 8, 9)]
    return build(ticks, EMB, ticks_per_day=10)


def layout_runs_memory(layout):
    """runs_memory in the layout: the reference embedder's, whose file
    derives its embeddings, or under another embedder_id, whose file stores
    them."""
    return runs_memory() if layout == "derived" else with_embedder_id(runs_memory())


def column_line(name, layout, lists=1):
    """The line of a column in a memory file of the layout with lists entity
    lists: the header (line 0), the entity lists, then the column lines, and
    the embeddings line last when the embeddings are stored."""
    names = ("t0", "length", "day", "pose", "raw", "pose_x", "pose_y", "pose_yaw", "pose_room", "raw_list",
             "raw_caption", "embeddings")
    names = [n for n in names if layout == "stored" or n != "embeddings"]
    return 1 + lists + names.index(name)


def column_edit(name, j, value):
    """Set value j of a column line."""
    def edit(line):
        line[name][j] = value
        return line
    return edit


def embeddings_edit(edit):
    """Edit the bytes of an embeddings line."""
    def line_edit(line):
        return {"embeddings": base64.b64encode(edit(base64.b64decode(line["embeddings"]))).decode("ascii")}
    return line_edit


def doubled(data):
    return (np.frombuffer(data, dtype="<f8") * 2).astype("<f8").tobytes()


# Corruptions of runs_memory's file (three runs, two poses, one raw, and its
# 64 floats where stored), each in the layouts whose file holds its column: an
# embeddings edit in the stored layout, a caption without tokens in the
# derived one (whose captions are embedded), any other in both.
CORRUPTIONS = [
    # An int column takes JSON integers only; a float column integers too.
    ("day", column_edit("day", 1, True), "column 'day' run 1: expected a JSON int, got True"),
    ("t0", column_edit("t0", 0, 0.0), "column 't0' run 0: expected a JSON int, got 0.0"),
    ("raw_list", column_edit("raw_list", 0, False), "column 'raw_list' raw 0: expected a JSON int, got False"),
    ("pose", column_edit("pose", 2, 0.0), "column 'pose' run 2: expected a JSON int, got 0.0"),
    ("pose_x", column_edit("pose_x", 1, True), "column 'pose_x' pose 1: expected a JSON float, got True"),
    ("pose_yaw", column_edit("pose_yaw", 1, "0.5"), "column 'pose_yaw' pose 1: expected a JSON float, got '0.5'"),
    ("pose_room", column_edit("pose_room", 1, 7), "column 'pose_room' pose 1: expected a JSON str, got 7"),
    ("raw_caption", column_edit("raw_caption", 0, None),
     "column 'raw_caption' raw 0: expected a JSON str, got None"),
    ("t0", column_edit("t0", 2, 2**63), f"column 't0' run 2: {2**63} is out of the int64 range"),
    ("day", column_edit("day", 0, -(2**63) - 1), f"column 'day' run 0: {-(2**63) - 1} is out of the int64 range"),
    ("pose_y", column_edit("pose_y", 1, 10**309), f"column 'pose_y' pose 1: {10**309} is out of the float64 range"),
    # A column whose length is not the header's count.
    ("t0", lambda line: {"t0": line["t0"][:2]}, "column 't0': expected 3 values, one per run, got 2"),
    ("pose", lambda line: {"pose": line["pose"] * 2}, "column 'pose': expected 3 values, one per run, got 6"),
    ("pose_yaw", lambda line: {"pose_yaw": line["pose_yaw"] * 2},
     "column 'pose_yaw': expected 2 values, one per pose, got 4"),
    ("pose_room", lambda line: {"pose_room": "kitchen"}, "column 'pose_room': expected 2 values, one per pose, got str"),
    ("raw_caption", lambda line: {"raw_caption": []},
     "column 'raw_caption': expected 1 values, one per raw, got 0"),
    ("day", lambda line: {"days": line["day"]}, "expected the 'day' column line"),
    # Run lengths of at least 1, summing to records.
    ("length", column_edit("length", 0, 0), "column 'length' run 0: run length must be >= 1, got 0"),
    ("length", column_edit("length", 1, -2), "column 'length' run 1: run length must be >= 1, got -2"),
    ("length", column_edit("length", 0, 4), "record total mismatch: header says 8, runs hold 9"),
    ("length", column_edit("length", 2, 2), "record total mismatch: header says 8, runs hold 7"),
    # The embeddings line: base64 of exactly m*d*8 bytes.
    ("embeddings", lambda line: {"embeddings": line["embeddings"][:-4] + "AA*="},
     "column 'embeddings': bad base64"),
    ("embeddings", lambda line: {"embeddings": "é" + line["embeddings"][1:]}, "column 'embeddings': bad base64"),
    ("embeddings", embeddings_edit(lambda data: data[:-8]),
     "column 'embeddings': 504 bytes, expected 512, 8 per float of 1 rows of 64"),
    ("embeddings", lambda line: {"embeddings": [line["embeddings"]]}, "expected the 'embeddings' line"),
    ("embeddings", embeddings_edit(doubled), "embeddings 0: embedding must be unit norm, got 2.0"),
    ("embeddings", embeddings_edit(lambda data: np.full(64, math.nan, dtype="<f8").tobytes()),
     "embeddings 0: embedding must be unit norm, got nan"),
    # A caption is embedded only where embeddings are derived.
    ("raw_caption", column_edit("raw_caption", 0, " ;,"),
     "column 'raw_caption' raw 0: text has no tokens after normalization"),
    # Ids in range, checked whole; extend's checks name the run.
    ("raw_list", column_edit("raw_list", 0, 1), "column 'raw_list' raw 0: list id 1 out of range [0, 1)"),
    ("raw_list", column_edit("raw_list", 0, -1), "column 'raw_list' raw 0: list id -1 out of range [0, 1)"),
    ("pose", column_edit("pose", 1, 2), "column 'pose' run 1: pose id 2 out of range [0, 2)"),
    ("pose", column_edit("pose", 0, -1), "column 'pose' run 0: pose id -1 out of range [0, 2)"),
    ("raw", column_edit("raw", 1, -1), "column 'raw' run 1: raw id -1 out of range [0, 1)"),
    ("raw", column_edit("raw", 2, 1), "column 'raw' run 2: raw id 1 out of range [0, 1)"),
    ("t0", column_edit("t0", 1, 2), "run 1: non-monotonic timestamp 2 after 2"),
    ("day", column_edit("day", 2, -1), "run 2: timestep value and day must be non-negative"),
]


@pytest.mark.parametrize("layout, name, edit, message", [
    pytest.param(layout, name, edit, message, id=f"{layout}-{message[:48]}")
    for name, edit, message in CORRUPTIONS
    for layout in (("stored",) if name == "embeddings" else ("derived",) if "no tokens" in message
                   else ("stored", "derived"))
])
def test_corruption_names_the_column_or_run(tmp_path, layout, name, edit, message):
    memory = layout_runs_memory(layout)
    path = str(tmp_path / "memory.jsonl")
    persist(memory, path)
    header, lines, _ = artifacts.verify(path)
    assert (header["entity_lists"], header["count"], header["runs"], header["poses"], header["raws"]) == (
        (1, 12, 3, 2, 1) if layout == "stored" else (1, 11, 3, 2, 1))
    assert list(json.loads(lines[column_line(name, layout) - 1])) == [name]
    assert_same_bits(load(path), memory)
    rewrite_line(path, column_line(name, layout), edit)
    with pytest.raises(IntegrityError, match=re.escape(message)):
        load(path)


def test_a_day_off_t_over_ticks_per_day_is_refused(tmp_path):
    """A record's day is t // ticks_per_day. extend refuses a batch holding
    one that is not, naming the record, and stores nothing; build refuses a
    stream whose days do not fit its ticks_per_day; load refuses a file of
    either layout whose day column, or header ticks_per_day, is off, naming
    the run. Without this a day window would return hits marked with
    another day."""
    memory = LongTermMemory(d=64, ticks_per_day=10)
    batch = spec_batch(memory, [(t, f"caption {t}", (0, 0)) for t in range(15)], EMB)
    shifted = replace(batch, day=[*batch.day[:12], 0, *batch.day[13:]])
    with pytest.raises(BatchError, match=re.escape(
            "batch position 12: day 0 is not t // ticks_per_day = 1 for t=12 at ticks_per_day=10")):
        memory.extend(shifted)
    assert (len(memory), len(memory._set.embeddings), len(memory._set.raws)) == (0, 0, 0)
    memory.extend(batch)

    ticks = [(Timestep.at(t, 10), POSES[0], VIEWS[0]) for t in range(12)]
    with pytest.raises(BatchError, match=re.escape(
            "batch position 5: day 0 is not t // ticks_per_day = 1 for t=5 at ticks_per_day=5")):
        build(ticks, EMB, ticks_per_day=5)

    # runs_memory: runs t 0-2, 3-4 and 7-9, all of day 0 at 10 ticks a day.
    run2 = "run 2: day 1 is not t // ticks_per_day = 0 for t=7 at ticks_per_day=10"
    run1 = "run 1: day 0 is not t // ticks_per_day = 1 for t=4 at ticks_per_day=4"
    path = str(tmp_path / "memory.jsonl")
    for layout in ("stored", "derived"):
        for edit, message in (
            (lambda: rewrite_line(path, column_line("day", layout), column_edit("day", 2, 1)), run2),
            (lambda: rewrite_header(path, lambda header: header.update(ticks_per_day=4)), run1),
        ):
            persist(layout_runs_memory(layout), path)
            load(path)
            edit()
            with pytest.raises(IntegrityError, match=re.escape(message)):
                load(path)


@pytest.mark.parametrize(
    "name, j, value", [("pose_room", 1, 7), ("length", 0, 0), ("t0", 2, 2**63), ("pose_x", 1, "0.5"),
                       ("pose_x", 0, 2**1024),
                       # Each run and pose column, by a wrong JSON type and by a value out of range.
                       ("t0", 0, 0.0), ("t0", 1, "3"), ("day", 1, True), ("day", 2, None),
                       ("day", 0, -(2**63) - 1), ("pose_x", 1, None), ("pose_y", 0, [0.5]), ("pose_y", 1, 10**309),
                       ("pose_yaw", 1, "0.5"), ("pose_yaw", 0, True), ("pose_room", 0, None),
                       ("pose_room", 1, ["kitchen"]), ("pose", 1, "0"), ("pose", 2, 2), ("pose", 0, 2**64),
                       ("raw", 1, "0"), ("raw", 2, False),
                       ("raw", 0, 2**64), ("length", 1, -2), ("length", 2, 2.0), ("length", 1, True),
                       ("length", 0, "3")],
)
def test_both_layouts_give_one_message(tmp_path, name, j, value):
    """One corrupt value of a run or pose column, in a file that stores its
    embeddings and in one that derives them, is refused with one message
    that names the column and the run or pose: both layouts go through one
    column check."""
    path = str(tmp_path / "memory.jsonl")
    messages = set()
    for layout in ("stored", "derived"):
        persist(layout_runs_memory(layout), path)
        rewrite_line(path, column_line(name, layout), column_edit(name, j, value))
        with pytest.raises(IntegrityError) as raised:
            load(path)
        messages.add(str(raised.value))
    [message] = messages
    assert message.startswith(f"column '{name}' {'pose' if name.startswith('pose_') else 'run'} {j}: ")


def test_float_columns_take_json_integers(tmp_path):
    memory = runs_memory()
    path = str(tmp_path / "memory.jsonl")
    persist(memory, path)
    rewrite_line(path, column_line("pose_x", "derived"), column_edit("pose_x", 0, 2))
    positions = [load(path).record(i).pose.position for i in range(3)]
    assert positions == [(2.0, 0.0)] * 3 and all(type(x) is float for x, _ in positions)


def test_entity_list_corruption_names_the_list(tmp_path):
    """An entity list is checked once, as SymbolicObservation checks one,
    however many raws share it."""
    memory = build([(Timestep.at(t, 10), POSES[0], VIEWS[5]) for t in range(6)], EMB, mode="realistic",
                   noise=VIEW_NOISES[1], ticks_per_day=10)
    path = str(tmp_path / "memory.jsonl")
    persist(memory, path)
    assert artifacts.verify(path)[0]["entity_lists"] == 1 < len(memory._set.raws)
    load(path)
    rewrite_line(path, 1, lambda entities: entities + entities[:1])
    with pytest.raises(IntegrityError, match="entity list 0: duplicate entity_id within one observation"):
        load(path)
    rewrite_line(path, 1, lambda entities: {"entities": entities})
    with pytest.raises(IntegrityError, match="entity_lists 0: expected a list of entities"):
        load(path)
    rewrite_line(path, 1, lambda line: [{**line["entities"][0], "attributes": "red"}])
    with pytest.raises(IntegrityError, match=re.escape("entity_lists 0: attributes must be a JSON array of strings, "
                                                       "got 'red'")):
        load(path)
    with pytest.raises(ValueError, match="duplicate entity_id within one observation"):
        SymbolicObservation(visible_entities=VIEWS[5].visible_entities * 2, caption="")


def assert_same_bits(a, b):
    """Equal header fields, equal columns as bytes, and equal tables, poses
    by bits, so that 0.0 and -0.0 differ."""
    assert (a.d, a.ticks_per_day, a.embedder_id, a.mode) == (b.d, b.ticks_per_day, b.embedder_id, b.mode)
    sa, sb = a._set, b._set
    for name in RECORD_FIELDS:
        ca, cb = getattr(sa, name), getattr(sb, name)
        assert ca.dtype == cb.dtype == np.int64, name
        assert ca.tobytes() == cb.tobytes(), name
    assert [pose_bits(pose) for pose in sa.poses] == [pose_bits(pose) for pose in sb.poses]
    assert sa.embeddings.tobytes() == sb.embeddings.tobytes()
    assert sa.raws == sb.raws


# Poses for random runs: 0.0 and -0.0 in either coordinate (equal as floats,
# not as bits), two value-equal poses that are different objects, and a pose
# that differs from them only in its room.
SIGNED_POSES = [Pose(position=(0.0, 0.0), yaw=0.0, room_id="kitchen"),
                Pose(position=(-0.0, 0.0), yaw=0.0, room_id="kitchen"),
                Pose(position=(0.0, -0.0), yaw=0.0, room_id="kitchen"),
                Pose(position=(1.5, 0.75), yaw=0.1, room_id="study"),
                Pose(position=(1.5, 0.75), yaw=0.1, room_id="study"),
                Pose(position=(1.5, 0.75), yaw=0.1, room_id="hall")]


@settings(max_examples=80, deadline=None)
@given(
    runs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 9), st.sampled_from(range(len(SIGNED_POSES))),
                            st.sampled_from(range(len(VIEWS)))), max_size=12),
    mode=st.sampled_from(["oracle", "realistic"]),
    noise_seed=st.integers(0, 3),
)
# Adjacent runs that join (value-equal poses, value-equal views) and that do
# not (-0.0 after 0.0, another room, a gap, a day boundary at t 10); an empty
# memory; a memory of one run.
@example(runs=[(0, 3, 3, 0), (0, 2, 4, 1), (0, 2, 5, 1), (0, 2, 0, 1), (0, 2, 1, 1), (1, 3, 2, 1), (0, 4, 2, 1)],
         mode="oracle", noise_seed=0)
@example(runs=[], mode="oracle", noise_seed=0)
@example(runs=[(2, 5, 1, 3)], mode="oracle", noise_seed=0)
def test_persist_writes_one_column_entry_per_maximal_run(tmp_path_factory, runs, mode, noise_seed):
    """Over random streams (runs of (gap, length 1-9, pose, view), 10 ticks
    a day, so runs cross day boundaries and poses recur in runs that are not
    adjacent): each run column of the file holds one entry per maximal run
    of records (t rising by 1, the other fields equal by bits), counted here
    record by record; the pose table holds the stream's poses distinct by
    bits, in order of first use; and load gives the build back bit for bit,
    column by column, tables included."""
    ticks, t = [], 0
    for gap, length, pose, view in runs:
        t += gap
        for _ in range(length):
            ticks.append((Timestep.at(t, 10), SIGNED_POSES[pose], VIEWS[view]))
            t += 1
    memory = build(ticks, EMB, mode=mode, noise_seed=noise_seed, ticks_per_day=10)
    path = str(tmp_path_factory.mktemp("memory") / "memory.jsonl")
    persist(memory, path)
    snap = memory._set
    ts = snap.t.tolist()
    assert [pose_bits(pose) for pose in snap.poses] == list(dict.fromkeys(pose_bits(pose) for _, pose, _ in ticks))
    assert record_poses(memory) == [pose_bits(pose) for _, pose, _ in ticks]
    # Each record's fields other than t, its pose's floats by their bits.
    rest = list(zip(snap.day.tolist(), record_poses(memory), snap.raw.tolist()))
    maximal = sum(1 for i in range(len(ts)) if i == 0 or ts[i] != ts[i - 1] + 1 or rest[i] != rest[i - 1])
    header, lines, _ = artifacts.verify(path)
    assert (header["runs"], header["records"], header["poses"], header["raws"]) == (
        maximal, len(ticks), len(snap.poses), len(snap.raws))
    assert not stores_embeddings(path)
    columns = [json.loads(line) for line in lines[header["entity_lists"]:]]
    names = ("t0", "length", "day", "pose", "raw")
    assert [list(column) for column in columns[:5]] == [[name] for name in names]
    assert [len(column[name]) for column, name in zip(columns, names)] == [maximal] * 5
    loaded = load(path)
    assert_same_bits(loaded, memory)
    assert loaded.records == memory.records


# Poses that share a position and differ in yaw, in room or in the sign of a
# zero: distinct poses at equal distances from any centre.
SHARED_POSES = [Pose(position=pos, yaw=yaw, room_id=room) for pos in ((0.0, 0.0), (-0.0, 0.0), (1.0, -0.0), (1.0, 0.0))
                for yaw in (0.0, 0.5) for room in ("kitchen", "den")]


@settings(max_examples=100, deadline=None)
@given(
    runs=st.lists(st.tuples(st.integers(0, 2), st.integers(1, 5), st.integers(0, len(SHARED_POSES) - 1)),
                  min_size=1, max_size=20),
    center=st.sampled_from([(0.0, 0.0), (-0.0, -0.0), (0.5, 0.0), (1.0, 0.0), (3.0, 4.0)]),
    radius=st.sampled_from([0.5, 1.0, 1.2, 10.0]),
    r=st.integers(1, 30) | st.just(10**9),
)
@example(runs=[(0, 2, 0), (0, 1, 1), (0, 3, 2), (1, 1, 8), (0, 2, 0)], center=(0.0, 0.0), radius=1.0, r=4)
def test_poses_that_share_a_position_tie_and_round_trip(tmp_path_factory, runs, center, radius, r):
    """Over random streams (runs of (gap, length, pose), 10 ticks a day) of
    poses that share a position: build keeps one pose per distinct pose,
    floats by their bits; spatial hits, whose ties merge records of several
    poses, equal a linear scan of each record's position in the stream, on
    the built memory and on the loaded one; and load(persist(m)) equals m
    record by record, each record's pose equal to its tick's by bits."""
    ticks, t = [], 0
    for gap, length, pose in runs:
        t += gap
        for _ in range(length):
            ticks.append((Timestep.at(t, 10), SHARED_POSES[pose], VIEWS[0]))
            t += 1
    memory = build(ticks, EMB, ticks_per_day=10)
    assert len(memory._set.poses) == len({pose_bits(pose) for _, pose, _ in ticks})
    path = str(tmp_path_factory.mktemp("memory") / "memory.jsonl")
    persist(memory, path)
    loaded = load(path)
    assert [loaded.record(i) for i in range(len(ticks))] == [memory.record(i) for i in range(len(ticks))]
    assert record_poses(loaded) == record_poses(memory) == [pose_bits(pose) for _, pose, _ in ticks]
    want = scan_spatial([pose.position for _, pose, _ in ticks], center, radius, r)
    assert same_hits(memory.query_spatial(center, radius, r=r).hits, want)
    assert same_hits(loaded.query_spatial(center, radius, r=r).hits, want)


def test_persist_and_load_encode_per_distinct_entity_list(tmp_path, monkeypatch):
    """persist and load call canonical_dumps and json.loads a fixed number
    of times plus one per distinct entity list, however many runs, records
    and raws the memory holds; load checks each entity list's ids once."""
    import objsearch.artifacts as artifacts_module
    import objsearch.core as core_module

    stream = patrol_stream(1, 2, 3)
    memory = build(stream, EMB, mode="realistic", noise_seed=1, ticks_per_day=200)
    lists = len({raw.visible_entities for raw in memory._set.raws})
    assert len(memory._set.raws) > 10 * lists and len(memory._set.run_starts) > 10 * lists
    calls = {"dumps": 0, "loads": 0, "ids": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(artifacts_module, "canonical_dumps", counted("dumps", artifacts_module.canonical_dumps))
    monkeypatch.setattr(artifacts_module, "canonical_loads", counted("loads", artifacts_module.canonical_loads))
    monkeypatch.setattr(core_module, "_check_entity_ids", counted("ids", core_module._check_entity_ids))
    path = str(tmp_path / "memory.jsonl")
    persist(memory, path)
    loaded = load(path)
    # header, lists, 11 columns (no embeddings) and the checksum line.
    assert calls == {"dumps": lists + 13, "loads": lists + 13, "ids": lists}
    assert_same_bits(loaded, memory)


def test_extend_takes_one_embedding_per_new_raw():
    """A batch holds one embedding per new raw: extend refuses any other
    count as it refuses columns of unequal length, and checks only the new
    embeddings, naming a bad one by its position among them. Either way
    nothing is stored."""
    memory = new_memory([(t, CAPTIONS[t % 2], (t, 0)) for t in range(6)])
    assert len(memory._set.embeddings) == len(memory._set.raws) == 6
    batch = spec_batch(memory, [(6, CAPTIONS[0], (0, 0)), (7, "a new caption", (0, 0))], EMB)
    assert (batch.raw, len(batch.embeddings)) == ([6, 7], 2)
    for embeddings in (batch.embeddings[:1], [*batch.embeddings, EMB("a spare")], []):
        with pytest.raises(ValueError, match=f"batch has {len(embeddings)} embeddings for 2 new raws"):
            memory.extend(replace(batch, embeddings=embeddings))
    with pytest.raises(BatchError) as info:
        memory.extend(with_entry(batch, "embeddings", 1, EMB32("a mug")))
    assert info.value.position == 1 and info.value.part == "embeddings"
    assert (len(memory), len(memory._set.embeddings), len(memory._set.raws)) == (6, 6, 6)
    memory.extend(batch)
    assert memory.record(7).embedding.tobytes() == EMB("a new caption").tobytes()


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
            assert (view["t"], view["day"], view["room"], view["x"], view["y"], view["caption"]) == (
                rec.t.value, rec.t.day, rec.pose.room_id, *rec.pose.position, rec.raw.caption)


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
            extend(memory, [(t, f"caption {t % 10}", (0.0, 0.0)) for t in range(b * batch, (b + 1) * batch)])
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    assert errors == []
    assert [rec.t.value for rec in memory.records] == list(range(batch * batches))


def test_noise_rates_lie_in_binomial_intervals():
    """Over a 7,800-record realistic memory, the share of entities dropped is
    within the 99.9% Wilson interval around p_drop's trials, and the share of
    kept entities mislabeled within the one around p_mislabel's. Each entity
    of this stream has its own attribute, so each caption phrase names its
    entity and its label."""
    from objsearch.bench import wilson_interval
    from objsearch.core import DEFAULT_LABEL_POOL, NoiseModel

    rng = random.Random(5)
    observations = []
    for i in range(8):
        entities = tuple(
            VisibleEntity(entity_id=f"e{i}_{k}", class_label=DEFAULT_LABEL_POOL[(i + k) % 12],
                          attributes=(f"tag{i}x{k}",), landmark_id="desk")
            for k in range(1 + i % 5)
        )
        observations.append(SymbolicObservation(visible_entities=entities, caption=""))
    pose = Pose(position=(0.0, 0.0), yaw=0.0, room_id="study")
    runs, t = [], 0
    while t < 7800:
        length = min(rng.randint(1, 30), 7800 - t, 1300 - t % 1300)
        runs.append((t, t // 1300, length, pose, rng.choice(observations)))
        t += length
    noise = NoiseModel(p_drop=0.1, p_mislabel=0.2)
    memory = build(ObservationStream(runs), EmbedderConfig(d=16), mode="realistic", noise=noise,
                   noise_seed=2024, ticks_per_day=1300)
    assert len(memory) == 7800
    truth = {e.attributes[0]: e.class_label for obs in observations for e in obs.visible_entities}
    entities = kept = mislabeled = 0
    held = memory._set
    for raw in (held.raws[j] for j in held.raw.tolist()):
        entities += len(raw.visible_entities)
        if raw.caption == "nothing notable":
            continue
        for phrase in raw.caption.split("; "):
            _, tag, label, *_ = phrase.split()
            kept += 1
            mislabeled += label != truth[tag]
    z999 = 3.2905267314919255
    low, high = wilson_interval(entities - kept, entities, z=z999)
    assert low <= noise.p_drop <= high, (entities - kept, entities)
    low, high = wilson_interval(mislabeled, kept, z=z999)
    assert low <= noise.p_mislabel <= high, (mislabeled, kept)
