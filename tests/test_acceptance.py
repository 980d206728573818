"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import heapq
import json
import random
import time

import numpy as np
import pytest

from conftest import spec_batch
from objsearch.agent import (
    ActionExecutor,
    TERMINATION_CRASH,
    PolicyDecision,
    default_registry,
    run_episode,
)
from objsearch.agent.wire import load_conformance_corpus
from objsearch.bench import (
    SuiteConfig,
    adjudicate,
    build_fixture_suite,
    build_task,
    generate_suite,
    optimal_counts,
    prepare_task,
    run_suite,
    run_task_episode,
)
from objsearch.bench.suite import PHYSICAL_CATEGORIES
from objsearch.core import Action
from objsearch.embed import Embedder, EmbedderConfig
from objsearch.homesim import (
    Landmark,
    Location,
    Room,
    Schedule,
    WorldObject,
    WorldState,
    generate_world,
    patrol,
)
from objsearch.memstore import LongTermMemory, SCORE_DECIMALS


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# -- fixtures shared across criteria -----------------------------------------------


def run_fixture_suite(kind: str, methods: tuple[str, ...], n: int = 20, seed: int = 0):
    config = SuiteConfig(methods=methods, modes=("oracle",), seed=seed)
    tasks = build_fixture_suite(kind, n=n, seed=seed)
    results: dict[str, list] = {m: [] for m in methods}
    for task in tasks:
        memories, graphs, embedder, world = prepare_task(task, config)
        memory = memories["oracle"]
        for method in methods:
            r = run_task_episode(task, method, config, memory, graphs, embedder, world)
            assert r.error is None, r.error
            assert adjudicate(task, r) == r.success
            results[method].append(r)
    return tasks, results


@pytest.fixture(scope="module")
def unmoved_results():
    return run_fixture_suite("unmoved_visible", ("tr_s", "star"))


@pytest.fixture(scope="module")
def moved_results():
    return run_fixture_suite("moved_spatial_temporal", ("tr_s", "star"))


@pytest.fixture(scope="module")
def twin_results():
    return run_fixture_suite("twin_interactive", ("sg_s", "star"))


@pytest.fixture(scope="module")
def commonsense_results():
    return run_fixture_suite("commonsense", ("random", "star"))


def rate(results) -> float:
    return sum(1 for r in results if r.success) / len(results)


def mean_physical(results) -> float:
    succ = [r for r in results if r.success]
    return sum(
        sum(r.action_counts[c] for c in PHYSICAL_CATEGORIES) for r in succ
    ) / len(succ)


# -- criterion 1: retrieval oracle equivalence ---------------------------------------


def test_criterion_1_retrieval_oracle_equivalence():
    emb = Embedder(EmbedderConfig(d=64))
    rng = random.Random(20240601)
    vocab = ["mug", "folder", "book", "sink", "desk", "red", "green", "blue",
             "toy", "sofa", "lamp", "counter", "bed", "cabinet"]

    def random_memory(n):
        """A memory of n records extended as one Batch, and the test's own
        columns of it: timesteps, positions and embeddings."""
        specs = []
        t = 0
        for _ in range(n):
            t += rng.randrange(1, 3)
            caption = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 6)))
            pos = (rng.randrange(0, 10) * 0.5, rng.randrange(0, 10) * 0.5)
            specs.append((t, caption, pos))
        memory = LongTermMemory(d=64, ticks_per_day=100)
        memory.extend(spec_batch(memory, specs, emb))
        ts = np.array([t for t, _, _ in specs])
        positions = np.array([pos for _, _, pos in specs])
        embeddings = np.array([emb(caption) for _, caption, _ in specs])
        return memory, ts, positions, embeddings

    # Linear scans over the test's own columns. heapq keeps the r smallest
    # (key, index) pairs, so ties go to the lower index.
    def top(r, keys, indices):
        return [i for _, i in heapq.nsmallest(r, zip(keys.tolist(), indices.tolist()))]

    def oracle_semantic(embeddings, qvec, r):
        scores = np.round(embeddings @ qvec, SCORE_DECIMALS)
        return top(r, -scores, np.arange(len(scores)))

    def oracle_point(ts, center, r):
        return top(r, np.abs(ts - center), np.arange(len(ts)))

    def oracle_spatial(positions, center, radius, r):
        offsets = positions - np.array(center)
        dist = np.round(np.hypot(offsets[:, 0], offsets[:, 1]), SCORE_DECIMALS)
        inside = np.flatnonzero(dist <= radius)
        return top(r, dist[inside], inside)

    start = time.monotonic()
    checked = 0
    for _ in range(100):
        memory, ts, positions, embeddings = random_memory(rng.randrange(50, 1001))
        queries = 100
        for _ in range(queries):
            r = rng.randrange(1, 16)
            qtext = " ".join(rng.choice(vocab) for _ in range(2))
            assert list(memory.query_semantic(qtext, emb, r=r).indices) == oracle_semantic(embeddings, emb(qtext), r)
            center = rng.randrange(0, int(ts[-1]) + 10)
            assert list(memory.query_temporal(t_center=center, r=r).indices) == oracle_point(ts, center, r)
            pos = (rng.randrange(0, 10) * 0.5, rng.randrange(0, 10) * 0.5)
            radius = rng.choice([0.5, 1.0, 2.0, 4.0])
            assert list(memory.query_spatial(pos, radius, r=r).indices) == oracle_spatial(positions, pos, radius, r)
            checked += 3
    elapsed = time.monotonic() - start
    report(1, elapsed < 60.0,
           f"{checked} queries on 100 randomized memories match the linear-scan oracle "
           f"exactly in {elapsed:.1f}s (< 60s)")


# -- criterion 2: protocol constants -----------------------------------------------


def test_criterion_2_protocol_constants():
    # Budget safety: 1,000 randomized episodes never exceed 20 steps.
    rooms = [Room("den", (0, 0, 12, 12))]
    landmarks = [Landmark(f"spot_{i}", f"spot {i}", "den", (1.0 + i, 1.0), i % 3 == 0)
                 for i in range(8)]

    def fresh_world():
        objects = [
            WorldObject("mug_1", "mug", ("red",), Location("landmark", "spot_1")),
            WorldObject("toy_1", "toy", (), Location("inside", "spot_0")),
        ]
        return WorldState(1, 0, rooms, landmarks, objects, ticks_per_day=50)

    emb = Embedder(EmbedderConfig(d=64))
    violations = 0
    episodes = 0
    for seed in range(1000):
        world = fresh_world()
        registry = default_registry(world)
        executor = ActionExecutor(LongTermMemory(d=64, ticks_per_day=50), world,
                                  Schedule(seed=0), emb)
        rng = random.Random(seed)

        def fuzz(text, h, remaining, schema):
            roll = rng.random()
            if roll < 0.15:
                return PolicyDecision(Action("navigate", {"bogus": True}))  # invalid
            if roll < 0.30:
                return PolicyDecision(Action("semantic_query", {"query": "mug"}))
            if roll < 0.45:
                return PolicyDecision(Action("detect"))
            if roll < 0.60:
                return PolicyDecision(Action("pick", {"entity": "mug_1"}))
            return PolicyDecision(Action("navigate", {"landmark": f"spot_{rng.randrange(8)}"}))

        result = run_episode("find the red mug", executor, fuzz, registry,
                             budget=20, target_entity="mug_1")
        episodes += 1
        if result.steps_used > 20 or len(result.trace.steps) > 20:
            violations += 1
        if result.success and result.termination != "retrieved":
            violations += 1
        if sum(result.action_counts.values()) != result.steps_used:
            violations += 1
        if result.termination == TERMINATION_CRASH:
            violations += 1

    # Patrol day range and full-scale observation band.
    world, schedule = generate_world(0, 1, ticks_per_day=1300)
    stream = patrol(world, schedule, days=3)
    per_day = len(stream) // 3
    day_band_ok = 1200 <= per_day <= 1500 and len(stream) == 3900
    range_ok = True
    for bad_days in (2, 7):
        w, s = generate_world(0, 1)
        try:
            patrol(w, s, days=bad_days)
            range_ok = False
        except ValueError:
            pass

    # Optimal action count constants.
    vis = build_task(1, "class", "visible", 0, seed=0)
    inter = build_task(1, "class", "interactive", 0, seed=0)
    optima_ok = (
        sum(optimal_counts(vis).values()) == 3
        and sum(optimal_counts(inter).values()) == 5
    )

    report(2, violations == 0 and day_band_ok and range_ok and optima_ok,
           f"K=20 held over {episodes} randomized episodes; patrol rejects days outside 3-6 "
           f"and yields {per_day} obs/day at full scale; optimal counts 3 (visible) / 5 (interactive)")


# -- criterion 3: scripted-policy fixture orderings -----------------------------------


def test_criterion_3_unmoved_fixtures(unmoved_results):
    _, results = unmoved_results
    trs, star = rate(results["tr_s"]), rate(results["star"])
    report(3, trs == 1.0 and star == 1.0,
           f"unmoved visible (n=20, oracle memory): TR+S={trs:.2f}, STAR={star:.2f} (both 1.00)")


def test_criterion_3_moved_fixtures(moved_results):
    _, results = moved_results
    trs, star = rate(results["tr_s"]), rate(results["star"])
    report(3, trs == 0.0 and star >= 0.9,
           f"moved-after-patrol spatial-temporal (n=20): TR+S={trs:.2f} (=0), STAR={star:.2f} (>=0.90)")


def test_criterion_3_twin_fixtures(twin_results):
    _, results = twin_results
    sgs, star = rate(results["sg_s"]), rate(results["star"])
    report(3, sgs <= 0.6 and star >= 0.9,
           f"twin-receptacle interactive (n=20): SG+S={sgs:.2f} (<=0.60 at chance), STAR={star:.2f} (>=0.90)")


# -- criterion 4: action economy --------------------------------------------------------


def test_criterion_4_action_economy(unmoved_results, twin_results):
    _, unmoved = unmoved_results
    _, twin = twin_results
    vis = mean_physical(unmoved["star"])
    inter = mean_physical(twin["star"])
    report(4, vis <= 6.0 and inter <= 10.0,
           f"STAR mean physical actions per successful run: visible {vis:.2f} (<=6), "
           f"interactive {inter:.2f} (<=10)")


# -- criterion 5: action-mix ordering -----------------------------------------------------


@pytest.fixture(scope="module")
def shared_suite_report():
    tasks = generate_suite(per_family=1, seed=5)
    config = SuiteConfig(methods=("tr_s", "star"), modes=("oracle",), seed=5)
    return run_suite(tasks, config)


def test_criterion_5_action_mix_ordering(shared_suite_report):
    shares = {}
    for method in ("tr_s", "star"):
        eps = [e for e in shared_suite_report.episodes if e["method"] == method]
        total = sum(e["steps_used"] for e in eps)
        spatial = sum(sum(e["action_counts"][c] for c in PHYSICAL_CATEGORIES) for e in eps)
        shares[method] = spatial / total
    report(5, shares["star"] > shares["tr_s"],
           f"spatial-action share on the shared suite: STAR {shares['star']:.3f} > "
           f"TR+S {shares['tr_s']:.3f}")


# -- criterion 6: commonsense -----------------------------------------------------------


def test_criterion_6_commonsense(commonsense_results):
    _, results = commonsense_results
    star, rand = rate(results["star"]), rate(results["random"])
    report(6, star >= 0.8 and rand <= 0.2,
           f"commonsense fixtures (n=20, true-room prior): STAR={star:.2f} (>=0.80), "
           f"Random={rand:.2f} (<=0.20)")


# -- criterion 7: determinism and replay ---------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    tasks = generate_suite(scenes=(1, 2), per_family=1, seed=13)[:8]
    config = SuiteConfig(methods=("random", "sg_s", "tr_s", "star"), modes=("oracle", "realistic"), seed=13)
    log1, log2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    r1 = run_suite(tasks, config, log_path=log1)
    r2 = run_suite(tasks, config, log_path=log2)
    identical_logs = open(log1, "rb").read() == open(log2, "rb").read()
    identical_reports = r1.to_dict() == r2.to_dict()
    import dataclasses

    par = dataclasses.replace(config, parallelism=2)
    log3 = str(tmp_path / "c.jsonl")
    run_suite(tasks, par, log_path=log3)
    parallel_identical = open(log1, "rb").read() == open(log3, "rb").read()
    report(7, identical_logs and identical_reports and parallel_identical,
           "two sequential runs and a 2-worker run produce byte-identical raw episode logs")


# -- criterion 8: policy wire conformance -----------------------------------------------------


def test_criterion_8_wire_conformance():
    from objsearch.agent import ChatCompletionPolicy, LLMPolicyConfig, WireParseError, decode_response, encode_request
    from objsearch.core import Action as CoreAction, Instruction, Outcome, WorkingMemory

    corpus = load_conformance_corpus()
    ok = len(corpus["cases"]) == 10
    for case in corpus["cases"]:
        body = json.loads(case["request"])
        h = WorkingMemory(
            instruction=Instruction(text=body["instruction"]),
            steps=tuple(
                (CoreAction.from_dict(s["action"]), Outcome.from_dict(s["outcome"]))
                for s in body["trace"]
            ),
            remaining_budget=body["remaining_budget"],
        )
        encoded = encode_request(body["instruction"], body["remaining_budget"],
                                 body["tool_schemas"], h)
        ok = ok and encoded == case["request"]
        action, rationale = decode_response(case["response"])
        ok = ok and action.tool == case["expect"]["tool"] and action.args == case["expect"]["args"]
    malformed_ok = True
    for case in corpus["malformed"]:
        try:
            decode_response(case["response"])
            malformed_ok = False
        except WireParseError as exc:
            malformed_ok = malformed_ok and case["error_contains"] in str(exc)
        # Client behavior: malformed reply -> one reprompt; repeat -> abort.
        replies = iter([case["response"], case["response"]])
        calls = []

        def post(url, payload, timeout):
            calls.append(1)
            return {"choices": [{"message": {"content": next(replies)}}]}

        policy = ChatCompletionPolicy(LLMPolicyConfig(url="http://x"), post=post)
        h = WorkingMemory.fresh(Instruction(text="find the mug"), 5)
        aborted = policy("find the mug", h, 5, {}) is None
        malformed_ok = malformed_ok and aborted and len(calls) == 2
    report(8, ok and malformed_ok,
           f"{len(corpus['cases'])} request/response pairs byte-exact; "
           f"{len(corpus['malformed'])} malformed replies reprompt once then abort")
