"""External-policy wire protocol: byte-exact serialization and parse behavior
against the shipped conformance corpus."""

import json

import pytest

from objsearch.agent import (
    ChatCompletionPolicy,
    LLMPolicyConfig,
    WireParseError,
    build_request,
    decode_request,
    decode_response,
    encode_request,
)
from objsearch.agent.wire import WIRE_VERSION, load_conformance_corpus
from objsearch.core import Instruction, WorkingMemory, canonical_dumps


@pytest.fixture(scope="module")
def corpus():
    return load_conformance_corpus()


def test_corpus_has_ten_valid_cases(corpus):
    assert len(corpus["cases"]) == 10
    assert corpus["version"] == WIRE_VERSION


def test_requests_reencode_byte_exact(corpus):
    """decode_request then encode_request reproduces the exact bytes shipped
    in the corpus, whose hits carry no keyframe flag."""
    for case in corpus["cases"]:
        instruction, budget, schemas, h = decode_request(case["request"])
        assert (instruction, budget) == (h.instruction.text, h.remaining_budget)
        encoded = encode_request(instruction, budget, schemas, h)
        assert encoded == case["request"], case["name"]
        assert encoded.encode("utf-8") == case["request"].encode("utf-8")
        assert "keyframe" not in encoded


def test_decode_request_refuses_another_wire_version(corpus):
    body = json.loads(corpus["cases"][0]["request"])
    for version in (2, 4):
        with pytest.raises(WireParseError, match=f"request version {version}, expected {WIRE_VERSION}"):
            decode_request(canonical_dumps({**body, "version": version}))


def test_policies_decide_from_the_decoded_request_alone(tmp_path, monkeypatch):
    """Every scripted policy, deciding from decode_request(encode_request(...))
    of each step instead of its own arguments, writes the direct run's log
    and report byte for byte, on a one-scene desk slice in both modes: a
    request carries everything a policy reads."""
    from objsearch.bench import SuiteConfig, generate_suite, run_suite, suite

    tasks = generate_suite(scenes=(1,), per_family=1)
    config = SuiteConfig(methods=("random", "sg_s", "tr_s", "star"), modes=("oracle", "realistic"))
    direct = run_suite(tasks, config, log_path=str(tmp_path / "direct.jsonl"))
    make_policy, decisions = suite.make_policy, []

    def over_the_wire(*args, **kwargs):
        policy = make_policy(*args, **kwargs)

        def decide(instruction, h, budget, schemas):
            decisions.append(encode_request(instruction, budget, schemas, h))
            instruction, budget, schemas, h = decode_request(decisions[-1])
            return policy(instruction, h, budget, schemas)
        return decide

    monkeypatch.setattr(suite, "make_policy", over_the_wire)
    wired = run_suite(tasks, config, log_path=str(tmp_path / "wired.jsonl"))
    assert canonical_dumps(wired.to_dict()) == canonical_dumps(direct.to_dict())
    assert (tmp_path / "wired.jsonl").read_bytes() == (tmp_path / "direct.jsonl").read_bytes()
    # A memory-blind episode runs in the first mode only; later modes log a copy.
    ran = [e for e in direct.episodes if e["mode"] == "oracle" or e["method"] not in suite.MEMORY_BLIND]
    assert len(decisions) >= sum(episode["steps_used"] for episode in ran) > 0



def test_llm_suite_over_a_star_transport_matches_star(monkeypatch):
    """run_suite with the llm method, its chat transport answering each
    request by a fresh STAR that decides from decode_request of the user
    message, gives each task STAR's success, steps and action counts, on a
    one-scene desk slice in both modes. Nothing touches the network."""
    from objsearch.agent import StarScriptedPolicy
    from objsearch.bench import SuiteConfig, default_prior_table, generate_suite, run_suite, suite

    def post(url, payload, timeout):
        instruction, budget, schemas, h = decode_request(payload["messages"][-1]["content"])
        decision = StarScriptedPolicy(prior_table=default_prior_table())(instruction, h, budget, schemas)
        if decision is None:
            raise ConnectionError("STAR gave up")  # the client aborts the episode, as STAR's run ends
        reply = {**decision.action.to_dict(), "rationale": decision.rationale}
        return {"choices": [{"message": {"content": canonical_dumps(reply)}}]}

    tasks, modes = generate_suite(scenes=(1,), per_family=1), ("oracle", "realistic")
    star = run_suite(tasks, SuiteConfig(methods=("star",), modes=modes))
    monkeypatch.setattr(suite, "make_policy", lambda method, task, config, scene_graphs=None:
                        ChatCompletionPolicy(config.llm, post=post))
    llm = run_suite(tasks, SuiteConfig(methods=("llm",), modes=modes, llm=LLMPolicyConfig(url="http://unused")))

    def outcomes(report):
        return [(e["task_id"], e["mode"], e["success"], e["steps_used"], e["action_counts"]) for e in report.episodes]

    assert outcomes(llm) == outcomes(star) and len(star.episodes) == 2 * len(tasks)


def test_responses_decode_to_expected_actions(corpus):
    for case in corpus["cases"]:
        action, rationale = decode_response(case["response"])
        assert action.tool == case["expect"]["tool"], case["name"]
        assert action.args == case["expect"]["args"], case["name"]
        assert rationale == case["expect"]["rationale"], case["name"]


def test_malformed_responses_raise_with_diagnostics(corpus):
    for case in corpus["malformed"]:
        with pytest.raises(WireParseError) as err:
            decode_response(case["response"])
        assert case["error_contains"] in str(err.value), case["name"]


def test_request_structure_versioned():
    h = WorkingMemory.fresh(Instruction(text="find the mug"), 20)
    body = build_request("find the mug", 20, {"tools": []}, h)
    assert body["version"] == WIRE_VERSION
    assert set(body) == {"version", "instruction", "remaining_budget", "tool_schemas", "trace"}


def test_client_reprompt_then_abort_through_corpus(corpus):
    """Feed each malformed reply twice through the client: one reprompt, then
    abort; a valid second reply instead recovers."""
    valid = corpus["cases"][0]["response"]
    for case in corpus["malformed"]:
        # malformed then malformed -> abort
        replies = iter([case["response"], case["response"]])

        def post(url, payload, timeout):
            return {"choices": [{"message": {"content": next(replies)}}]}

        policy = ChatCompletionPolicy(LLMPolicyConfig(url="http://x"), post=post)
        h = WorkingMemory.fresh(Instruction(text="find the mug"), 5)
        assert policy("find the mug", h, 5, {}) is None, case["name"]

        # malformed then valid -> recovered decision
        replies = iter([case["response"], valid])
        reprompts = []

        def post2(url, payload, timeout):
            reprompts.append(payload)
            return {"choices": [{"message": {"content": next(replies)}}]}

        policy = ChatCompletionPolicy(LLMPolicyConfig(url="http://x"), post=post2)
        decision = policy("find the mug", h, 5, {})
        assert decision is not None and decision.action.tool, case["name"]
        assert len(reprompts) == 2
