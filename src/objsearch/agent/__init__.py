"""Decision loop, unified action space, and policies."""

from .llm import ChatCompletionPolicy, LLMPolicyConfig
from .loop import (
    DEFAULT_BUDGET,
    EpisodeResult,
    Policy,
    PolicyDecision,
    TERMINATION_ABORT,
    TERMINATION_BUDGET,
    TERMINATION_CRASH,
    TERMINATION_RETRIEVED,
    classify_action,
    run_episode,
)
from .policies import (
    RandomSearchPolicy,
    SgPlusSPolicy,
    StarScriptedPolicy,
    TrPlusSPolicy,
    parse_instruction,
)
from .registry import R_MAX, ActionExecutor, default_registry, outcome_json
from .wire import WIRE_VERSION, WireParseError, build_request, decode_request, decode_response, encode_request

__all__ = [
    "ActionExecutor",
    "ChatCompletionPolicy",
    "DEFAULT_BUDGET",
    "EpisodeResult",
    "LLMPolicyConfig",
    "Policy",
    "PolicyDecision",
    "R_MAX",
    "RandomSearchPolicy",
    "SgPlusSPolicy",
    "StarScriptedPolicy",
    "TERMINATION_ABORT",
    "TERMINATION_BUDGET",
    "TERMINATION_CRASH",
    "TERMINATION_RETRIEVED",
    "TrPlusSPolicy",
    "WIRE_VERSION",
    "WireParseError",
    "build_request",
    "classify_action",
    "decode_request",
    "decode_response",
    "default_registry",
    "encode_request",
    "outcome_json",
    "parse_instruction",
    "run_episode",
]
