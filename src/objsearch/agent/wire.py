"""Wire protocol for external policies.

One request per decision step carries the instruction, remaining budget, tool
schemas, and the full trace so far; the response is a single tool call.
Requests serialize canonically (sorted keys, compact separators) so identical
inputs are byte-identical on the wire.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core import Action, WorkingMemory, canonical_dumps, canonical_loads
from .registry import outcome_json

# v2: tool parameters carry bounds (ParamSpec.minimum/maximum), which reject
# requests v1 accepted, and temporal_query takes per. v3: hits carry no
# keyframe flag.
WIRE_VERSION = 3


class WireParseError(ValueError):
    """A policy response could not be parsed into a tool call."""


def build_request(
    instruction: str,
    remaining_budget: int,
    tool_schemas: Mapping[str, Any],
    h: WorkingMemory,
) -> dict:
    return {
        "version": WIRE_VERSION,
        "instruction": instruction,
        "remaining_budget": remaining_budget,
        "tool_schemas": dict(tool_schemas),
        "trace": [{"action": a.to_dict(), "outcome": o.to_dict()} for a, o in h.steps],
    }


def encode_request(
    instruction: str,
    remaining_budget: int,
    tool_schemas: Mapping[str, Any],
    h: WorkingMemory,
) -> str:
    """canonical_dumps(build_request(...)), byte for byte. Each trace
    outcome is written by outcome_json."""
    trace = ",".join(
        '{"action":%s,"outcome":%s}' % (canonical_dumps(a.to_dict()), outcome_json(o)) for a, o in h.steps
    )
    return '{"instruction":%s,"remaining_budget":%s,"tool_schemas":%s,"trace":[%s],"version":%s}' % (
        canonical_dumps(instruction), canonical_dumps(remaining_budget), canonical_dumps(dict(tool_schemas)),
        trace, canonical_dumps(WIRE_VERSION))


def decode_request(text: str) -> tuple[str, int, dict, WorkingMemory]:
    """The inverse of encode_request: (instruction, remaining budget, tool
    schemas, working memory), built by the from_dict constructors, so a
    policy can decide from exactly what a request carries."""
    body = canonical_loads(text)
    if body["version"] != WIRE_VERSION:
        raise WireParseError(f"request version {body['version']!r}, expected {WIRE_VERSION}")
    h = WorkingMemory.from_dict({"instruction": {"text": body["instruction"]}, "steps": body["trace"],
                                 "remaining_budget": body["remaining_budget"]})
    return body["instruction"], body["remaining_budget"], body["tool_schemas"], h


def decode_response(text: str) -> tuple[Action, str]:
    """Parse a response body into (action, rationale)."""
    try:
        body = canonical_loads(text)
    except Exception as exc:
        raise WireParseError(f"response is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise WireParseError(f"response must be a JSON object, got {type(body).__name__}")
    tool = body.get("tool")
    if not isinstance(tool, str) or not tool:
        raise WireParseError("response is missing a string 'tool' field")
    args = body.get("args", {})
    if not isinstance(args, dict):
        raise WireParseError("'args' must be an object")
    rationale = body.get("rationale", "")
    if not isinstance(rationale, str):
        raise WireParseError("'rationale' must be a string when present")
    return Action(tool=tool, args=args), rationale


def load_conformance_corpus() -> dict:
    """The request/response corpus shipped with the package: ten valid
    exchanges plus malformed-reply cases with their expected diagnostics."""
    from importlib import resources

    text = resources.files("objsearch.data").joinpath("wire_conformance.json").read_text()
    return canonical_loads(text)


__all__ = [
    "WIRE_VERSION",
    "WireParseError",
    "build_request",
    "decode_request",
    "decode_response",
    "encode_request",
    "load_conformance_corpus",
]
