"""Chat-completion policy client.

Wraps the wire protocol request into a chat-style payload for a configurable
endpoint, parses a single tool call from the reply, reprompts once on a parse
error, and aborts the episode on repeated failure or transport errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core import WorkingMemory
from ..embed import TransportError, _default_post, call_endpoint
from .loop import PolicyDecision
from .wire import WireParseError, decode_response, encode_request

SYSTEM_PROMPT = (
    "You control a household robot with a fixed action budget. Each user "
    "message is a JSON request with the instruction, remaining budget, tool "
    "schemas, and the trace of previous actions and outcomes. Reply with a "
    "single JSON object {\"tool\": ..., \"args\": {...}, \"rationale\": ...} "
    "choosing exactly one tool call."
)


@dataclass(frozen=True)
class LLMPolicyConfig:
    url: str
    model: str = "default"
    timeout: float = 30.0
    transport_retries: int = 1


class ChatCompletionPolicy:
    """Policy backed by a remote chat-completion endpoint."""

    def __init__(
        self,
        config: LLMPolicyConfig,
        post: Callable[[str, dict, float], dict] = _default_post,
    ):
        self.config = config
        self._post = post

    def _complete(self, messages: list[dict]) -> str:
        return call_endpoint(
            self._post, self.config.url, {"model": self.config.model, "messages": messages},
            self.config.timeout, self.config.transport_retries,
            lambda body: str(body["choices"][0]["message"]["content"]),
        )

    def __call__(
        self, instruction: str, h: WorkingMemory, remaining: int, schema: dict
    ) -> Optional[PolicyDecision]:
        request_text = encode_request(instruction, remaining, schema, h)
        messages = [
            {"role": "system", "content": SYSTEM_PROMPT},
            {"role": "user", "content": request_text},
        ]
        try:
            reply = self._complete(messages)
        except TransportError:
            return None
        try:
            action, rationale = decode_response(reply)
            return PolicyDecision(action=action, rationale=rationale)
        except WireParseError as exc:
            messages.append({"role": "assistant", "content": reply})
            messages.append(
                {
                    "role": "user",
                    "content": (
                        f"Parse error: {exc}. Reply again with one JSON object "
                        '{"tool": ..., "args": {...}}.'
                    ),
                }
            )
        try:
            reply = self._complete(messages)
            action, rationale = decode_response(reply)
            return PolicyDecision(action=action, rationale=rationale)
        except (TransportError, WireParseError):
            return None


__all__ = ["ChatCompletionPolicy", "LLMPolicyConfig", "SYSTEM_PROMPT"]
