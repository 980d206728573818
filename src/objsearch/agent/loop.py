"""Budget-aware decision loop over the unified action space.

Each step the policy sees only the instruction text, the working memory, the
remaining budget, and the registry schema. Invalid actions are fed back as
outcomes and still consume budget. The loop stops on retrieval of the target,
budget exhaustion, or a policy abort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core import (
    ACTION_CATEGORIES,
    Action,
    Instruction,
    Outcome,
    ToolRegistry,
    WorkingMemory,
    validate_action,
)
from .registry import ActionExecutor

DEFAULT_BUDGET = 20

TERMINATION_RETRIEVED = "retrieved"
TERMINATION_BUDGET = "budget_exhausted"
TERMINATION_ABORT = "policy_abort"


@dataclass(frozen=True)
class PolicyDecision:
    action: Action
    rationale: str = ""  # logged, never interpreted


# A policy maps (instruction text, working memory, remaining budget, registry
# schema) to a decision; returning None aborts the episode.
Policy = Callable[[str, WorkingMemory, int, dict], Optional[PolicyDecision]]


@dataclass
class EpisodeResult:
    success: bool
    steps_used: int
    trace: WorkingMemory
    action_counts: dict[str, int]
    termination: str

    def to_dict(self) -> dict:
        return {
            "success": self.success,
            "steps_used": self.steps_used,
            "action_counts": dict(self.action_counts),
            "termination": self.termination,
            "trace": self.trace.to_dict(),
        }


def classify_action(action: Action, registry: ToolRegistry) -> str:
    """Category of a trace entry. Attempts naming an unregistered tool gained
    only information (the schema error), so they count as perception."""
    spec = registry.get(action.tool)
    if spec is None:
        return "perception"
    return spec.category


def run_episode(
    instruction: Instruction | str,
    executor: ActionExecutor,
    policy: Policy,
    registry: ToolRegistry,
    budget: int = DEFAULT_BUDGET,
    target_entity: Optional[str] = None,
    step_callback: Optional[Callable[[int, Action, Outcome, str], None]] = None,
) -> EpisodeResult:
    """Run one retrieval episode.

    The policy never receives the instruction's benchmark annotations, the
    world, or the memory; those are reachable only through executed actions.
    When target_entity is given, a successful pick of it ends the episode as
    retrieved.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if isinstance(instruction, str):
        instruction = Instruction(text=instruction)
    visible = instruction.redacted()
    h = WorkingMemory.fresh(visible, budget)
    schema = registry.schema()
    counts = {c: 0 for c in ACTION_CATEGORIES}
    success = False
    termination = TERMINATION_BUDGET
    while h.remaining_budget > 0:
        decision = policy(visible.text, h, h.remaining_budget, schema)
        if decision is None:
            termination = TERMINATION_ABORT
            break
        action = decision.action
        errors = validate_action(action, registry)
        if errors:
            outcome = Outcome(
                kind="skill_result",
                payload={"success": False, "reason": "schema_error", "errors": errors},
            )
        else:
            outcome = executor.execute(action)
        counts[classify_action(action, registry)] += 1
        h = h.append(action, outcome)
        if step_callback is not None:
            # The rationale is surfaced for logging only; nothing reads it.
            step_callback(len(h.steps), action, outcome, decision.rationale)
        if (
            not errors
            and action.tool == "pick"
            and outcome.payload.get("success")
            and target_entity is not None
            and outcome.payload.get("entity") == target_entity
        ):
            success = True
            termination = TERMINATION_RETRIEVED
            break
    return EpisodeResult(
        success=success,
        steps_used=len(h.steps),
        trace=h,
        action_counts=counts,
        termination=termination,
    )


__all__ = [
    "DEFAULT_BUDGET",
    "EpisodeResult",
    "Policy",
    "PolicyDecision",
    "TERMINATION_ABORT",
    "TERMINATION_BUDGET",
    "TERMINATION_RETRIEVED",
    "classify_action",
    "run_episode",
]
