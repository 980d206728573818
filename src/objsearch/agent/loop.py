"""Budget-aware decision loop over the unified action space.

Each step the policy sees only the instruction text, the working memory, the
remaining budget, and the registry schema. Invalid actions are fed back as
outcomes and still consume budget. The loop stops on retrieval of the target,
budget exhaustion, a policy abort, or a crash: an exception raised by the
policy, the executor or the step callback ends the episode like the others,
as a result holding the steps that ran and the error.
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
TERMINATION_CRASH = "crash"


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
    error: Optional[str] = None  # "<Type>: <message>" of a crash


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

    An exception raised by the policy, the executor or step_callback ends
    the episode as crashed: the result holds the trace and action counts of
    the steps that completed (a step whose execution or callback raised is
    not among them), success False, and error "<Type>: <message>".
    A budget below 1 still raises: no episode can start on it.
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
    error = None
    try:
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
            if step_callback is not None:
                # Before the step is committed, so a step whose callback raised
                # is not counted. The rationale is for logging; nothing reads it.
                step_callback(len(h.steps) + 1, action, outcome, decision.rationale)
            counts[classify_action(action, registry)] += 1
            h = h.append(action, outcome)
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
    except Exception as exc:  # noqa: BLE001 - a crash ends the episode, as a result
        termination, error = TERMINATION_CRASH, f"{type(exc).__name__}: {exc}"
    return EpisodeResult(
        success=success,
        steps_used=len(h.steps),
        trace=h,
        action_counts=counts,
        termination=termination,
        error=error,
    )


__all__ = [
    "DEFAULT_BUDGET",
    "EpisodeResult",
    "Policy",
    "PolicyDecision",
    "TERMINATION_ABORT",
    "TERMINATION_BUDGET",
    "TERMINATION_CRASH",
    "TERMINATION_RETRIEVED",
    "classify_action",
    "run_episode",
]
