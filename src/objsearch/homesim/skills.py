"""Robot skills: navigate, detect, open, pick.

Skill failures are outcomes, not exceptions; policies must be able to see
them. Every executed skill advances the world clock by one tick, so the
schedule keeps acting during an episode. Detection is noiseless ground truth
scoped by the visibility rule in WorldState.visible_entities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

from ..core import Pose, VisibleEntity
from .world import LOC_INVENTORY, Location, Schedule, WorldState


@dataclass(frozen=True)
class SkillResult:
    skill: str
    success: bool
    reason: str = ""
    detail: dict | None = None

    def to_payload(self) -> dict:
        payload = {"skill": self.skill, "success": self.success}
        if self.reason:
            payload["reason"] = self.reason
        if self.detail:
            payload.update(self.detail)
        return payload


@dataclass(frozen=True)
class Detection:
    entities: tuple[VisibleEntity, ...]
    from_pose: Pose

    def to_payload(self) -> dict:
        return {
            "entities": [e.to_dict() for e in self.entities],
            "room": self.from_pose.room_id,
            "focus_x": self.from_pose.position[0],
            "focus_y": self.from_pose.position[1],
        }


def _tick(skill: Callable[..., Any]) -> Callable[..., Any]:
    """Run a skill as one tick of the world: sync it to the schedule, act,
    then advance the clock one tick."""

    @functools.wraps(skill)
    def run(world: WorldState, schedule: Schedule, *args: Any) -> Any:
        world.sync(schedule)
        result = skill(world, schedule, *args)
        world.advance(schedule)
        return result

    return run


@_tick
def navigate(world: WorldState, schedule: Schedule, landmark_id: str) -> SkillResult:
    """Teleport-with-cost to a landmark's approach pose."""
    if landmark_id not in world.landmarks:
        return SkillResult("navigate", False, reason="unknown landmark")
    world.robot_pose = world.approach_pose(landmark_id)
    world.robot_focus = landmark_id
    return SkillResult(
        "navigate", True,
        detail={"landmark": landmark_id, "room": world.robot_pose.room_id},
    )


@_tick
def detect(world: WorldState, schedule: Schedule) -> Detection:
    """Ground-truth detection from the current pose."""
    return Detection(entities=tuple(world.visible_entities()), from_pose=world.robot_pose)


@_tick
def open_receptacle(world: WorldState, schedule: Schedule, receptacle_id: str) -> SkillResult:
    """Open a receptacle; the robot must be focused at it."""
    lm = world.landmarks.get(receptacle_id)
    if lm is None or not lm.is_receptacle:
        return SkillResult("open", False, reason="not a receptacle")
    if world.robot_focus != receptacle_id:
        return SkillResult("open", False, reason="out of reach")
    world.receptacle_open[receptacle_id] = True
    return SkillResult("open", True, detail={"receptacle": receptacle_id})


@_tick
def pick(world: WorldState, schedule: Schedule, entity_id: str) -> SkillResult:
    """Grasp a visible entity and move it to the robot inventory."""
    obj = world.objects.get(entity_id)
    if obj is None:
        return SkillResult("pick", False, reason="unknown entity")
    if obj.location.kind == LOC_INVENTORY:
        return SkillResult("pick", False, reason="already held")
    visible_ids = {e.entity_id for e in world.visible_entities()}
    if entity_id not in visible_ids:
        return SkillResult("pick", False, reason="not visible")
    obj.location = Location(kind=LOC_INVENTORY)
    world.inventory.append(entity_id)
    return SkillResult("pick", True, detail={"entity": entity_id})


__all__ = ["Detection", "SkillResult", "detect", "navigate", "open_receptacle", "pick"]
