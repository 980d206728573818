"""Daily patrol routine producing the observation stream.

The robot walks a fixed room-by-room landmark cycle every day. Each tick
yields the robot pose and the ground-truth visible entity list at that pose;
the stream is what memory construction consumes. Ticks that see the same
view share one observation object, so consumers may key per-view work on
object identity.
"""

from __future__ import annotations

from .. import artifacts
from ..core import Pose, SymbolicObservation, Timestep, VisibleEntity, render_caption
from .world import Schedule, WorldState

MIN_PATROL_DAYS = 3
MAX_PATROL_DAYS = 6
STREAM_FORMAT = {"format": "patrol-stream", "version": 1}


def patrol_route(world: WorldState) -> list[str]:
    """Landmark visiting order for one day: rooms in declaration order, then
    landmarks in declaration order within each room."""
    ordered: list[str] = []
    for room_id in world.rooms:
        ordered.extend(
            lm.landmark_id for lm in world.landmarks.values() if lm.room_id == room_id
        )
    return ordered


def patrol(
    world: WorldState,
    schedule: Schedule,
    days: int,
) -> list[tuple[Timestep, Pose, SymbolicObservation]]:
    """Run the patrol and return the observation stream.

    The stream has exactly days * ticks_per_day elements and every landmark is
    visited at least once per day (ticks_per_day must be no smaller than the
    route length). The world is mutated: its clock ends at task time T.

    Ticks that see the same view share one (pose, observation) pair: a view
    is computed once per (landmark, number of applied moves), since patrol
    opens nothing and only scheduled moves change what a landmark shows.
    """
    if not (MIN_PATROL_DAYS <= days <= MAX_PATROL_DAYS):
        raise ValueError(f"days must lie in [{MIN_PATROL_DAYS}, {MAX_PATROL_DAYS}], got {days}")
    tpd = world.ticks_per_day
    route = patrol_route(world)
    if tpd < len(route):
        raise ValueError(f"ticks_per_day={tpd} cannot cover the {len(route)}-landmark route")
    stream: list[tuple[Timestep, Pose, SymbolicObservation]] = []
    views: dict[tuple[str, int], tuple[Pose, SymbolicObservation]] = {}
    for day in range(days):
        for tick in range(tpd):
            world.sync(schedule)
            landmark_id = route[tick * len(route) // tpd]
            world.robot_focus = landmark_id
            key = (landmark_id, len(world.applied_moves))
            view = views.get(key)
            if view is None:
                world.robot_pose = world.approach_pose(landmark_id)
                entities = tuple(world.visible_entities())
                obs = SymbolicObservation(
                    visible_entities=entities,
                    caption=render_caption(entities, mode="oracle"),
                )
                view = views[key] = (world.robot_pose, obs)
            world.robot_pose, obs = view
            stream.append((Timestep.at(world.clock, tpd), world.robot_pose, obs))
            world.clock += 1
    world.sync(schedule)
    return stream


def room_segment(world: WorldState, room_id: str) -> tuple[int, int]:
    """Tick range [start, end] within a day during which the patrol is in the
    given room."""
    tpd = world.ticks_per_day
    route = patrol_route(world)
    n = len(route)
    ticks = []
    for i, landmark_id in enumerate(route):
        if world.landmarks[landmark_id].room_id != room_id:
            continue
        start = -(-i * tpd // n)  # ceil
        end = -(-(i + 1) * tpd // n) - 1
        if end >= start:
            ticks.append((start, end))
    if not ticks:
        raise ValueError(f"room {room_id} has no landmarks on the route")
    return min(t[0] for t in ticks), max(t[1] for t in ticks)


def fast_forward(world: WorldState, schedule: Schedule, days: int) -> None:
    """Advance a fresh world to task time T without producing observations.

    Ends in the same state as patrol() for the same arguments (same clock,
    same applied moves, same final pose).
    """
    route = patrol_route(world)
    world.clock = days * world.ticks_per_day
    world.sync(schedule)
    world.robot_pose = world.approach_pose(route[-1])
    world.robot_focus = route[-1]


def write_stream(
    path: str,
    stream: list[tuple[Timestep, Pose, SymbolicObservation]],
    meta: dict | None = None,
) -> None:
    """Write an observation stream file, one tick per record; meta fields
    join the header without displacing the format keys.

    Captions are not stored; they are a function of the entity lists and the
    caption mode chosen at memory-build time.
    """
    records = (
        {"t": t.to_dict(), "pose": pose.to_dict(), "entities": [e.to_dict() for e in obs.visible_entities]}
        for t, pose, obs in stream
    )
    artifacts.write(path, {**(meta or {}), **STREAM_FORMAT}, records)


def _tick_from_dict(d: dict) -> tuple[Timestep, Pose, tuple[VisibleEntity, ...]]:
    entities = tuple(VisibleEntity.from_dict(e) for e in d["entities"])
    return Timestep.from_dict(d["t"]), Pose.from_dict(d["pose"]), entities


def read_stream(path: str) -> tuple[dict, list[tuple[Timestep, Pose, SymbolicObservation]]]:
    """Read a stream file back, verifying its checksum and format. Observations
    carry oracle captions so the stream is directly usable. Consecutive ticks
    with equal entity lists share one observation object, as patrol's repeated
    views do, so a memory built from the file shares their raws."""
    header, ticks = artifacts.read(path, _tick_from_dict, expect=STREAM_FORMAT)
    stream: list[tuple[Timestep, Pose, SymbolicObservation]] = []
    obs = None
    for t, pose, entities in ticks:
        if obs is None or obs.visible_entities != entities:
            obs = SymbolicObservation(visible_entities=entities, caption=render_caption(entities, mode="oracle"))
        stream.append((t, pose, obs))
    return header, stream


__all__ = [
    "MAX_PATROL_DAYS",
    "MIN_PATROL_DAYS",
    "fast_forward",
    "patrol",
    "patrol_route",
    "read_stream",
    "room_segment",
    "write_stream",
]
