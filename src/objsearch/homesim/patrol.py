"""Daily patrol routine producing the observation stream.

The robot walks a fixed room-by-room landmark cycle every day. Each tick
yields the robot pose and the ground-truth visible entity list at that pose;
the stream is what memory construction consumes. Ticks that see the same
view share one observation object, so consumers may key per-view work on
object identity, and the stream is kept as runs of such ticks
(core.ObservationStream), so patrol, the stream file writer and reader and
memory construction work per run, not per tick.

Stream file v2 (``STREAM_FORMAT``), a checksummed artifact file: a header
with ``format: "patrol-stream"``, ``version: 2`` and the caller's meta
fields, then one record per run, ``{t0, day, length, pose, entities}``.
``write_stream`` writes it and ``read_stream`` reads it; a file of another
version is refused, to be regenerated from its world with ``objsearch
patrol``.
"""

from __future__ import annotations

from typing import Iterable

from .. import artifacts
from ..core import (
    ObservationStream,
    Pose,
    SymbolicObservation,
    Tick,
    VisibleEntity,
    json_field,
    render_caption,
)
from .world import Schedule, WorldState, _scene_template

MIN_PATROL_DAYS = 3
MAX_PATROL_DAYS = 6
STREAM_FORMAT = {"format": "patrol-stream", "version": 2}


def patrol_route(world: WorldState) -> list[str]:
    """Landmark visiting order for one day: rooms in declaration order, then
    landmarks in declaration order within each room."""
    ordered: list[str] = []
    for room_id in world.rooms:
        ordered.extend(
            lm.landmark_id for lm in world.landmarks.values() if lm.room_id == room_id
        )
    return ordered


def route_length(scene_id: int) -> int:
    """The length of patrol_route over any world of the scene; an unknown
    scene is a ValueError."""
    return len(_scene_template(scene_id)["landmarks"])


def check_patrol(days: int, ticks_per_day: int, landmarks: int) -> None:
    """Raise ValueError unless a patrol of days days can run on a route of
    that many landmarks: days lies in [MIN_PATROL_DAYS, MAX_PATROL_DAYS], and
    a day has a tick for every landmark."""
    if not (MIN_PATROL_DAYS <= days <= MAX_PATROL_DAYS):
        raise ValueError(f"days must lie in [{MIN_PATROL_DAYS}, {MAX_PATROL_DAYS}], got {days}")
    if ticks_per_day < landmarks:
        raise ValueError(f"ticks_per_day={ticks_per_day} cannot cover the {landmarks}-landmark route")


def _route_slots(ticks_per_day: int, n: int) -> list[int]:
    """Slot bounds of an n-landmark route over one day: landmark i holds the
    ticks [b[i], b[i+1]) of the day, those with tick * n // ticks_per_day == i."""
    return [-(-i * ticks_per_day // n) for i in range(n + 1)]  # ceil


def patrol(world: WorldState, schedule: Schedule, days: int) -> ObservationStream:
    """Run the patrol and return the observation stream.

    The stream has exactly days * ticks_per_day ticks and every landmark is
    visited at least once per day (check_patrol says which days and
    ticks_per_day can run). The world is mutated: its clock ends at task time T.

    The stream is made run by run, never tick by tick. A run is a stretch of
    one route slot that ends where the slot, the day or the wait for the
    next scheduled move ends; the world is synced only at a run's start,
    since nothing else changes it on the way. A view is computed once per
    (landmark, number of applied moves), since patrol opens nothing and only
    scheduled moves change what a landmark shows, and runs with one view
    share one (pose, observation) pair.
    """
    tpd = world.ticks_per_day
    route = patrol_route(world)
    check_patrol(days, tpd, len(route))
    bounds = _route_slots(tpd, len(route))
    moves = schedule.moves
    start = world.clock
    runs: list[tuple[int, int, int, Pose, SymbolicObservation]] = []
    views: dict[tuple[str, int], tuple[Pose, SymbolicObservation]] = {}
    seen: dict[tuple[str, str | None, int], tuple[tuple[VisibleEntity, ...], str]] = {}
    for day in range(days):
        for i, landmark_id in enumerate(route):
            clock, slot_end = start + day * tpd + bounds[i], start + day * tpd + bounds[i + 1]
            while clock < slot_end:
                world.clock = clock
                world.sync(schedule)
                world.robot_focus = landmark_id
                applied = len(world.applied_moves)
                view = views.get((landmark_id, applied))
                if view is None:
                    world.robot_pose = world.approach_pose(landmark_id)
                    # What is visible depends on the room, on the focused
                    # landmark only when it is an open receptacle, and on
                    # the applied moves; landmarks that share all three
                    # share the entity list and its caption.
                    open_focus = landmark_id if world.receptacle_open.get(landmark_id) else None
                    seen_key = (world.robot_pose.room_id, open_focus, applied)
                    if seen_key not in seen:
                        entities = tuple(world.visible_entities())
                        seen[seen_key] = entities, render_caption(entities, mode="oracle")
                    entities, caption = seen[seen_key]
                    obs = SymbolicObservation(visible_entities=entities, caption=caption)
                    view = views[(landmark_id, applied)] = (world.robot_pose, obs)
                world.robot_pose, obs = view
                end = min(slot_end, (clock // tpd + 1) * tpd)
                if applied < len(moves):
                    end = min(end, moves[applied].absolute_tick(tpd))
                runs.append((clock, clock // tpd, end - clock, world.robot_pose, obs))
                clock = end
    world.clock = start + days * tpd
    world.sync(schedule)
    return ObservationStream(runs)


def room_segment(world: WorldState, room_id: str) -> tuple[int, int]:
    """Tick range [start, end] within a day during which the patrol is in the
    given room."""
    route = patrol_route(world)
    bounds = _route_slots(world.ticks_per_day, len(route))
    ticks = [
        (bounds[i], bounds[i + 1] - 1)
        for i, landmark_id in enumerate(route)
        if world.landmarks[landmark_id].room_id == room_id and bounds[i + 1] > bounds[i]
    ]
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
    stream: Iterable[Tick],
    meta: dict | None = None,
) -> None:
    """Write an observation stream file v2, one record per run of the
    stream (core.ObservationStream): ``{t0, day, length, pose, entities}``.
    meta fields join the header without displacing the format keys.

    Captions are not stored; they are a function of the entity lists and the
    caption mode chosen at memory-build time.
    """
    records = (
        {"t0": t0, "day": day, "length": length, "pose": pose.to_dict(),
         "entities": [e.to_dict() for e in obs.visible_entities]}
        for t0, day, length, pose, obs in ObservationStream.of(stream).runs()
    )
    artifacts.write(path, {**(meta or {}), **STREAM_FORMAT}, records)


def _run_from_dict(d: dict) -> tuple[int, int, int, Pose, tuple[VisibleEntity, ...]]:
    """A record: one run, its t0, day and length JSON integers."""
    t0, day, length = (json_field(d, key, int) for key in ("t0", "day", "length"))
    if t0 < 0 or day < 0 or length < 1:
        raise ValueError(f"bad run: t0={t0}, day={day}, length={length}")
    entities = tuple(map(VisibleEntity.from_dict, json_field(d, "entities", item=dict)))
    return t0, day, length, Pose.from_dict(json_field(d, "pose", dict)), entities


def read_stream(path: str) -> tuple[dict, ObservationStream]:
    """Read a stream file back, verifying its checksum and format. Observations
    carry oracle captions so the stream is directly usable. Consecutive ticks
    with equal entity lists share one observation object, as patrol's repeated
    views do, so a memory built from the file shares their raws; consecutive
    equal poses share one pose object. The file's runs are the stream's runs,
    as written. A file that cannot be read, one of another version among
    them, is refused with a hint to regenerate it."""
    try:
        header, records, _ = artifacts.read(path, _run_from_dict, expect=STREAM_FORMAT, name="run")
    except artifacts.IntegrityError as exc:
        raise artifacts.IntegrityError(f"{exc}; regenerate the stream with `objsearch patrol`") from exc

    def shared():
        pose = obs = None
        for *head, p, entities in records:
            if obs is None or obs.visible_entities != entities:
                obs = SymbolicObservation(visible_entities=entities, caption=render_caption(entities, mode="oracle"))
            if p != pose:
                pose = p
            yield *head, pose, obs

    return header, ObservationStream(shared())


__all__ = [
    "MAX_PATROL_DAYS",
    "MIN_PATROL_DAYS",
    "check_patrol",
    "fast_forward",
    "patrol",
    "patrol_route",
    "read_stream",
    "room_segment",
    "route_length",
    "write_stream",
]
