"""Desk-scale dynamic household world: rooms, landmarks, receptacles, objects.

Object motion comes exclusively from a Schedule of timed moves, so replaying
the same seeds reproduces identical world trajectories. Each executed robot
skill advances the clock by one tick, which means the world can keep changing
mid-episode if the schedule says so.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Optional

from ..core import (
    CONTAINMENT_INSIDE_OPEN,
    CONTAINMENT_OPEN_AIR,
    Pose,
    VisibleEntity,
    json_field,
    stable_seed,
)

DEFAULT_TICKS_PER_DAY = 200
SCENE_IDS = (1, 2, 3)

LOC_LANDMARK = "landmark"
LOC_INSIDE = "inside"
LOC_INVENTORY = "inventory"


@dataclass(frozen=True)
class Room:
    room_id: str
    bounds: tuple[float, float, float, float]  # x0, y0, x1, y1

    def contains(self, p: tuple[float, float]) -> bool:
        x0, y0, x1, y1 = self.bounds
        return x0 <= p[0] <= x1 and y0 <= p[1] <= y1

    @property
    def center(self) -> tuple[float, float]:
        x0, y0, x1, y1 = self.bounds
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)


@dataclass(frozen=True)
class Landmark:
    landmark_id: str
    name: str  # display name; identical for visually identical receptacles
    room_id: str
    position: tuple[float, float]
    is_receptacle: bool = False


@dataclass(frozen=True)
class Location:
    kind: str  # landmark | inside | inventory
    ref: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in (LOC_LANDMARK, LOC_INSIDE, LOC_INVENTORY):
            raise ValueError(f"unknown location kind {self.kind!r}")
        if self.kind != LOC_INVENTORY and not self.ref:
            raise ValueError("landmark/inside locations need a reference id")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "ref": self.ref}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Location":
        return cls(kind=json_field(d, "kind", str), ref=json_field(d, "ref", str, None))


@dataclass
class WorldObject:
    entity_id: str
    class_label: str
    attributes: tuple[str, ...]
    location: Location

    def to_dict(self) -> dict:
        return {
            "entity_id": self.entity_id,
            "class_label": self.class_label,
            "attributes": list(self.attributes),
            "location": self.location.to_dict(),
        }


@dataclass(frozen=True)
class Move:
    """One scheduled relocation: applied when world time reaches its tick."""

    day: int
    tick_of_day: int
    entity_id: str
    location: Location

    def absolute_tick(self, ticks_per_day: int) -> int:
        return self.day * ticks_per_day + self.tick_of_day

    def to_dict(self) -> dict:
        return {
            "day": self.day,
            "tick_of_day": self.tick_of_day,
            "entity_id": self.entity_id,
            "location": self.location.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Move":
        return cls(
            day=json_field(d, "day", int),
            tick_of_day=json_field(d, "tick_of_day", int),
            entity_id=json_field(d, "entity_id", str),
            location=Location.from_dict(json_field(d, "location", dict)),
        )


@dataclass
class Schedule:
    """The only source of exogenous object motion."""

    seed: int
    moves: tuple[Move, ...] = ()

    def __post_init__(self) -> None:
        self.moves = tuple(
            sorted(self.moves, key=lambda m: (m.day, m.tick_of_day, m.entity_id))
        )

    def check(self, ticks_per_day: int) -> None:
        """Raise ValueError for a move before day 0 or with a tick_of_day
        outside [0, ticks_per_day). Moves apply in (day, tick_of_day) order
        and sync stops at the first one not yet due, so such a move would
        hold back later moves that are."""
        for m in self.moves:
            if m.day < 0 or not 0 <= m.tick_of_day < ticks_per_day:
                raise ValueError(
                    f"move of {m.entity_id} at day {m.day}, tick_of_day {m.tick_of_day}: "
                    f"needs day >= 0 and tick_of_day in [0, {ticks_per_day})"
                )

    def to_dict(self) -> dict:
        return {"seed": self.seed, "moves": [m.to_dict() for m in self.moves]}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Schedule":
        return cls(seed=json_field(d, "seed", int), moves=tuple(map(Move.from_dict, json_field(d, "moves", item=dict))))


class WorldState:
    """Mutable ground-truth environment for one episode."""

    def __init__(
        self,
        scene_id: int,
        layout_seed: int,
        rooms: Iterable[Room],
        landmarks: Iterable[Landmark],
        objects: Iterable[WorldObject],
        ticks_per_day: int = DEFAULT_TICKS_PER_DAY,
    ):
        self.scene_id = scene_id
        self.layout_seed = layout_seed
        self.ticks_per_day = ticks_per_day
        self.rooms: dict[str, Room] = {r.room_id: r for r in rooms}
        self.landmarks: dict[str, Landmark] = {lm.landmark_id: lm for lm in landmarks}
        self.objects: dict[str, WorldObject] = {o.entity_id: o for o in objects}
        self.receptacle_open: dict[str, bool] = {
            lm.landmark_id: False for lm in self.landmarks.values() if lm.is_receptacle
        }
        self.clock = 0
        self.inventory: list[str] = []
        self.applied_moves: list[Move] = []
        first = next(iter(self.landmarks.values()))
        self.robot_pose = self.approach_pose(first.landmark_id)
        self.robot_focus: Optional[str] = first.landmark_id
        self._validate()

    def _validate(self) -> None:
        for lm in self.landmarks.values():
            if lm.room_id not in self.rooms:
                raise ValueError(f"landmark {lm.landmark_id} references unknown room {lm.room_id}")
            if not self.rooms[lm.room_id].contains(lm.position):
                raise ValueError(f"landmark {lm.landmark_id} lies outside its room")
        for obj in self.objects.values():
            self._check_location(obj.entity_id, obj.location)

    def _check_location(self, entity_id: str, loc: Location) -> None:
        if loc.kind == LOC_LANDMARK and loc.ref not in self.landmarks:
            raise ValueError(f"object {entity_id} placed at unknown landmark {loc.ref}")
        if loc.kind == LOC_INSIDE:
            lm = self.landmarks.get(loc.ref or "")
            if lm is None or not lm.is_receptacle:
                raise ValueError(f"object {entity_id} placed inside non-receptacle {loc.ref}")

    # -- geometry ------------------------------------------------------------

    def approach_pose(self, landmark_id: str) -> Pose:
        lm = self.landmarks[landmark_id]
        room = self.rooms[lm.room_id]
        cx, cy = room.center
        # Stand 0.4 m from the landmark toward the room center; degenerate
        # center-on-landmark cases fall back to the landmark itself.
        dx, dy = cx - lm.position[0], cy - lm.position[1]
        dist = math.hypot(dx, dy)
        if dist < 1e-9:
            px, py = lm.position
            yaw = 0.0
        else:
            px = lm.position[0] + 0.4 * dx / dist
            py = lm.position[1] + 0.4 * dy / dist
            yaw = math.atan2(lm.position[1] - py, lm.position[0] - px)
        return Pose(position=(px, py), yaw=yaw, room_id=lm.room_id)

    # -- time ----------------------------------------------------------------

    def sync(self, schedule: Schedule) -> None:
        """Apply every scheduled move that is due at or before the clock."""
        applied = len(self.applied_moves)
        for move in schedule.moves[applied:]:
            if move.absolute_tick(self.ticks_per_day) > self.clock:
                break
            obj = self.objects.get(move.entity_id)
            if obj is not None and obj.location.kind != LOC_INVENTORY:
                self._check_location(obj.entity_id, move.location)
                obj.location = move.location
            self.applied_moves.append(move)

    def advance(self, schedule: Schedule) -> None:
        """One tick on: the clock moves and due moves apply."""
        self.clock += 1
        self.sync(schedule)

    def at(self, schedule: Schedule, tick: int) -> "WorldState":
        """A copy of this world at a tick no earlier than its clock, with the
        moves due by then applied. It shares only the frozen rooms and
        landmarks, so what is done in it (an episode's opens and picks) stays
        in it."""
        if tick < self.clock:
            raise ValueError(f"tick {tick} is before the world clock {self.clock}")
        twin = copy.copy(self)
        twin.objects = {
            eid: WorldObject(o.entity_id, o.class_label, o.attributes, o.location)
            for eid, o in self.objects.items()
        }
        twin.receptacle_open = dict(self.receptacle_open)
        twin.inventory = list(self.inventory)
        twin.applied_moves = list(self.applied_moves)
        twin.clock = tick
        twin.sync(schedule)
        return twin

    @property
    def day(self) -> int:
        return self.clock // self.ticks_per_day

    # -- visibility ----------------------------------------------------------

    def visible_entities(self) -> list[VisibleEntity]:
        """Ground-truth entities visible from the current pose: open-air
        objects anywhere in the robot's room, plus the contents of any open
        receptacle at the focused landmark."""
        room_id = self.robot_pose.room_id
        out: list[VisibleEntity] = []
        for obj in self.objects.values():
            loc = obj.location
            if loc.kind == LOC_LANDMARK:
                lm = self.landmarks[loc.ref]
                if lm.room_id == room_id:
                    out.append(self._as_visible(obj, lm, CONTAINMENT_OPEN_AIR))
            elif loc.kind == LOC_INSIDE:
                recep = self.landmarks[loc.ref]
                if (
                    recep.landmark_id == self.robot_focus
                    and self.receptacle_open.get(recep.landmark_id, False)
                ):
                    out.append(self._as_visible(obj, recep, CONTAINMENT_INSIDE_OPEN))
        out.sort(key=lambda e: e.entity_id)
        return out

    @staticmethod
    def _as_visible(obj: WorldObject, lm: Landmark, containment: str) -> VisibleEntity:
        return VisibleEntity(
            entity_id=obj.entity_id,
            class_label=obj.class_label,
            attributes=obj.attributes,
            landmark_id=lm.landmark_id,
            containment=containment,
            landmark_name=lm.name,
        )

    # -- introspection ---------------------------------------------------------

    def landmark_table(self) -> list[dict]:
        return [
            {
                "id": lm.landmark_id,
                "name": lm.name,
                "room": lm.room_id,
                "receptacle": lm.is_receptacle,
            }
            for lm in self.landmarks.values()
        ]

    def to_dict(self) -> dict:
        return {
            "scene_id": self.scene_id,
            "layout_seed": self.layout_seed,
            "ticks_per_day": self.ticks_per_day,
            "rooms": [
                {"room_id": r.room_id, "bounds": list(r.bounds)} for r in self.rooms.values()
            ],
            "landmarks": [
                {
                    "landmark_id": lm.landmark_id,
                    "name": lm.name,
                    "room_id": lm.room_id,
                    "position": list(lm.position),
                    "is_receptacle": lm.is_receptacle,
                }
                for lm in self.landmarks.values()
            ],
            "objects": [o.to_dict() for o in self.objects.values()],
            "clock": self.clock,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "WorldState":
        world = cls(
            scene_id=json_field(d, "scene_id", int),
            layout_seed=json_field(d, "layout_seed", int),
            rooms=[
                Room(room_id=json_field(r, "room_id", str), bounds=tuple(json_field(r, "bounds", item=float, size=4)))
                for r in json_field(d, "rooms", item=dict)
            ],
            landmarks=[
                Landmark(
                    landmark_id=json_field(lm, "landmark_id", str),
                    name=json_field(lm, "name", str),
                    room_id=json_field(lm, "room_id", str),
                    position=tuple(json_field(lm, "position", item=float, size=2)),
                    is_receptacle=json_field(lm, "is_receptacle", bool),
                )
                for lm in json_field(d, "landmarks", item=dict)
            ],
            objects=[
                WorldObject(
                    entity_id=json_field(o, "entity_id", str),
                    class_label=json_field(o, "class_label", str),
                    attributes=tuple(json_field(o, "attributes", item=str)),
                    location=Location.from_dict(json_field(o, "location", dict)),
                )
                for o in json_field(d, "objects", item=dict)
            ],
            ticks_per_day=json_field(d, "ticks_per_day", int),
        )
        world.clock = json_field(d, "clock", int) if "clock" in d else 0
        return world


# ---------------------------------------------------------------------------
# Scene templates
#
# The structural skeleton of each scene is fixed (family feasibility depends
# on it), so a scene's world is the same for every layout seed; the seed is
# recorded in the world and seeds its ambient schedule (generate_world).


def _scene_template(scene_id: int) -> dict:
    if scene_id == 1:
        return {
            "rooms": [
                ("kitchen", (0.0, 0.0, 6.0, 5.0)),
                ("living_room", (6.0, 0.0, 13.0, 5.0)),
                ("study", (0.0, 5.0, 6.0, 10.0)),
                ("bedroom", (6.0, 5.0, 13.0, 10.0)),
            ],
            "landmarks": [
                ("sink", "sink", "kitchen", (1.0, 1.0), False),
                ("kitchen_counter", "kitchen counter", "kitchen", (3.0, 0.8), False),
                ("fridge", "fridge", "kitchen", (5.2, 1.0), True),
                ("kitchen_cabinet_left", "white cabinet", "kitchen", (1.2, 4.2), True),
                ("kitchen_cabinet_right", "white cabinet", "kitchen", (2.4, 4.2), True),
                ("coffee_table", "coffee table", "living_room", (8.0, 2.5), False),
                ("sofa", "sofa", "living_room", (10.0, 1.0), False),
                ("tv_stand", "tv stand", "living_room", (12.0, 2.5), False),
                ("study_desk", "study desk", "study", (2.0, 8.0), False),
                ("bookshelf", "bookshelf", "study", (5.0, 9.0), False),
                ("study_drawer_left", "wooden drawer", "study", (0.8, 6.0), True),
                ("study_drawer_right", "wooden drawer", "study", (1.8, 6.0), True),
                ("bed", "bed", "bedroom", (9.0, 8.0), False),
                ("nightstand", "nightstand", "bedroom", (7.0, 9.0), False),
                ("wardrobe", "wardrobe", "bedroom", (12.0, 8.5), True),
            ],
            "objects": [
                ("book_1", "book", (), ("landmark", "bookshelf")),
                ("folder_1", "folder", ("green",), ("landmark", "study_desk")),
                ("folder_2", "folder", ("black",), ("landmark", "coffee_table")),
                ("mug_1", "mug", ("red",), ("landmark", "sink")),
                ("mug_2", "mug", ("blue",), ("landmark", "kitchen_counter")),
                ("toy_1", "toy", ("yellow",), ("landmark", "bed")),
                ("plate_1", "plate", ("white",), ("landmark", "kitchen_counter")),
                ("keys_1", "keys", (), ("landmark", "tv_stand")),
                ("lamp_1", "lamp", (), ("landmark", "study_desk")),
                ("bottle_1", "bottle", ("green",), ("landmark", "kitchen_counter")),
                ("notebook_1", "notebook", ("blue",), ("landmark", "study_desk")),
                ("cushion_1", "cushion", ("grey",), ("landmark", "sofa")),
                ("blanket_1", "blanket", ("white",), ("landmark", "bed")),
                ("clock_1", "clock", (), ("landmark", "nightstand")),
                ("milk_1", "milk", (), ("inside", "fridge")),
                ("scissors_1", "scissors", (), ("inside", "study_drawer_left")),
            ],
            "drifters": ["cushion_1", "keys_1"],
            "casting": {
                "unique_class": "book_1",
                "attribute_pair": ("folder_1", "folder_2"),
                "spatial_pair": ("mug_1", "mug_2"),
                "twin_pairs": [
                    ("kitchen_cabinet_left", "kitchen_cabinet_right"),
                    ("study_drawer_left", "study_drawer_right"),
                ],
                "hidden": {"milk_1": "kitchen", "scissors_1": "study"},
                "free_landmarks": ["nightstand", "tv_stand", "coffee_table", "sofa", "bed"],
            },
        }
    if scene_id == 2:
        return {
            "rooms": [
                ("kitchen", (0.0, 0.0, 5.0, 6.0)),
                ("living_room", (5.0, 0.0, 11.0, 6.0)),
                ("bedroom", (0.0, 6.0, 5.0, 12.0)),
                ("bathroom", (5.0, 6.0, 8.0, 12.0)),
                ("study", (8.0, 6.0, 11.0, 12.0)),
            ],
            "landmarks": [
                ("sink", "sink", "kitchen", (0.8, 1.0), False),
                ("stove", "stove", "kitchen", (2.5, 0.8), False),
                ("fridge", "fridge", "kitchen", (4.2, 1.0), True),
                ("pantry_left", "pantry cupboard", "kitchen", (1.0, 5.2), True),
                ("pantry_right", "pantry cupboard", "kitchen", (2.2, 5.2), True),
                ("coffee_table", "coffee table", "living_room", (7.5, 3.0), False),
                ("armchair", "armchair", "living_room", (9.5, 1.5), False),
                ("tv_stand", "tv stand", "living_room", (10.2, 4.5), False),
                ("bed", "bed", "bedroom", (2.5, 9.0), False),
                ("nightstand", "nightstand", "bedroom", (4.2, 8.0), False),
                ("dresser_left", "oak dresser", "bedroom", (0.8, 11.0), True),
                ("dresser_right", "oak dresser", "bedroom", (2.0, 11.0), True),
                ("bathroom_shelf", "bathroom shelf", "bathroom", (6.5, 11.0), False),
                ("laundry_basket", "laundry basket", "bathroom", (5.8, 7.0), True),
                ("study_desk", "study desk", "study", (9.5, 8.0), False),
                ("bookshelf", "bookshelf", "study", (10.2, 11.0), False),
            ],
            "objects": [
                ("guitar_1", "guitar", (), ("landmark", "armchair")),
                ("mug_1", "mug", ("white",), ("landmark", "stove")),
                ("mug_2", "mug", ("black",), ("landmark", "study_desk")),
                ("book_1", "book", ("red",), ("landmark", "bookshelf")),
                ("book_2", "book", ("blue",), ("landmark", "bed")),
                ("toy_1", "toy", ("green",), ("landmark", "coffee_table")),
                ("plate_1", "plate", ("white",), ("landmark", "stove")),
                ("bottle_1", "bottle", ("blue",), ("landmark", "sink")),
                ("notebook_1", "notebook", ("black",), ("landmark", "study_desk")),
                ("cushion_1", "cushion", ("yellow",), ("landmark", "armchair")),
                ("keys_1", "keys", (), ("landmark", "coffee_table")),
                ("lamp_1", "lamp", (), ("landmark", "nightstand")),
                ("pillow_1", "pillow", ("white",), ("landmark", "bed")),
                ("soap_1", "soap", (), ("landmark", "bathroom_shelf")),
                ("toothbrush_1", "toothbrush", ("blue",), ("landmark", "bathroom_shelf")),
                ("towel_1", "towel", (), ("inside", "laundry_basket")),
                ("charger_1", "charger", (), ("inside", "dresser_left")),
            ],
            "drifters": ["keys_1", "cushion_1"],
            "casting": {
                "unique_class": "guitar_1",
                "attribute_pair": ("mug_1", "mug_2"),
                "spatial_pair": ("book_1", "book_2"),
                "twin_pairs": [
                    ("pantry_left", "pantry_right"),
                    ("dresser_left", "dresser_right"),
                ],
                "hidden": {"towel_1": "bathroom", "charger_1": "bedroom"},
                "free_landmarks": ["tv_stand", "armchair", "bathroom_shelf", "bed", "coffee_table"],
            },
        }
    if scene_id == 3:
        return {
            "rooms": [
                ("kitchen", (0.0, 0.0, 7.0, 4.0)),
                ("living_room", (7.0, 0.0, 14.0, 4.0)),
                ("study", (0.0, 4.0, 7.0, 8.0)),
                ("bedroom", (7.0, 4.0, 14.0, 8.0)),
            ],
            "landmarks": [
                ("sink", "sink", "kitchen", (1.0, 0.8), False),
                ("kitchen_island", "kitchen island", "kitchen", (3.5, 2.0), False),
                ("fridge", "fridge", "kitchen", (6.2, 0.8), True),
                ("cupboard_left", "grey cupboard", "kitchen", (1.0, 3.4), True),
                ("cupboard_right", "grey cupboard", "kitchen", (2.2, 3.4), True),
                ("sofa", "sofa", "living_room", (9.0, 1.0), False),
                ("media_console", "media console", "living_room", (13.0, 2.0), False),
                ("reading_chair", "reading chair", "living_room", (11.0, 3.2), False),
                ("desk", "desk", "study", (2.0, 6.5), False),
                ("bookcase", "bookcase", "study", (5.5, 7.2), False),
                ("file_cabinet_left", "metal file cabinet", "study", (0.8, 4.8), True),
                ("file_cabinet_right", "metal file cabinet", "study", (1.8, 4.8), True),
                ("bed", "bed", "bedroom", (10.0, 6.5), False),
                ("dresser", "dresser", "bedroom", (13.2, 6.0), True),
                ("nightstand", "nightstand", "bedroom", (8.0, 7.2), False),
            ],
            "objects": [
                ("kettle_1", "kettle", (), ("landmark", "kitchen_island")),
                ("folder_1", "folder", ("yellow",), ("landmark", "desk")),
                ("folder_2", "folder", ("grey",), ("landmark", "reading_chair")),
                ("toy_1", "toy", ("red",), ("landmark", "sofa")),
                ("toy_2", "toy", ("blue",), ("landmark", "bed")),
                ("mug_1", "mug", ("green",), ("landmark", "sink")),
                ("book_1", "book", ("black",), ("landmark", "bookcase")),
                ("plate_1", "plate", ("grey",), ("landmark", "kitchen_island")),
                ("bottle_1", "bottle", ("red",), ("landmark", "sink")),
                ("notebook_1", "notebook", ("green",), ("landmark", "desk")),
                ("cushion_1", "cushion", ("blue",), ("landmark", "sofa")),
                ("keys_1", "keys", (), ("landmark", "media_console")),
                ("blanket_1", "blanket", ("grey",), ("landmark", "bed")),
                ("clock_1", "clock", (), ("landmark", "nightstand")),
                ("snacks_1", "snacks", (), ("inside", "fridge")),
                ("charger_1", "charger", (), ("inside", "dresser")),
            ],
            "drifters": ["keys_1", "cushion_1"],
            "casting": {
                "unique_class": "kettle_1",
                "attribute_pair": ("folder_1", "folder_2"),
                "spatial_pair": ("toy_1", "toy_2"),
                "twin_pairs": [
                    ("cupboard_left", "cupboard_right"),
                    ("file_cabinet_left", "file_cabinet_right"),
                ],
                "hidden": {"snacks_1": "kitchen", "charger_1": "bedroom"},
                "free_landmarks": ["nightstand", "media_console", "sofa", "bed", "reading_chair"],
            },
        }
    raise ValueError(f"unknown scene_id {scene_id}; valid scenes are {SCENE_IDS}")


def scene_casting(scene_id: int) -> dict:
    """Structural roles of the scene's objects and landmarks, used by the
    benchmark's task generator."""
    tpl = _scene_template(scene_id)
    return {**tpl["casting"], "drifters": tpl["drifters"]}


def scene_world(layout_seed: int, scene_id: int, ticks_per_day: int = DEFAULT_TICKS_PER_DAY) -> WorldState:
    """Build one of the three scenes at tick 0: its template's rooms,
    landmarks and objects, whatever the layout seed, which the world only
    records."""
    tpl = _scene_template(scene_id)
    rooms = [Room(room_id=r, bounds=b) for r, b in tpl["rooms"]]
    landmarks = [
        Landmark(landmark_id=i, name=n, room_id=r, position=p, is_receptacle=rec)
        for i, n, r, p, rec in tpl["landmarks"]
    ]
    objects = [
        WorldObject(entity_id=e, class_label=cls, attributes=tuple(attrs), location=Location(kind=kind, ref=ref))
        for e, cls, attrs, (kind, ref) in tpl["objects"]
    ]
    return WorldState(
        scene_id=scene_id,
        layout_seed=layout_seed,
        rooms=rooms,
        landmarks=landmarks,
        objects=objects,
        ticks_per_day=ticks_per_day,
    )


def generate_world(
    layout_seed: int,
    scene_id: int,
    ticks_per_day: int = DEFAULT_TICKS_PER_DAY,
) -> tuple[WorldState, Schedule]:
    """A scene's world (scene_world) plus its light ambient schedule, both
    deterministic in (layout_seed, scene_id). A caller that needs no
    schedule calls scene_world."""
    world = scene_world(layout_seed, scene_id, ticks_per_day)
    drifters = _scene_template(scene_id)["drifters"]
    return world, ambient_schedule(world, drifters, seed=stable_seed("ambient", layout_seed, scene_id))


def ambient_schedule(
    world: WorldState,
    drifters: Iterable[str],
    seed: int,
    days: int = 6,
    moves_per_day: int = 2,
) -> Schedule:
    """Background motion of filler objects, one seeded move stream.

    Drifters shuffle between landmarks within their own room, so captions
    keep changing day to day without emptying any room.
    """
    rng = random.Random(seed)
    moves: list[Move] = []
    drifters = [d for d in drifters if d in world.objects]
    current = {
        d: world.objects[d].location.ref
        for d in drifters
        if world.objects[d].location.kind == LOC_LANDMARK
    }
    for day in range(days):
        for _ in range(moves_per_day):
            entity = drifters[rng.randrange(len(drifters))]
            home = current.get(entity)
            if home is None:
                continue
            room = world.landmarks[home].room_id
            options = sorted(
                lm.landmark_id
                for lm in world.landmarks.values()
                if lm.room_id == room and not lm.is_receptacle and lm.landmark_id != home
            )
            if not options:
                continue
            target = options[rng.randrange(len(options))]
            tick = rng.randrange(world.ticks_per_day)
            current[entity] = target
            moves.append(
                Move(day=day, tick_of_day=tick, entity_id=entity,
                     location=Location(kind=LOC_LANDMARK, ref=target))
            )
    return Schedule(seed=seed, moves=tuple(moves))


__all__ = [
    "DEFAULT_TICKS_PER_DAY",
    "LOC_INSIDE",
    "LOC_INVENTORY",
    "LOC_LANDMARK",
    "Landmark",
    "Location",
    "Move",
    "Room",
    "SCENE_IDS",
    "Schedule",
    "WorldObject",
    "WorldState",
    "ambient_schedule",
    "generate_world",
    "scene_casting",
    "scene_world",
]
