"""Benchmark task generation: five instruction families across three task
types, with per-task schedules that guarantee each family's defining hazard.

Full-scale counts (per_family=15 over 3 scenes: 225 visible, 90 interactive,
45 commonsense) and the desk-scale default (per_family=3: 45/30/9) come from
the same arithmetic: visible = 5 * scenes * n, interactive = 5 * scenes *
ceil(2n/5), commonsense = scenes * n.

A task file v2 (``TASKS_FORMAT``) is an artifact file of one
``TaskSpec.to_dict`` a line. An unversioned task file is refused; its header
holds the ``gen-tasks`` config that regenerates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping

from .. import artifacts
from ..core import Instruction, json_field, stable_seed
from ..homesim import (
    LOC_INSIDE,
    LOC_LANDMARK,
    Location,
    Move,
    SCENE_IDS,
    Schedule,
    WorldState,
    ambient_schedule,
    check_patrol,
    route_length,
    scene_casting,
    scene_world,
)
from ..homesim.patrol import room_segment
from ..homesim.world import _scene_template  # scene structure tables

VISIBLE_FAMILIES = ("class", "attribute", "spatial", "spatial_temporal", "spatial_frequentist")

DEFAULT_DAYS = 3
DEFAULT_TICKS_PER_DAY = 200

OPTIMAL_VISIBLE = {"perception": 1, "navigation": 1, "manipulation": 1}
OPTIMAL_INTERACTIVE = {"perception": 2, "navigation": 1, "manipulation": 2}

TASKS_FORMAT = {"format": "tasks", "version": 2}


class GenerationError(RuntimeError):
    """A family constraint cannot be satisfied in the requested world."""


class SceneListError(ValueError):
    """A suite's scenes name no scene, or one twice (its task ids would repeat)."""


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    instruction: str
    family: str
    type: str
    target_entity: str
    optimal_counts: dict
    scene_id: int
    layout_seed: int
    days: int
    ticks_per_day: int
    schedule: Schedule
    task_seed: int

    def instruction_full(self) -> Instruction:
        return Instruction(text=self.instruction, family=self.family, type=self.type)

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "optimal_counts": dict(self.optimal_counts), "schedule": self.schedule.to_dict()}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TaskSpec":
        # The str and int fields, by their annotations (strings here).
        kinds = {"str": str, "int": int}
        spec = cls(**{f.name: json_field(d, f.name, kinds[f.type]) for f in fields(cls) if f.type in kinds},
                   optimal_counts=dict(json_field(d, "optimal_counts", dict)),
                   schedule=Schedule.from_dict(json_field(d, "schedule", dict)))
        # What the suite needs of a task from outside: a scene it can patrol
        # over its days, a schedule that fits them, a family and type its
        # episodes can run under, and counts it can sum.
        check_patrol(spec.days, spec.ticks_per_day, route_length(spec.scene_id))
        spec.schedule.check(spec.ticks_per_day)
        spec.instruction_full()
        for name in spec.optimal_counts:
            if json_field(spec.optimal_counts, name, int) < 0:
                raise ValueError(f"optimal count {name} must be >= 0, got {spec.optimal_counts[name]}")
        return spec


def write_tasks(path: str, tasks: Iterable[TaskSpec], meta: Mapping[str, Any]) -> None:
    """Write a task file v2; meta fields join its header."""
    artifacts.write(path, {**meta, **TASKS_FORMAT}, (task.to_dict() for task in tasks))


def read_tasks(path: str) -> tuple[dict, list[TaskSpec], str]:
    """The header, tasks and checksum (which names the tasks; the header's
    config_hash names the gen-tasks options) of a task file v2; any failure
    raises artifacts.IntegrityError, a bad task line named ``task i``."""
    return artifacts.read(path, TaskSpec.from_dict, expect=TASKS_FORMAT, name="task")


def default_prior_table() -> dict[str, str]:
    """Class-to-room prior covering every hidden class in the three scenes."""
    table: dict[str, str] = {}
    for scene_id in SCENE_IDS:
        hidden = scene_casting(scene_id)["hidden"]
        for entity_id, class_label, _, _ in _scene_template(scene_id)["objects"]:
            if entity_id in hidden:
                table[class_label] = hidden[entity_id]
    return table


# ---------------------------------------------------------------------------
# Family builders


def _home_landmark(world: WorldState, entity_id: str) -> str:
    loc = world.objects[entity_id].location
    if loc.kind != LOC_LANDMARK:
        raise GenerationError(f"{entity_id} does not start in the open")
    return loc.ref


def _free_landmark(world: WorldState, casting: dict, avoid_room: str, idx: int) -> str:
    options = [
        lm
        for lm in casting["free_landmarks"]
        if world.landmarks[lm].room_id != avoid_room
    ]
    if not options:
        raise GenerationError("no free landmark outside the target's home room")
    return options[idx % len(options)]


def build_task(
    scene_id: int,
    family: str,
    task_type: str,
    idx: int,
    seed: int,
    days: int = DEFAULT_DAYS,
    ticks_per_day: int = DEFAULT_TICKS_PER_DAY,
) -> TaskSpec:
    """Construct one task whose schedule realizes the family hazard; a scene
    it cannot patrol (homesim.check_patrol) is a ValueError naming it."""
    return _build_tasks([(scene_id, family, task_type, idx)], seed, days, ticks_per_day)[0]


def _build_tasks(
    specs: Iterable[tuple[int, str, str, int]],
    seed: int,
    days: int = DEFAULT_DAYS,
    ticks_per_day: int = DEFAULT_TICKS_PER_DAY,
) -> list[TaskSpec]:
    """build_task of each (scene_id, family, task_type, idx), in order. The
    tasks of a scene are cast in one world, built on its first task, which
    they only read."""
    worlds: dict[int, WorldState] = {}
    tasks = []
    for scene_id, family, task_type, idx in specs:
        if scene_id not in worlds:
            try:
                check_patrol(days, ticks_per_day, route_length(scene_id))
            except ValueError as exc:
                raise ValueError(f"scene {scene_id}: {exc}") from exc
            worlds[scene_id] = scene_world(stable_seed("layout", seed, scene_id), scene_id, ticks_per_day)
        tasks.append(_task_in(worlds[scene_id], family, task_type, idx, seed, days))
    return tasks


def _task_in(world: WorldState, family: str, task_type: str, idx: int, seed: int, days: int) -> TaskSpec:
    """build_task in a scene's world at tick 0, which it only reads."""
    scene_id = world.scene_id
    task_seed = stable_seed("task", seed, scene_id, family, task_type, idx)
    casting = scene_casting(scene_id)
    ambient = ambient_schedule(world, casting["drifters"], stable_seed("task-ambient", task_seed), days)
    moves: list[Move] = list(ambient.moves)

    if task_type == "commonsense":
        hidden = sorted(casting["hidden"])
        target = hidden[idx % len(hidden)]
        instruction = f"bring me the {world.objects[target].class_label}"
        optimal = _commonsense_optimal(world, target)
        family = "commonsense"
    else:
        target, instruction, extra = _cast(world, casting, family, task_type, idx, days)
        moves.extend(extra)
        optimal = dict(OPTIMAL_INTERACTIVE if task_type == "interactive" else OPTIMAL_VISIBLE)

    schedule = Schedule(seed=task_seed, moves=tuple(moves))
    task = TaskSpec(
        task_id=f"s{scene_id}-{task_type}-{family}-{idx}",
        instruction=instruction,
        family=family,
        type=task_type,
        target_entity=target,
        optimal_counts=optimal,
        scene_id=scene_id,
        layout_seed=world.layout_seed,
        days=days,
        ticks_per_day=world.ticks_per_day,
        schedule=schedule,
        task_seed=task_seed,
    )
    _check_hazard(task, world)
    return task


# Per family: the casting entry that holds its target (None: the scene's
# unique class), its instruction template, and for a visible task the day,
# counted back from task time, on which the target leaves home for a free
# landmark (None: it stays). Templates name the class {cls}, the full
# descriptor {descr} and the home landmark {lname}.
_CASTS = {
    "class": (None, "find the {cls}", None),
    "attribute": ("attribute_pair", "find the {descr}", None),
    "spatial": ("spatial_pair", "find the {cls} on the {lname}", None),
    "spatial_temporal": ("spatial_pair", "find the {cls} that was on the {lname} yesterday", 0),
    "spatial_frequentist": ("attribute_pair", "find the {descr} that is usually by the {lname}", 1),
}
# An interactive target is inside a receptacle at task time, so a spatial
# instruction names where it was.
_INTERACTIVE_SPATIAL = "find the {cls} that was by the {lname}"


def _cast(
    world: WorldState, casting: dict, family: str, task_type: str, idx: int, days: int
) -> tuple[str, str, list[Move]]:
    """The target, instruction and extra moves of a visible or interactive
    task of one family (see _CASTS); pairs alternate their target by idx.

    An interactive target surfaces on top of one of a twin pair of
    receptacles just as the patrol reaches that room on the final day, so the
    sighting lands in memory; it disappears inside at task time."""
    if family not in _CASTS:
        raise GenerationError(f"unknown family {family!r}")
    pair, template, days_back = _CASTS[family]
    if task_type == "interactive" and family == "spatial":
        template = _INTERACTIVE_SPATIAL
    target = casting["unique_class"] if pair is None else casting[pair][idx % 2]
    obj = world.objects[target]
    fields = {"cls": obj.class_label, "descr": " ".join([*obj.attributes, obj.class_label])}
    home = None
    if "{lname}" in template:
        home = _home_landmark(world, target)
        fields["lname"] = world.landmarks[home].name
    moves: list[Move] = []
    if task_type == "interactive":
        pairs = casting["twin_pairs"]
        twin = pairs[idx % len(pairs)][(idx // len(pairs)) % 2]
        seg_start, _ = room_segment(world, world.landmarks[twin].room_id)
        moves = [
            Move(days - 1, max(1, seg_start), target, Location(LOC_LANDMARK, twin)),
            Move(days, 0, target, Location(LOC_INSIDE, twin)),
        ]
    elif days_back is not None:
        dest = _free_landmark(world, casting, world.landmarks[home].room_id, idx)
        moves = [Move(days - days_back, 0, target, Location(LOC_LANDMARK, dest))]
    return target, template.format(**fields), moves


def _commonsense_optimal(world: WorldState, target: str) -> dict:
    """Shortest ground-truth plan: navigate, (open), detect, pick."""
    loc = world.objects[target].location
    if loc.kind == LOC_INSIDE:
        return {"perception": 1, "navigation": 1, "manipulation": 2}
    return {"perception": 1, "navigation": 1, "manipulation": 1}


def interactive_per_family(per_family: int) -> int:
    return max(1, math.ceil(2 * per_family / 5))


def generate_suite(
    scenes: Iterable[int] = SCENE_IDS,
    per_family: int = 3,
    seed: int = 0,
    days: int = DEFAULT_DAYS,
    ticks_per_day: int = DEFAULT_TICKS_PER_DAY,
) -> list[TaskSpec]:
    """Emit the full task suite across scenes, families, and types. Each
    call builds one world per scene, which that scene's tasks only read. A
    bad argument is a ValueError (a SceneListError for no or repeated scenes)."""
    if per_family < 1:
        raise ValueError(f"per_family must be >= 1, got {per_family}")
    scenes = tuple(scenes)
    if not scenes:
        raise SceneListError(f"no scene given; valid: {SCENE_IDS}")
    if len(set(scenes)) != len(scenes):
        raise SceneListError(f"repeated scene in {scenes}")
    specs: list[tuple[int, str, str, int]] = []
    n_interactive = interactive_per_family(per_family)
    for scene_id in scenes:
        specs += [(scene_id, family, "visible", idx) for family in VISIBLE_FAMILIES for idx in range(per_family)]
        specs += [(scene_id, family, "interactive", idx)
                  for family in VISIBLE_FAMILIES for idx in range(n_interactive)]
        specs += [(scene_id, "commonsense", "commonsense", idx) for idx in range(per_family)]
    return _build_tasks(specs, seed, days, ticks_per_day)


# ---------------------------------------------------------------------------
# Ground-truth hazard checks and adjudication


def _location_at(task: TaskSpec, world: WorldState, entity_id: str, tick: int) -> Location:
    return world.at(task.schedule, tick).objects[entity_id].location


def check_family_hazard(task: TaskSpec) -> None:
    """Verify the family's defining condition against ground truth."""
    _check_hazard(task, scene_world(task.layout_seed, task.scene_id, task.ticks_per_day))


def _check_hazard(task: TaskSpec, world: WorldState) -> None:
    """check_family_hazard in the task's world at tick 0, which it only reads."""
    target = world.objects.get(task.target_entity)
    if target is None:
        raise GenerationError(f"{task.task_id}: target missing from world")
    task_tick = task.days * task.ticks_per_day
    loc_now = _location_at(task, world, task.target_entity, task_tick)
    same_class = [
        o for o in world.objects.values() if o.class_label == target.class_label
    ]

    if task.type == "commonsense":
        if loc_now.kind != LOC_INSIDE:
            raise GenerationError(f"{task.task_id}: commonsense target must stay hidden")
        if any(m.entity_id == task.target_entity for m in task.schedule.moves):
            raise GenerationError(f"{task.task_id}: commonsense target must never move")
        return
    if task.type == "interactive":
        if loc_now.kind != LOC_INSIDE:
            raise GenerationError(f"{task.task_id}: interactive target must end inside a receptacle")
        recep = world.landmarks[loc_now.ref]
        twins = [
            lm
            for lm in world.landmarks.values()
            if lm.is_receptacle and lm.name == recep.name and lm.room_id == recep.room_id
        ]
        if len(twins) < 2:
            raise GenerationError(f"{task.task_id}: receptacle {recep.landmark_id} has no identical twin")
        return

    if task.family == "class":
        if len(same_class) != 1:
            raise GenerationError(f"{task.task_id}: class must have a unique instance")
    elif task.family == "attribute":
        if len(same_class) < 2:
            raise GenerationError(f"{task.task_id}: attribute family needs >= 2 instances")
        matching = [o for o in same_class if o.attributes == target.attributes]
        if len(matching) != 1:
            raise GenerationError(f"{task.task_id}: attributes must single out the target")
    elif task.family == "spatial":
        if len(same_class) < 2:
            raise GenerationError(f"{task.task_id}: spatial family needs >= 2 instances")
        landmarks = {
            _location_at(task, world, o.entity_id, task_tick).ref for o in same_class
        }
        if len(landmarks) < 2:
            raise GenerationError(f"{task.task_id}: same-class instances share a landmark")
    elif task.family == "spatial_temporal":
        ref_tick = (task.days - 1) * task.ticks_per_day  # start of the referenced day
        loc_ref = _location_at(task, world, task.target_entity, ref_tick)
        if loc_ref == loc_now:
            raise GenerationError(f"{task.task_id}: target did not move after the referenced day")
    elif task.family == "spatial_frequentist":
        counts: dict[str, int] = {}
        for day in range(task.days):
            loc = _location_at(task, world, task.target_entity, day * task.ticks_per_day)
            if loc.kind == LOC_LANDMARK:
                counts[loc.ref] = counts.get(loc.ref, 0) + 1
        if not counts:
            raise GenerationError(f"{task.task_id}: frequentist target never in the open")
        modal, modal_days = max(counts.items(), key=lambda kv: kv[1])
        final = _location_at(task, world, task.target_entity, (task.days - 1) * task.ticks_per_day)
        if modal_days <= task.days - modal_days:
            raise GenerationError(f"{task.task_id}: no strict modal landmark")
        if final.kind == LOC_LANDMARK and final.ref == modal:
            raise GenerationError(f"{task.task_id}: target still at its modal landmark on the final day")


def adjudicate(task: TaskSpec, result) -> bool:
    """Success iff the ground-truth target was picked within the budget.

    Takes an EpisodeResult or anything exposing a .trace with steps; the
    budget guard re-checks step indices even though the loop enforces it.
    """
    trace = result.trace if hasattr(result, "trace") else result
    budget = len(trace.steps) + trace.remaining_budget
    for i, (action, outcome) in enumerate(trace.steps, start=1):
        if i > budget:
            return False
        if (
            action.tool == "pick"
            and outcome.payload.get("success")
            and outcome.payload.get("entity") == task.target_entity
        ):
            return True
    return False


def optimal_counts(task: TaskSpec) -> dict:
    """Protocol constants for visible/interactive; shortest ground-truth plan
    for commonsense."""
    if task.type == "visible":
        return dict(OPTIMAL_VISIBLE)
    if task.type == "interactive":
        return dict(OPTIMAL_INTERACTIVE)
    world = scene_world(task.layout_seed, task.scene_id, task.ticks_per_day)
    return _commonsense_optimal(world, task.target_entity)


__all__ = [
    "DEFAULT_DAYS",
    "DEFAULT_TICKS_PER_DAY",
    "GenerationError",
    "OPTIMAL_INTERACTIVE",
    "OPTIMAL_VISIBLE",
    "SceneListError",
    "TASKS_FORMAT",
    "TaskSpec",
    "VISIBLE_FAMILIES",
    "adjudicate",
    "build_task",
    "check_family_hazard",
    "default_prior_table",
    "generate_suite",
    "interactive_per_family",
    "optimal_counts",
    "read_tasks",
    "write_tasks",
]
