"""Shared domain types for the object-search engine.

Everything in this module is immutable after construction and safe to share
across threads. Canonical serialization is JSON with sorted keys and compact
separators, so re-encoding a decoded value is byte-exact.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import operator
import random
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

CONTAINMENT_OPEN_AIR = "open-air"
CONTAINMENT_INSIDE_OPEN = "inside-open-receptacle"
CONTAINMENTS = (CONTAINMENT_OPEN_AIR, CONTAINMENT_INSIDE_OPEN)

FAMILIES = (
    "class",
    "attribute",
    "spatial",
    "spatial_temporal",
    "spatial_frequentist",
    "commonsense",
)
TASK_TYPES = ("visible", "interactive", "commonsense")

OUTCOME_KINDS = ("retrieval", "perception", "skill_result")

ACTION_CATEGORIES = ("temporal_query", "perception", "navigation", "manipulation")

EMPTY_CAPTION = "nothing notable"


def canonical_dumps(obj: Any) -> str:
    """Serialize to the canonical JSON form used everywhere in this package."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_loads(text: str) -> Any:
    return json.loads(text)


def config_hash(config: Mapping[str, Any]) -> str:
    """The 16-hex lineage hash of a configuration: sha256 of its canonical JSON."""
    return hashlib.sha256(canonical_dumps(config).encode()).hexdigest()[:16]


def stable_seed(*parts: Any) -> int:
    """Derive a platform-stable 63-bit integer seed from arbitrary parts."""
    h = hashlib.blake2b(repr(tuple(parts)).encode("utf-8"), digest_size=8)
    return int.from_bytes(h.digest(), "big") >> 1


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into [-pi, pi)."""
    wrapped = math.fmod(yaw + math.pi, 2.0 * math.pi)
    if wrapped < 0:
        wrapped += 2.0 * math.pi
    return wrapped - math.pi


@dataclass(frozen=True)
class Timestep:
    """Global discrete tick, with the day index it falls on."""

    value: int
    day: int

    def __post_init__(self) -> None:
        if self.value < 0 or self.day < 0:
            raise ValueError("timestep value and day must be non-negative")

    @classmethod
    def at(cls, value: int, ticks_per_day: int) -> "Timestep":
        if ticks_per_day <= 0:
            raise ValueError("ticks_per_day must be positive")
        return cls(value=value, day=value // ticks_per_day)

    def to_dict(self) -> dict:
        return {"value": self.value, "day": self.day}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Timestep":
        return cls(value=int(d["value"]), day=int(d["day"]))


@dataclass(frozen=True)
class Pose:
    """Robot pose: planar position in meters, yaw in [-pi, pi), containing room."""

    position: tuple[float, float]
    yaw: float
    room_id: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "position", (float(self.position[0]), float(self.position[1])))
        object.__setattr__(self, "yaw", normalize_yaw(float(self.yaw)))

    def to_dict(self) -> dict:
        return {"position": list(self.position), "yaw": self.yaw, "room_id": self.room_id}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Pose":
        return cls(position=tuple(d["position"]), yaw=float(d["yaw"]), room_id=str(d["room_id"]))


@dataclass(frozen=True)
class VisibleEntity:
    """One entity in an observation, with its ground-truth placement."""

    entity_id: str
    class_label: str
    attributes: tuple[str, ...]
    landmark_id: str
    containment: str = CONTAINMENT_OPEN_AIR
    landmark_name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if self.containment not in CONTAINMENTS:
            raise ValueError(f"unknown containment {self.containment!r}")
        if not self.landmark_name:
            object.__setattr__(self, "landmark_name", self.landmark_id.replace("_", " "))

    def to_dict(self) -> dict:
        return {
            "entity_id": self.entity_id,
            "class_label": self.class_label,
            "attributes": list(self.attributes),
            "landmark_id": self.landmark_id,
            "containment": self.containment,
            "landmark_name": self.landmark_name,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "VisibleEntity":
        return cls(
            entity_id=str(d["entity_id"]),
            class_label=str(d["class_label"]),
            attributes=tuple(d["attributes"]),
            landmark_id=str(d["landmark_id"]),
            containment=str(d["containment"]),
            landmark_name=str(d.get("landmark_name", "")),
        )


@dataclass(frozen=True)
class SymbolicObservation:
    """Symbolic stand-in for one camera observation.

    The caption is a pure function of (visible_entities, caption mode, noise
    seed); the entity list itself is always ground truth.
    """

    visible_entities: tuple[VisibleEntity, ...]
    caption: str
    keyframe: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "visible_entities", tuple(self.visible_entities))
        ids = [e.entity_id for e in self.visible_entities]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate entity_id within one observation")

    def to_dict(self) -> dict:
        return {
            "visible_entities": [e.to_dict() for e in self.visible_entities],
            "caption": self.caption,
            "keyframe": self.keyframe,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SymbolicObservation":
        return cls(
            visible_entities=tuple(VisibleEntity.from_dict(e) for e in d["visible_entities"]),
            caption=str(d["caption"]),
            keyframe=bool(d["keyframe"]),
        )


Tick = tuple[Timestep, Pose, SymbolicObservation]


class ObservationStream(SequenceABC):
    """Read-only observation stream kept as runs.

    A run is ``(t0, day, length, pose, obs)``: the ticks t0 .. t0+length-1,
    all on one day, seen from one pose object with one observation object.
    The stream is still the sequence of (Timestep, Pose,
    SymbolicObservation) ticks: its length is the tick count, it indexes,
    slices and iterates by tick, and it equals any sequence of equal ticks.
    Timesteps are made only when a tick is read.
    """

    __hash__ = None  # type: ignore[assignment]  # equal to lists, which do not hash

    def __init__(self, runs: Iterable[tuple[int, int, int, Pose, SymbolicObservation]]):
        self._t0: list[int] = []
        self._day: list[int] = []
        self._length: list[int] = []
        self._pose: list[Pose] = []
        self._obs: list[SymbolicObservation] = []
        self._start = [0]  # tick index of each run's first tick, then the tick count
        for t0, day, length, pose, obs in runs:
            if t0 < 0 or day < 0 or length < 1:
                raise ValueError(f"bad run: t0={t0}, day={day}, length={length}")
            self._t0.append(t0)
            self._day.append(day)
            self._length.append(length)
            self._pose.append(pose)
            self._obs.append(obs)
            self._start.append(self._start[-1] + length)

    @classmethod
    def of(cls, ticks: Iterable[Tick]) -> "ObservationStream":
        """The stream of any ticks. Consecutive ticks join one run when their
        pose and observation are the same objects and their timesteps follow
        on within one day. A stream is returned as it is."""
        if isinstance(ticks, cls):
            return ticks
        runs: list[list] = []
        for t, pose, obs in ticks:
            if runs:
                run = runs[-1]
                if pose is run[3] and obs is run[4] and t.day == run[1] and t.value == run[0] + run[2]:
                    run[2] += 1
                    continue
            runs.append([t.value, t.day, 1, pose, obs])
        return cls(runs)

    def runs(self) -> Iterator[tuple[int, int, int, Pose, SymbolicObservation]]:
        """The runs in order, as (t0, day, length, pose, obs)."""
        return zip(self._t0, self._day, self._length, self._pose, self._obs)

    def __len__(self) -> int:
        return self._start[-1]

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ObservationStream.of([self[j] for j in range(len(self))[i]])
        n = len(self)
        j = operator.index(i)
        if not -n <= j < n:
            raise IndexError(f"tick index {i} out of range [0, {n})")
        j %= n
        r = bisect.bisect_right(self._start, j) - 1
        return Timestep(self._t0[r] + j - self._start[r], self._day[r]), self._pose[r], self._obs[r]

    def __iter__(self) -> Iterator[Tick]:
        for t0, day, length, pose, obs in self.runs():
            for t in range(t0, t0 + length):
                yield Timestep(t, day), pose, obs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"ObservationStream({len(self)} ticks in {len(self._t0)} runs)"


DEFAULT_LABEL_POOL = (
    "mug",
    "book",
    "folder",
    "toy",
    "plate",
    "bottle",
    "notebook",
    "cushion",
    "lamp",
    "keys",
    "box",
    "towel",
)


@dataclass(frozen=True)
class NoiseModel:
    """Caption noise applied in realistic mode: per-entity drop and mislabel."""

    p_drop: float = 0.1
    p_mislabel: float = 0.1
    label_pool: tuple[str, ...] = DEFAULT_LABEL_POOL

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_drop <= 1.0 and 0.0 <= self.p_mislabel <= 1.0):
            raise ValueError("noise probabilities must lie in [0, 1]")


DEFAULT_NOISE = NoiseModel()


def _entity_phrase(class_label: str, attributes: Sequence[str], landmark_name: str, containment: str) -> str:
    descr = " ".join([*attributes, class_label]) if attributes else class_label
    if containment == CONTAINMENT_INSIDE_OPEN:
        return f"a {descr} inside the {landmark_name}"
    return f"a {descr} on the {landmark_name}"


def render_caption(
    visible_entities: Sequence[VisibleEntity],
    mode: str = "oracle",
    seed: int = 0,
    noise: NoiseModel = DEFAULT_NOISE,
) -> str:
    """Render the caption text for an entity list.

    Oracle mode instantiates the template on ground-truth labels. Realistic
    mode first perturbs the entity list with the noise model (drop, then class
    mislabel) using the given seed, then renders the same template. Identical
    (entities, mode, seed) triples always produce identical captions.
    """
    if mode not in ("oracle", "realistic"):
        raise ValueError(f"unknown caption mode {mode!r}")
    phrases = []
    rng = random.Random(seed) if mode == "realistic" else None
    for ent in visible_entities:
        label = ent.class_label
        if rng is not None:
            if rng.random() < noise.p_drop:
                continue
            if rng.random() < noise.p_mislabel:
                pool = [c for c in noise.label_pool if c != label] or [label]
                label = pool[rng.randrange(len(pool))]
        phrases.append(_entity_phrase(label, ent.attributes, ent.landmark_name, ent.containment))
    if not phrases:
        return EMPTY_CAPTION
    return "; ".join(phrases)


@dataclass(frozen=True, eq=False)
class MemoryRecord:
    """One patrol observation: time, pose, caption embedding, raw observation."""

    t: Timestep
    pose: Pose
    embedding: np.ndarray
    raw: SymbolicObservation

    def __post_init__(self) -> None:
        emb = np.asarray(self.embedding, dtype=np.float64)
        if emb.ndim != 1:
            raise ValueError(f"embedding must be 1-D, got shape {emb.shape}")
        object.__setattr__(self, "embedding", emb)
        # The dot-then-sqrt that np.linalg.norm runs on a 1-D float64 vector.
        norm = math.sqrt(emb @ emb)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"embedding must be unit norm, got {norm:.8f}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryRecord):
            return NotImplemented
        return (
            self.t == other.t
            and self.pose == other.pose
            and self.raw == other.raw
            and np.array_equal(self.embedding, other.embedding)
        )

    def to_dict(self) -> dict:
        return {
            "t": self.t.to_dict(),
            "pose": self.pose.to_dict(),
            "embedding": [float(v) for v in self.embedding],
            "raw": self.raw.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "MemoryRecord":
        return cls(
            t=Timestep.from_dict(d["t"]),
            pose=Pose.from_dict(d["pose"]),
            embedding=np.asarray(d["embedding"], dtype=np.float64),
            raw=SymbolicObservation.from_dict(d["raw"]),
        )


@dataclass(frozen=True)
class Instruction:
    """A retrieval request. Only `text` is ever shown to policies; the family
    and type annotations exist for the benchmark layer."""

    text: str
    family: Optional[str] = None
    type: Optional[str] = None

    def __post_init__(self) -> None:
        if self.family is not None and self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.type is not None and self.type not in TASK_TYPES:
            raise ValueError(f"unknown task type {self.type!r}")

    def redacted(self) -> "Instruction":
        return Instruction(text=self.text)

    def to_dict(self) -> dict:
        return {"text": self.text, "family": self.family, "type": self.type}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Instruction":
        return cls(text=str(d["text"]), family=d.get("family"), type=d.get("type"))


@dataclass(frozen=True)
class Action:
    """A tool-argument pair drawn from the unified action space."""

    tool: str
    args: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", dict(self.args))

    def to_dict(self) -> dict:
        return {"tool": self.tool, "args": dict(self.args)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Action":
        return cls(tool=str(d["tool"]), args=dict(d.get("args", {})))


@dataclass(frozen=True)
class Outcome:
    """Result of executing one action."""

    kind: str
    payload: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in OUTCOME_KINDS:
            raise ValueError(f"unknown outcome kind {self.kind!r}")
        object.__setattr__(self, "payload", dict(self.payload))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "payload": dict(self.payload)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Outcome":
        return cls(kind=str(d["kind"]), payload=dict(d.get("payload", {})))


@dataclass(frozen=True)
class WorkingMemory:
    """Per-task trajectory of executed actions and outcomes.

    Append-only: `append` returns a new value and never touches prior steps.
    remaining_budget always equals the starting budget minus len(steps).
    """

    instruction: Instruction
    steps: tuple[tuple[Action, Outcome], ...] = ()
    remaining_budget: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(tuple(s) for s in self.steps))
        if self.remaining_budget < 0:
            raise ValueError("remaining_budget must be non-negative")

    @classmethod
    def fresh(cls, instruction: Instruction, budget: int) -> "WorkingMemory":
        if budget < 1:
            raise ValueError("budget must be >= 1")
        return cls(instruction=instruction, steps=(), remaining_budget=budget)

    def append(self, action: Action, outcome: Outcome) -> "WorkingMemory":
        """Append one (action, outcome) pair; prior entries are untouched."""
        if self.remaining_budget < 1:
            raise ValueError("budget exhausted")
        return WorkingMemory(
            instruction=self.instruction,
            steps=self.steps + ((action, outcome),),
            remaining_budget=self.remaining_budget - 1,
        )

    def to_dict(self) -> dict:
        return {
            "instruction": self.instruction.to_dict(),
            "steps": [
                {"action": a.to_dict(), "outcome": o.to_dict()} for a, o in self.steps
            ],
            "remaining_budget": self.remaining_budget,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "WorkingMemory":
        return cls(
            instruction=Instruction.from_dict(d["instruction"]),
            steps=tuple(
                (Action.from_dict(s["action"]), Outcome.from_dict(s["outcome"]))
                for s in d["steps"]
            ),
            remaining_budget=int(d["remaining_budget"]),
        )


# ---------------------------------------------------------------------------
# Unified action space: tool schemas and validation


@dataclass(frozen=True)
class ParamSpec:
    """Declared argument of a tool."""

    name: str
    kind: str  # "str" | "int" | "float"
    required: bool = True
    enum: Optional[tuple[str, ...]] = None

    def to_dict(self) -> dict:
        d: dict[str, Any] = {"name": self.name, "kind": self.kind, "required": self.required}
        if self.enum is not None:
            d["enum"] = list(self.enum)
        return d


@dataclass(frozen=True)
class ToolSpec:
    """One tool in the unified action space."""

    name: str
    category: str  # one of ACTION_CATEGORIES
    output_kind: str  # one of OUTCOME_KINDS
    params: tuple[ParamSpec, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.category not in ACTION_CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.output_kind not in OUTCOME_KINDS:
            raise ValueError(f"unknown output kind {self.output_kind!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "output_kind": self.output_kind,
            "params": [p.to_dict() for p in self.params],
            "description": self.description,
        }


class ToolRegistry:
    """Named tool set exposed to policies as a machine-readable schema.

    Besides the tools themselves the schema carries the landmark map of the
    current world (ids, display names, rooms, receptacle flags) so policies
    can ground navigation targets without touching world state.
    """

    SCHEMA_VERSION = 1

    def __init__(self, tools: Iterable[ToolSpec], landmarks: Iterable[Mapping[str, Any]] = (), rooms: Iterable[str] = ()):
        self._tools: dict[str, ToolSpec] = {}
        for t in tools:
            if t.name in self._tools:
                raise ValueError(f"duplicate tool {t.name!r}")
            self._tools[t.name] = t
        self.landmarks = [dict(lm) for lm in landmarks]
        self.rooms = list(rooms)

    def __contains__(self, name: str) -> bool:
        return name in self._tools

    def __len__(self) -> int:
        return len(self._tools)

    def get(self, name: str) -> Optional[ToolSpec]:
        return self._tools.get(name)

    @property
    def tools(self) -> tuple[ToolSpec, ...]:
        return tuple(self._tools.values())

    def schema(self) -> dict:
        return {
            "version": self.SCHEMA_VERSION,
            "tools": [t.to_dict() for t in self._tools.values()],
            "landmarks": [dict(lm) for lm in self.landmarks],
            "rooms": list(self.rooms),
        }


_KIND_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def validate_action(action: Action, registry: ToolRegistry) -> list[str]:
    """Check an action against the registry. Returns field-level diagnostics;
    an empty list means the action is valid."""
    if len(registry) == 0:
        raise ValueError("registry is empty")
    spec = registry.get(action.tool)
    if spec is None:
        return [f"tool: unknown tool {action.tool!r}"]
    errors: list[str] = []
    declared = {p.name: p for p in spec.params}
    for key in action.args:
        if key not in declared:
            errors.append(f"{key}: not an argument of {spec.name}")
    for p in spec.params:
        if p.name not in action.args:
            if p.required:
                errors.append(f"{p.name}: required argument missing")
            continue
        value = action.args[p.name]
        if not _KIND_CHECKS[p.kind](value):
            errors.append(f"{p.name}: expected {p.kind}, got {type(value).__name__}")
            continue
        if p.enum is not None and value not in p.enum:
            errors.append(f"{p.name}: {value!r} not in allowed values")
    # Tools may declare mutually exclusive argument forms via groups encoded
    # in the description; the only such tool is temporal_query, handled here.
    if spec.name == "temporal_query" and not errors:
        has_point = "timestep" in action.args
        has_window = "day_start" in action.args or "day_end" in action.args
        if has_point and has_window:
            errors.append("timestep: point and window forms are mutually exclusive")
        if not has_point and not has_window:
            errors.append("timestep: provide either timestep or day_start/day_end")
        if has_window and ("day_start" not in action.args or "day_end" not in action.args):
            errors.append("day_start: window form needs both day_start and day_end")
    return errors


__all__ = [
    "ACTION_CATEGORIES",
    "Action",
    "CONTAINMENTS",
    "CONTAINMENT_INSIDE_OPEN",
    "CONTAINMENT_OPEN_AIR",
    "DEFAULT_NOISE",
    "EMPTY_CAPTION",
    "FAMILIES",
    "Instruction",
    "MemoryRecord",
    "NoiseModel",
    "ObservationStream",
    "OUTCOME_KINDS",
    "Outcome",
    "ParamSpec",
    "Pose",
    "SymbolicObservation",
    "TASK_TYPES",
    "Tick",
    "Timestep",
    "ToolRegistry",
    "ToolSpec",
    "VisibleEntity",
    "WorkingMemory",
    "canonical_dumps",
    "canonical_loads",
    "config_hash",
    "normalize_yaw",
    "render_caption",
    "stable_seed",
    "validate_action",
]
