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
# Caption modes: ground-truth labels, or labels under the noise model.
MODES = ("oracle", "realistic")


def _as_list(obj: Any) -> list:
    if isinstance(obj, Hits):
        return list(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# json.dumps would make an encoder of these settings on every call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_as_list)


def canonical_dumps(obj: Any) -> str:
    """Serialize to the canonical JSON form used everywhere in this package, a Hits as its list."""
    return _CANONICAL.encode(obj)


def canonical_loads(text: str) -> Any:
    return json.loads(text)


# The JSON types of json_field and memory file columns, by the Python type naming
# each: its decoded values' types, and its name. A number admits an integer;
# JSON true (a bool) or 3.0 (a float) is no integer.
JSON_TYPES = {str: ((str,), "string"), int: ((int,), "integer"), float: ((int, float), "number"),
              bool: ((bool,), "boolean"), dict: ((dict,), "object"), None: ((type(None),), "null")}


def json_field(d: Mapping[str, Any], key: str, *kinds: Any, item: Any = None, size: Optional[int] = None) -> Any:
    """d[key], as it is, if of a JSON type that kinds name (str, int, float, bool,
    dict or None), or given item an array of values of that type, size of them where
    given; else ValueError naming key. Decoders of outside input use it."""
    value = d[key]
    if item is None:
        for kind in kinds:
            if type(value) in JSON_TYPES[kind][0]:
                return value
        want = " or ".join(JSON_TYPES[kind][1] for kind in kinds)
    else:
        types, name = JSON_TYPES[item]
        if type(value) is list and size in (None, len(value)) and all([type(v) in types for v in value]):
            return value
        want = f"array of {'' if size is None else f'{size} '}{name}s"
    raise ValueError(f"{key} must be a JSON {want}, got {value!r}")


def config_hash(config: Mapping[str, Any]) -> str:
    """The 16-hex lineage hash of a configuration: sha256 of its canonical JSON."""
    return hashlib.sha256(canonical_dumps(config).encode()).hexdigest()[:16]


def stable_seed(*parts: Any) -> int:
    """Derive a platform-stable 63-bit integer seed from arbitrary parts."""
    h = hashlib.blake2b(repr(tuple(parts)).encode("utf-8"), digest_size=8)
    return int.from_bytes(h.digest(), "big") >> 1


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into [-pi, pi); one already inside is returned unchanged."""
    wrapped = math.fmod(yaw + math.pi, 2.0 * math.pi)
    if wrapped < 0:
        wrapped += 2.0 * math.pi  # may round up to 2 pi, which wraps to -pi
    return wrapped - math.pi if wrapped < 2.0 * math.pi else -math.pi


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
        return cls(position=tuple(json_field(d, "position", item=float, size=2)),
                   yaw=json_field(d, "yaw", float), room_id=json_field(d, "room_id", str))


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
            entity_id=json_field(d, "entity_id", str),
            class_label=json_field(d, "class_label", str),
            attributes=tuple(json_field(d, "attributes", item=str)),
            landmark_id=json_field(d, "landmark_id", str),
            containment=json_field(d, "containment", str),
            landmark_name=json_field(d, "landmark_name", str),
        )


def _check_entity_ids(entities: Sequence[VisibleEntity]) -> None:
    ids = [e.entity_id for e in entities]
    if len(ids) != len(set(ids)):
        raise ValueError("duplicate entity_id within one observation")


@dataclass(frozen=True)
class SymbolicObservation:
    """Symbolic stand-in for one camera observation.

    The caption is a pure function of (visible_entities, caption mode, noise
    seed); the entity list itself is always ground truth.
    """

    visible_entities: tuple[VisibleEntity, ...]
    caption: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "visible_entities", tuple(self.visible_entities))
        _check_entity_ids(self.visible_entities)

    @classmethod
    def sharing(cls, entity_lists: Sequence[tuple[VisibleEntity, ...]],
                raws: Iterable[tuple[int, str]]) -> list["SymbolicObservation"]:
        """One observation per (list id, caption) in raws, each holding the
        tuple entity_lists[list id] itself. Each list is checked once, as the
        constructor checks it, however many observations share it; a bad
        list raises ValueError naming its id."""
        for a, entities in enumerate(entity_lists):
            try:
                _check_entity_ids(entities)
            except ValueError as exc:
                raise ValueError(f"entity list {a}: {exc}") from None
        made = []
        for a, caption in raws:
            obs = object.__new__(cls)
            object.__setattr__(obs, "visible_entities", entity_lists[a])
            object.__setattr__(obs, "caption", caption)
            made.append(obs)
        return made


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


# The noise model's version. v2 draws each entity's noise from a
# counter-based generator (noise_draws); v1 seeded one random.Random per
# record.
NOISE_VERSION = 2


@dataclass(frozen=True)
class NoiseModel:
    """Caption noise applied in realistic mode: per-entity drop and mislabel.

    Each entity of a record has its own four draws (see noise_draws and
    noise_codes): it is dropped with probability p_drop, and otherwise
    mislabeled with probability p_mislabel to a uniformly drawn label of
    label_pool other than its own.
    """

    p_drop: float = 0.1
    p_mislabel: float = 0.1
    label_pool: tuple[str, ...] = DEFAULT_LABEL_POOL

    def __post_init__(self) -> None:
        if not (0.0 <= self.p_drop <= 1.0 and 0.0 <= self.p_mislabel <= 1.0):
            raise ValueError("noise probabilities must lie in [0, 1]")


DEFAULT_NOISE = NoiseModel()


def noise_draws(noise_seed: int, slot: int, timesteps: Sequence[int]) -> np.ndarray:
    """The draws (u_drop, u_mislabel, u_label, unused) of entity slot `slot`
    at each of the given timesteps, as an (n, 4) array.

    Row i is Generator(Philox(key=[noise_seed, slot], counter=t_i)).random(4),
    the key taken as two uint64 words: a counter-based stream (Salmon et al.,
    SC'11) keyed by the noise seed and the slot, at the record's timestep.
    Philox steps its counter before each block of four, so row r of a block
    drawn from counter t is the draw at counter t + r; one generator serves
    each stretch of consecutive timesteps.
    """
    if not 0 <= noise_seed < 2**64:
        raise ValueError(f"noise_seed must lie in [0, 2**64), got {noise_seed}")
    key = np.array([noise_seed, slot], dtype=np.uint64)
    t = np.asarray(timesteps, dtype=np.int64)
    out = np.empty((len(t), 4))
    starts = [0, *(np.flatnonzero(np.diff(t) != 1) + 1).tolist()] if len(t) else []
    for a, b in zip(starts, [*starts[1:], len(t)]):
        philox = np.random.Philox(key=key, counter=int(t[a]))
        out[a:b] = np.random.Generator(philox).random((b - a, 4))
    return out


def mislabel_pool(entity: VisibleEntity, noise: NoiseModel = DEFAULT_NOISE) -> list[str]:
    """The labels an entity may be mislabeled to: the label pool without its
    true label, or the true label alone."""
    return [c for c in noise.label_pool if c != entity.class_label] or [entity.class_label]


def noise_codes(draws: np.ndarray, pool_sizes: np.ndarray, noise: NoiseModel = DEFAULT_NOISE) -> np.ndarray:
    """Each entity's noise code from its draws (u_drop, u_mislabel, u_label,
    ...) on the last axis and the size of its mislabel_pool: -1 if u_drop <
    p_drop (dropped), else 1 + floor(u_label * pool size) if u_mislabel <
    p_mislabel (mislabeled to that label of its pool), else 0 (kept)."""
    draws = np.asarray(draws, dtype=np.float64)
    label = (draws[..., 2] * pool_sizes).astype(np.int64)
    return np.where(draws[..., 0] < noise.p_drop, -1, np.where(draws[..., 1] < noise.p_mislabel, 1 + label, 0))


def entity_phrase(entity: VisibleEntity, code: int = 0, noise: NoiseModel = DEFAULT_NOISE) -> Optional[str]:
    """One entity's caption phrase under a noise code (noise_codes), or None
    if dropped. Code 1 + m names the m-th label of its mislabel_pool."""
    if code < 0:
        return None
    label = mislabel_pool(entity, noise)[code - 1] if code else entity.class_label
    descr = " ".join([*entity.attributes, label])
    where = "inside" if entity.containment == CONTAINMENT_INSIDE_OPEN else "on"
    return f"a {descr} {where} the {entity.landmark_name}"


def render_caption(
    visible_entities: Sequence[VisibleEntity],
    mode: str = "oracle",
    draws: Optional[Sequence[Sequence[float]]] = None,
    noise: NoiseModel = DEFAULT_NOISE,
) -> str:
    """The caption of an entity list: its entities' phrases (entity_phrase)
    joined by "; ", or EMPTY_CAPTION when none is left.

    Oracle mode keeps every entity. Realistic mode codes each one by its row
    of draws (u_drop, u_mislabel, u_label, unused), all in [0, 1), with
    noise_codes. Identical (entities, mode, draws) give identical captions.
    memstore.build composes captions the same way, from the draws of
    noise_draws, one slot per entity.
    """
    if mode not in MODES:
        raise ValueError(f"unknown caption mode {mode!r}")
    codes = [0] * len(visible_entities)
    if mode == "realistic":
        if draws is None or len(draws) != len(visible_entities):
            raise ValueError("realistic captions need one row of draws per entity")
        if visible_entities:
            codes = noise_codes([row[:3] for row in draws], [len(mislabel_pool(e, noise)) for e in visible_entities],
                                noise).tolist()
    phrases = [entity_phrase(e, code, noise) for e, code in zip(visible_entities, codes) if code >= 0]
    return "; ".join(phrases) or EMPTY_CAPTION


def embedding_problem(vec: np.ndarray, d: Optional[int] = None) -> Optional[str]:
    """Why a float64 vector cannot be a caption embedding, or None. It must
    be 1-D, of length d when d is given, and of unit norm; a NaN or inf
    entry fails the norm check."""
    if vec.ndim != 1:
        return f"embedding must be 1-D, got shape {vec.shape}"
    if d is not None and vec.shape != (d,):
        return f"embedding dimension {vec.shape} != {(d,)}"
    # np.linalg.norm's dot-then-sqrt; a sum that overflows is inf, and fails.
    with np.errstate(over="ignore"):
        norm = math.sqrt(vec @ vec)
    if not abs(norm - 1.0) <= 1e-6:
        return f"embedding must be unit norm, got {norm:.8f}"
    return None


@dataclass(frozen=True, eq=False)
class MemoryRecord:
    """One patrol observation: time, pose, caption embedding, raw observation."""

    t: Timestep
    pose: Pose
    embedding: np.ndarray
    raw: SymbolicObservation

    def __post_init__(self) -> None:
        emb = np.asarray(self.embedding, dtype=np.float64)
        reason = embedding_problem(emb)
        if reason is not None:
            raise ValueError(reason)
        object.__setattr__(self, "embedding", emb)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryRecord):
            return NotImplemented
        return (
            self.t == other.t
            and self.pose == other.pose
            and self.raw == other.raw
            and np.array_equal(self.embedding, other.embedding)
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


class Hits(SequenceABC):
    """Ranked retrieval hits, read-only: one list per field of KEYS, of Python
    int, float or str. Reading a hit builds a fresh dict in KEYS order,
    a slice a Hits. It equals any sequence of those dicts, and is encoded so."""

    KEYS = __slots__ = ("record_index", "score", "t", "day", "room", "x", "y", "caption")

    def __init__(self, record_index: list, score: list, t: list, day: list, room: list,
                 x: list, y: list, caption: list):
        self.record_index, self.score, self.t, self.day, self.room = record_index, score, t, day, room
        self.x, self.y, self.caption = x, y, caption

    def __len__(self) -> int:
        return len(self.record_index)

    def __getitem__(self, i):
        row = [getattr(self, key)[i] for key in self.KEYS]
        return Hits(*row) if isinstance(i, slice) else dict(zip(self.KEYS, row))

    def __iter__(self) -> Iterator[dict]:
        keys = self.KEYS
        for row in zip(*(getattr(self, key) for key in keys)):
            yield dict(zip(keys, row))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SequenceABC) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


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


INT64_MIN, INT64_MAX = -2**63, 2**63 - 1


@dataclass(frozen=True)
class ParamSpec:
    """Declared argument of a tool. A number must lie in [minimum, maximum]
    where they are given, above minimum when exclusive_minimum, and a float
    argument must be finite."""

    name: str
    kind: str  # "str" | "int" | "float"
    required: bool = True
    enum: Optional[tuple[str, ...]] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    exclusive_minimum: bool = False

    def to_dict(self) -> dict:
        d: dict[str, Any] = {"name": self.name, "kind": self.kind, "required": self.required}
        if self.enum is not None:
            d["enum"] = list(self.enum)
        if self.minimum is not None:
            d["minimum"] = self.minimum
        if self.exclusive_minimum:
            d["exclusive_minimum"] = True
        if self.maximum is not None:
            d["maximum"] = self.maximum
        return d

    def bound_problem(self, value: Any) -> Optional[str]:
        """Why a value of the right kind is out of bounds, or None. Bounds
        compare exactly, however large an int is."""
        if self.kind == "float":
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int past every float
                finite = False
            if not finite:
                return "must be a finite number"
        if self.minimum is not None:
            if self.exclusive_minimum and not value > self.minimum:
                return f"must be > {self.minimum}"
            if value < self.minimum:
                return f"must be >= {self.minimum}"
        if self.maximum is not None and value > self.maximum:
            return f"must be <= {self.maximum}"
        return None


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
    """Check an action against the registry: tool, argument names, kinds,
    enums and bounds (ParamSpec.bound_problem). Returns field-level
    diagnostics; an empty list means the action is valid."""
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
            continue
        problem = p.bound_problem(value)
        if problem is not None:
            errors.append(f"{p.name}: {problem}")
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
        if has_point and "per" in action.args:
            errors.append("per: only the window form takes per")
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
    "Hits",
    "INT64_MAX",
    "INT64_MIN",
    "Instruction",
    "JSON_TYPES",
    "MODES",
    "MemoryRecord",
    "NOISE_VERSION",
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
    "embedding_problem",
    "entity_phrase",
    "json_field",
    "mislabel_pool",
    "noise_codes",
    "noise_draws",
    "normalize_yaw",
    "render_caption",
    "stable_seed",
    "validate_action",
]
