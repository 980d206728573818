"""Default unified action space and its executor.

Temporal tools run against long-term memory, spatial tools against the world.
The registry is the only thing policies see; executing an action is the only
way a policy touches memory or world state.

A query's hits reach policies as a core.Hits (record_views): fields gathered
once as columns, a dict built only when a hit is read, and written to logs
from the columns by outcome_json, byte for byte as canonical_dumps. The
columns are taken from tables the memory's record set (memstore._RecordSet)
derives once: a caption per raw and the pose table's (x, y, room) rows
(LongTermMemory.fields); the payload's total, last_t and last_day are the
set's last record. fetch_raw's record view is read straight from the record
set, with no one-hit Hits.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from ..core import (
    INT64_MAX, INT64_MIN, Action, Hits, Outcome, ParamSpec, SymbolicObservation, ToolRegistry, ToolSpec,
    canonical_dumps,
)
from ..memstore import DEFAULT_TOP_R, LongTermMemory, QueryResult
from ..embed import Embedder, TransportError
from ..homesim import Schedule, WorldState, detect, navigate, open_receptacle, pick

# The largest r a query may ask for: one day at the top of the full-scale band
# (1200..1500 ticks/day), so a whole-day window fits in one query at every
# documented scale, per record or per run (realistic captions change at most
# ticks, so a realistic 1300-tick day holds about a thousand runs).
# perfbench's retrieval mix asks day windows for 200 records, so it must stay
# >= 200.
R_MAX = 1500
_R = ParamSpec("r", "int", required=False, minimum=1, maximum=R_MAX)


def _int64(name: str, required: bool = False) -> ParamSpec:
    return ParamSpec(name, "int", required=required, minimum=INT64_MIN, maximum=INT64_MAX)


def default_registry(world: Optional[WorldState] = None) -> ToolRegistry:
    """Build the standard registry; navigate/open argument enums and the
    landmark table come from the world when one is given."""
    landmark_ids: Optional[tuple[str, ...]] = None
    receptacle_ids: Optional[tuple[str, ...]] = None
    landmark_table: list[dict] = []
    rooms: list[str] = []
    if world is not None:
        landmark_ids = tuple(world.landmarks)
        receptacle_ids = tuple(
            lm.landmark_id for lm in world.landmarks.values() if lm.is_receptacle
        )
        landmark_table = world.landmark_table()
        rooms = list(world.rooms)
    tools = [
        ToolSpec(
            name="semantic_query",
            category="temporal_query",
            output_kind="retrieval",
            params=(
                ParamSpec("query", "str"),
                _R,
            ),
            description="Top-r past observations whose captions best match the query text.",
        ),
        ToolSpec(
            name="temporal_query",
            category="temporal_query",
            output_kind="retrieval",
            params=(
                _int64("timestep"),
                _int64("day_start"),
                _int64("day_end"),
                _R,
                ParamSpec("per", "str", required=False, enum=("record", "run")),
            ),
            description=(
                "Past observations around a timestep (point form) or within a day "
                "window (day_start/day_end), most recent first. In the window form, "
                'per "run" gives one hit per run of consecutive identical observations '
                '(its newest) instead of one per observation ("record", the default).'
            ),
        ),
        ToolSpec(
            name="spatial_query",
            category="temporal_query",
            output_kind="retrieval",
            params=(
                ParamSpec("x", "float"),
                ParamSpec("y", "float"),
                ParamSpec("radius", "float", minimum=0, exclusive_minimum=True),
                _R,
            ),
            description="Past observations taken within radius meters of (x, y).",
        ),
        ToolSpec(
            name="fetch_raw",
            category="temporal_query",
            output_kind="retrieval",
            params=(_int64("record_index", required=True),),
            description="Re-inspect one stored observation in full detail.",
        ),
        ToolSpec(
            name="navigate",
            category="navigation",
            output_kind="skill_result",
            params=(ParamSpec("landmark", "str", enum=landmark_ids),),
            description="Move to a landmark and focus on it.",
        ),
        ToolSpec(
            name="detect",
            category="perception",
            output_kind="perception",
            params=(),
            description="Run detection from the current pose.",
        ),
        ToolSpec(
            name="open",
            category="manipulation",
            output_kind="skill_result",
            params=(ParamSpec("receptacle", "str", enum=receptacle_ids),),
            description="Open the focused receptacle to expose its contents.",
        ),
        ToolSpec(
            name="pick",
            category="manipulation",
            output_kind="skill_result",
            params=(ParamSpec("entity", "str"),),
            description="Grasp a visible entity.",
        ),
    ]
    return ToolRegistry(tools, landmarks=landmark_table, rooms=rooms)


def record_views(memory: LongTermMemory, index: Sequence[int], score: Sequence[float]) -> Hits:
    """Compact policy-facing views of memory hits, caption level only: hit j
    is record index[j] with score[j]. One gather per memory column, no dict
    until a hit is read (core.Hits)."""
    index, score = np.asarray(index, dtype=np.intp), np.asarray(score)
    f = memory.fields(index)
    hits = _Views if score.dtype == np.float64 else Hits
    return hits(index.tolist(), score.tolist(), f["t"], f["day"], f["room"], f["x"], f["y"], f["caption"])


class _Views(Hits):
    """record_views' Hits of float scores, whose columns (numpy's tolist) have
    the types _hits_text writes unchecked; any other Hits is encoded whole."""

    __slots__ = ()


_HITS_PAYLOAD_KEYS = frozenset(("hits", "last_day", "last_t", "ticks_per_day", "total"))


def _text(value: Any) -> str:
    """canonical_dumps(value), by a cheaper path for a str, int or finite float."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if type(value) is int or type(value) is float and value - value == 0.0:
        return repr(value)
    return canonical_dumps(value)


def _hits_text(hits: Hits) -> str:
    """canonical_dumps(list(hits)) inside its brackets, from the columns. Hits
    of one run of records differ only in record_index, score and t, so
    caption, day, room, x and y texts are remade only when one changes or x
    or y is a zero (0.0 == -0.0, and their texts differ), or a caption or
    room is not a str (1 == 1.0 == True, and their texts differ)."""
    parts = []
    place = None
    for i, s, t, day, room, x, y, caption in zip(
            hits.record_index, hits.score, hits.t, hits.day, hits.room, hits.x, hits.y, hits.caption):
        if (caption, day, room, x, y) != place or not (x and y):
            place = (caption, day, room, x, y) if type(caption) is str and type(room) is str else None
            head = f'{{"caption":{_text(caption)},"day":{_text(day)},"record_index":'
            mid = f',"room":{_text(room)},"score":'
            tail = f',"x":{_text(x)},"y":{_text(y)}}}'
        # A finite float's canonical text is its repr; NaN and inf are not.
        score = repr(s) if s - s == 0.0 else canonical_dumps(s)
        parts.append(f'{head}{i}{mid}{score},"t":{t}{tail}')
    return ",".join(parts)


def outcome_json(outcome: Outcome) -> str:
    """canonical_dumps(outcome.to_dict()), byte for byte. A retrieval payload
    of the executor's key set has record_views' Hits written from their
    columns (see _hits_text); any other payload is encoded whole."""
    payload = outcome.payload
    if payload.keys() == _HITS_PAYLOAD_KEYS and type(payload["hits"]) is _Views:
        # The other keys sort after "hits"; splice their object's body in.
        rest = canonical_dumps({k: v for k, v in payload.items() if k != "hits"})
        return '{"kind":%s,"payload":{"hits":[%s],%s}' % (
            canonical_dumps(outcome.kind), _hits_text(payload["hits"]), rest[1:])
    return canonical_dumps(outcome.to_dict())


def _memory_meta(memory: LongTermMemory) -> dict:
    total, last_t, last_day = memory._set.last
    return {"total": total, "ticks_per_day": memory.ticks_per_day, "last_t": last_t, "last_day": last_day}


def _r(args: Mapping[str, Any]) -> int:
    return int(args.get("r", DEFAULT_TOP_R))


def _semantic(memory: LongTermMemory, embedder: Embedder, args: Mapping[str, Any]) -> QueryResult:
    return memory.query_semantic(args["query"], embedder, r=_r(args))


def _temporal(memory: LongTermMemory, embedder: Embedder, args: Mapping[str, Any]) -> QueryResult:
    per = args.get("per", "record")
    if "timestep" in args:
        return memory.query_temporal(t_center=int(args["timestep"]), r=_r(args), per=per)
    return memory.query_temporal(day_window=(int(args["day_start"]), int(args["day_end"])), r=_r(args), per=per)


def _spatial(memory: LongTermMemory, embedder: Embedder, args: Mapping[str, Any]) -> QueryResult:
    return memory.query_spatial((float(args["x"]), float(args["y"])), float(args["radius"]), r=_r(args))


def _fetch_raw(memory: LongTermMemory, embedder: Embedder, args: Mapping[str, Any]) -> SymbolicObservation:
    return memory.fetch_raw(int(args["record_index"]))


def _hits_payload(memory: LongTermMemory, args: Mapping[str, Any], result: QueryResult) -> dict:
    return {"hits": record_views(memory, result.index, result.score), **_memory_meta(memory)}


def _record_payload(memory: LongTermMemory, args: Mapping[str, Any], raw: SymbolicObservation) -> dict:
    """The record's hit view, read from the record set in Hits.KEYS order
    without a score, and its raw entities."""
    i, held = int(args["record_index"]), memory._set
    pose = held.poses[held.pose[i]]
    view = {"record_index": i, "t": int(held.t[i]), "day": int(held.day[i]), "room": pose.room_id,
            "x": pose.position[0], "y": pose.position[1], "caption": raw.caption,
            "entities": [e.to_dict() for e in raw.visible_entities]}
    return {**_memory_meta(memory), "record": view}


# Temporal tool -> (its one memory call, the payload built from the call's result).
_QUERIES: dict[str, tuple[Callable[..., Any], Callable[..., dict]]] = {
    "semantic_query": (_semantic, _hits_payload),
    "temporal_query": (_temporal, _hits_payload),
    "spatial_query": (_spatial, _hits_payload),
    "fetch_raw": (_fetch_raw, _record_payload),
}

# Skill tool -> (skill, outcome kind, its one argument or None).
_SKILLS = {
    "navigate": (navigate, "skill_result", "landmark"),
    "detect": (detect, "perception", None),
    "open": (open_receptacle, "skill_result", "receptacle"),
    "pick": (pick, "skill_result", "entity"),
}


def _error_outcome(exc: Exception) -> Outcome:
    """The one outcome shape of a temporal tool that could not run."""
    return Outcome(kind="retrieval", payload={"hits": [], "error": str(exc)})


class ActionExecutor:
    """Dispatches validated actions to memory queries or robot skills."""

    def __init__(self, memory: LongTermMemory, world: WorldState, schedule: Schedule, embedder: Embedder):
        self.memory = memory
        self.world = world
        self.schedule = schedule
        self.embedder = embedder

    def execute(self, action: Action) -> Outcome:
        """Run one schema-valid action; every such action gets an outcome.
        A temporal tool that cannot run (bad argument, an index out of range,
        an overflowing number, a failed embedding call) returns the error
        outcome. A tool the registry does not know raises KeyError."""
        args = action.args
        query = _QUERIES.get(action.tool)
        if query is None:
            skill, kind, name = _SKILLS[action.tool]
            skill_args = () if name is None else (args[name],)
            return Outcome(kind=kind, payload=skill(self.world, self.schedule, *skill_args).to_payload())
        call, build = query
        try:  # EmbeddingError is a ValueError, OverflowError an ArithmeticError
            payload = build(self.memory, args, call(self.memory, self.embedder, args))
        except (ValueError, LookupError, ArithmeticError, TransportError) as exc:
            return _error_outcome(exc)
        return Outcome(kind="retrieval", payload=payload)


__all__ = ["ActionExecutor", "R_MAX", "default_registry", "outcome_json", "record_views"]
