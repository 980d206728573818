"""Default unified action space and its executor.

Temporal tools run against long-term memory, spatial tools against the world.
The registry is the only thing policies see; executing an action is the only
way a policy touches memory or world state.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from ..core import Action, Outcome, ParamSpec, SymbolicObservation, ToolRegistry, ToolSpec, canonical_dumps
from ..memstore import DEFAULT_TOP_R, LongTermMemory, QueryResult
from ..embed import Embedder, TransportError
from ..homesim import Schedule, WorldState, detect, navigate, open_receptacle, pick

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
                ParamSpec("r", "int", required=False),
            ),
            description="Top-r past observations whose captions best match the query text.",
        ),
        ToolSpec(
            name="temporal_query",
            category="temporal_query",
            output_kind="retrieval",
            params=(
                ParamSpec("timestep", "int", required=False),
                ParamSpec("day_start", "int", required=False),
                ParamSpec("day_end", "int", required=False),
                ParamSpec("r", "int", required=False),
            ),
            description=(
                "Past observations around a timestep (point form) or within a day "
                "window (day_start/day_end), most recent first."
            ),
        ),
        ToolSpec(
            name="spatial_query",
            category="temporal_query",
            output_kind="retrieval",
            params=(
                ParamSpec("x", "float"),
                ParamSpec("y", "float"),
                ParamSpec("radius", "float"),
                ParamSpec("r", "int", required=False),
            ),
            description="Past observations taken within radius meters of (x, y).",
        ),
        ToolSpec(
            name="fetch_raw",
            category="temporal_query",
            output_kind="retrieval",
            params=(ParamSpec("record_index", "int"),),
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


def record_views(memory: LongTermMemory, index: Sequence[int], score: Sequence[float]) -> list[dict]:
    """Compact policy-facing views of memory hits, caption level only: hit j
    is record index[j] with score[j]. One gather per memory column, no
    MemoryRecord built. A record is a keyframe when its index is a multiple
    of the memory's snapshot_every."""
    index = np.asarray(index, dtype=np.intp)
    f = memory.fields(index)
    keyframe = (index % memory.snapshot_every == 0).tolist()
    return [
        {
            "record_index": i,
            "score": s,
            "t": t,
            "day": day,
            "room": room,
            "x": x,
            "y": y,
            "caption": raw.caption,
            "keyframe": key,
        }
        for i, s, t, day, room, x, y, raw, key in zip(
            index.tolist(), np.asarray(score).tolist(), f["t"], f["day"], f["room"], f["x"], f["y"], f["raw"], keyframe)
    ]


_HITS_PAYLOAD_KEYS = frozenset(("hits", "last_day", "last_t", "ticks_per_day", "total"))


def _remember(memo: dict, value: Any) -> str:
    """canonical_dumps(value), kept in memo under value. Zeros are not kept:
    0.0 == -0.0 and both hash alike, so one sign's key would answer for the
    other's."""
    text = canonical_dumps(value)
    if type(value) is str or value:
        memo[value] = text
    return text


def _hits_json(hits: list, memo: dict) -> Optional[str]:
    """The canonical text of a list of record_views hits, inner to its
    brackets, or None when a hit has another key set or field type. Caption,
    room, x and y texts come from memo; only str and float values are looked
    up there, so a key never answers for an equal value of another type."""
    get = memo.get
    parts = []
    for h in hits:
        if type(h) is not dict or len(h) != 9:
            return None
        try:
            caption, room, x, y = h["caption"], h["room"], h["x"], h["y"]
            day, t, i, score, key = h["day"], h["t"], h["record_index"], h["score"], h["keyframe"]
        except KeyError:
            return None
        if (type(caption) is not str or type(room) is not str or type(x) is not float
                or type(y) is not float or type(score) is not float or type(day) is not int
                or type(t) is not int or type(i) is not int or type(key) is not bool):
            return None
        caption = get(caption) or _remember(memo, caption)
        room = get(room) or _remember(memo, room)
        x = get(x) or _remember(memo, x)
        y = get(y) or _remember(memo, y)
        # A finite float's canonical text is its repr; NaN and inf are not.
        score = repr(score) if score - score == 0.0 else canonical_dumps(score)
        key = "true" if key else "false"
        # The keys in sorted order. An f-string: a 9-field %-format costs
        # about half as much again.
        parts.append(f'{{"caption":{caption},"day":{day},"keyframe":{key},"record_index":{i},'
                     f'"room":{room},"score":{score},"t":{t},"x":{x},"y":{y}}}')
    return ",".join(parts)


def outcome_json(outcome: Outcome, memo: dict) -> str:
    """canonical_dumps(outcome.to_dict()), byte for byte. A retrieval payload
    of the executor's key set has its hits written by one format, with the
    texts of their captions, rooms and positions memoized by value in memo;
    any other payload is encoded whole. memo is a dict the caller owns: one
    per run of related outcomes, so that it stays small and is freed with
    them."""
    payload = outcome.payload
    if payload.keys() == _HITS_PAYLOAD_KEYS and type(payload["hits"]) is list:
        hits = _hits_json(payload["hits"], memo)
        if hits is not None:
            # The other keys sort after "hits"; splice their object's body in.
            rest = canonical_dumps({k: v for k, v in payload.items() if k != "hits"})
            return '{"kind":%s,"payload":{"hits":[%s],%s}' % (canonical_dumps(outcome.kind), hits, rest[1:])
    return canonical_dumps(outcome.to_dict())


def _memory_meta(memory: LongTermMemory) -> dict:
    n = len(memory)
    last = memory.timestep(n - 1) if n else None
    return {
        "total": n,
        "ticks_per_day": memory.ticks_per_day,
        "last_t": last.value if last else None,
        "last_day": last.day if last else None,
    }


def _r(args: Mapping[str, Any]) -> int:
    return int(args.get("r", DEFAULT_TOP_R))


def _semantic(memory: LongTermMemory, embedder: Embedder, args: Mapping[str, Any]) -> QueryResult:
    return memory.query_semantic(args["query"], embedder, r=_r(args))


def _temporal(memory: LongTermMemory, embedder: Embedder, args: Mapping[str, Any]) -> QueryResult:
    if "timestep" in args:
        return memory.query_temporal(t_center=int(args["timestep"]), r=_r(args))
    return memory.query_temporal(day_window=(int(args["day_start"]), int(args["day_end"])), r=_r(args))


def _spatial(memory: LongTermMemory, embedder: Embedder, args: Mapping[str, Any]) -> QueryResult:
    return memory.query_spatial((float(args["x"]), float(args["y"])), float(args["radius"]), r=_r(args))


def _fetch_raw(memory: LongTermMemory, embedder: Embedder, args: Mapping[str, Any]) -> SymbolicObservation:
    return memory.fetch_raw(int(args["record_index"]))


def _hits_payload(memory: LongTermMemory, args: Mapping[str, Any], result: QueryResult) -> dict:
    return {"hits": record_views(memory, result.index, result.score), **_memory_meta(memory)}


def _record_payload(memory: LongTermMemory, args: Mapping[str, Any], raw: SymbolicObservation) -> dict:
    """The record's hit view, without a score and with its raw entities."""
    [view] = record_views(memory, [int(args["record_index"])], [0.0])
    del view["score"]
    view["entities"] = [e.to_dict() for e in raw.visible_entities]
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


__all__ = ["ActionExecutor", "default_registry", "outcome_json", "record_views"]
