"""Default unified action space and its executor.

Temporal tools run against long-term memory, spatial tools against the world.
The registry is the only thing policies see; executing an action is the only
way a policy touches memory or world state.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import Action, Outcome, ParamSpec, ToolRegistry, ToolSpec
from ..memstore import DEFAULT_TOP_R, LongTermMemory, QueryResult
from ..embed import Embedder, TransportError
from ..homesim import Schedule, WorldState, detect, navigate, open_receptacle, pick

TEMPORAL_TOOLS = ("semantic_query", "temporal_query", "spatial_query", "fetch_raw")
SPATIAL_TOOLS = ("navigate", "detect", "open", "pick")


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


def record_views(memory: LongTermMemory, hits: Sequence[tuple[int, float]]) -> list[dict]:
    """Compact policy-facing views of memory hits, caption level only: one
    gather per memory column, no MemoryRecord built."""
    f = memory.fields([i for i, _ in hits])
    return [
        {
            "record_index": i,
            "score": score,
            "t": t,
            "day": day,
            "room": room,
            "x": x,
            "y": y,
            "caption": raw.caption,
            "keyframe": raw.keyframe,
        }
        for (i, score), t, day, room, x, y, raw in zip(hits, f["t"], f["day"], f["room"], f["x"], f["y"], f["raw"])
    ]


def _memory_meta(memory: LongTermMemory) -> dict:
    n = len(memory)
    last = memory.timestep(n - 1) if n else None
    return {
        "total": n,
        "ticks_per_day": memory.ticks_per_day,
        "last_t": last.value if last else None,
        "last_day": last.day if last else None,
    }


def _retrieval_outcome(memory: LongTermMemory, result: QueryResult) -> Outcome:
    return Outcome(kind="retrieval", payload={"hits": record_views(memory, result.hits), **_memory_meta(memory)})


def _error_outcome(exc: Exception) -> Outcome:
    """The one outcome shape of a temporal tool that could not run."""
    return Outcome(kind="retrieval", payload={"hits": [], "error": str(exc)})


class ActionExecutor:
    """Dispatches validated actions to memory queries or robot skills."""

    def __init__(
        self,
        memory: LongTermMemory,
        world: WorldState,
        schedule: Schedule,
        embedder: Embedder,
        default_r: int = DEFAULT_TOP_R,
    ):
        self.memory = memory
        self.world = world
        self.schedule = schedule
        self.embedder = embedder
        self.default_r = default_r

    def execute(self, action: Action) -> Outcome:
        """Run one schema-valid action. Bad arguments to temporal tools come
        back as an error outcome; nothing here raises for them."""
        tool = action.tool
        args = action.args
        if tool == "semantic_query":
            r = int(args.get("r", self.default_r))
            try:
                result = self.memory.query_semantic(args["query"], self.embedder, r=r)
            except (ValueError, TransportError) as exc:  # EmbeddingError is a ValueError
                return _error_outcome(exc)
            return _retrieval_outcome(self.memory, result)
        if tool == "temporal_query":
            r = int(args.get("r", self.default_r))
            try:
                if "timestep" in args:
                    result = self.memory.query_temporal(t_center=int(args["timestep"]), r=r)
                else:
                    result = self.memory.query_temporal(
                        day_window=(int(args["day_start"]), int(args["day_end"])), r=r
                    )
            except ValueError as exc:
                return _error_outcome(exc)
            return _retrieval_outcome(self.memory, result)
        if tool == "spatial_query":
            r = int(args.get("r", self.default_r))
            try:
                result = self.memory.query_spatial(
                    (float(args["x"]), float(args["y"])), float(args["radius"]), r=r
                )
            except ValueError as exc:
                return _error_outcome(exc)
            return _retrieval_outcome(self.memory, result)
        if tool == "fetch_raw":
            idx = int(args["record_index"])
            try:
                raw = self.memory.fetch_raw(idx)
            except IndexError as exc:
                return _error_outcome(exc)
            f = self.memory.fields([idx])
            return Outcome(
                kind="retrieval",
                payload={
                    **_memory_meta(self.memory),
                    "record": {
                        "record_index": idx,
                        "t": f["t"][0],
                        "day": f["day"][0],
                        "room": f["room"][0],
                        "x": f["x"][0],
                        "y": f["y"][0],
                        "caption": raw.caption,
                        "keyframe": raw.keyframe,
                        "entities": [e.to_dict() for e in raw.visible_entities],
                    }
                },
            )
        if tool == "navigate":
            return Outcome(
                kind="skill_result",
                payload=navigate(self.world, self.schedule, args["landmark"]).to_payload(),
            )
        if tool == "detect":
            return Outcome(kind="perception", payload=detect(self.world, self.schedule).to_payload())
        if tool == "open":
            return Outcome(
                kind="skill_result",
                payload=open_receptacle(self.world, self.schedule, args["receptacle"]).to_payload(),
            )
        if tool == "pick":
            return Outcome(
                kind="skill_result",
                payload=pick(self.world, self.schedule, args["entity"]).to_payload(),
            )
        raise ValueError(f"unknown tool {tool!r}")


__all__ = ["ActionExecutor", "SPATIAL_TOOLS", "TEMPORAL_TOOLS", "default_registry", "record_views"]
