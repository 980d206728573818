"""Ground-truth scene-graph snapshots of the world.

A snapshot is the world as it stands; the graph of day d is the snapshot of
the start world at the last tick of that day (``day_graphs``). Node ids are
the stable entity/landmark/room ids, so diffing two days yields exactly the
edges that changed. ``write_graphs`` exports graphs as an artifact file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .. import artifacts
from .world import LOC_INSIDE, LOC_LANDMARK, Schedule, WorldState


@dataclass(frozen=True)
class SceneGraph:
    day: int
    nodes: tuple[dict, ...]
    edges: tuple[tuple[str, str, str], ...]

    def to_dict(self) -> dict:
        return {
            "day": self.day,
            "nodes": [dict(n) for n in self.nodes],
            "edges": [list(e) for e in self.edges],
        }

    def node(self, node_id: str) -> dict | None:
        for n in self.nodes:
            if n["id"] == node_id:
                return dict(n)
        return None

    def edges_from(self, src: str) -> list[tuple[str, str, str]]:
        return [e for e in self.edges if e[0] == src]


def export_scene_graph(world: WorldState) -> SceneGraph:
    """Snapshot of the world as it stands, labelled with the world's day.

    For the graph of a past day, export a copy of the world at that day's
    last tick (``WorldState.at``); the world itself is not changed.
    """
    nodes: list[dict] = []
    edges: list[tuple[str, str, str]] = []
    for room in world.rooms.values():
        nodes.append({"id": room.room_id, "kind": "room"})
    for lm in world.landmarks.values():
        nodes.append(
            {
                "id": lm.landmark_id,
                "kind": "receptacle" if lm.is_receptacle else "landmark",
                "label": lm.name,
                "room": lm.room_id,
                "open": world.receptacle_open.get(lm.landmark_id, False) if lm.is_receptacle else None,
            }
        )
        edges.append((lm.landmark_id, "in_room", lm.room_id))
    for obj in world.objects.values():
        nodes.append(
            {
                "id": obj.entity_id,
                "kind": "object",
                "label": obj.class_label,
                "attributes": list(obj.attributes),
            }
        )
        loc = obj.location
        if loc.kind == LOC_LANDMARK:
            edges.append((obj.entity_id, "at", loc.ref))
        elif loc.kind == LOC_INSIDE:
            edges.append((obj.entity_id, "inside", loc.ref))
        else:
            edges.append((obj.entity_id, "held_by", "robot"))
    nodes.sort(key=lambda n: n["id"])
    edges.sort()
    return SceneGraph(day=world.day, nodes=tuple(nodes), edges=tuple(edges))


def day_graphs(start: WorldState, schedule: Schedule, days: int) -> list[SceneGraph]:
    """The graph of each of days days, from a copy of the start world at the
    day's last tick (WorldState.at, so a clock past it is a ValueError)."""
    tpd = start.ticks_per_day
    return [export_scene_graph(start.at(schedule, (d + 1) * tpd - 1)) for d in range(days)]


def write_graphs(path: str, graphs: Iterable[SceneGraph], meta: dict) -> None:
    """Write a scene-graph file v2, one to_dict a line; meta fields join its header."""
    artifacts.write(path, {**meta, "format": "scene-graphs", "version": 2}, (graph.to_dict() for graph in graphs))


__all__ = ["SceneGraph", "day_graphs", "export_scene_graph", "write_graphs"]
