"""Canned fixture suites exercising the qualitative behaviors the harness
asserts: unmoved targets, post-patrol moves, twin receptacles, and
never-observed objects."""

from __future__ import annotations

from ..homesim import SCENE_IDS
from .tasks import VISIBLE_FAMILIES, TaskSpec, _build_tasks

# Per kind: the task type, and the families its tasks cycle through in each
# scene.
_FIXTURES = {
    "unmoved_visible": ("visible", ("class", "attribute", "spatial")),
    "moved_spatial_temporal": ("visible", ("spatial_temporal",)),
    "twin_interactive": ("interactive", VISIBLE_FAMILIES),
    "commonsense": ("commonsense", ("commonsense",)),
}
FIXTURE_KINDS = tuple(_FIXTURES)


def build_fixture_suite(kind: str, n: int = 20, seed: int = 0) -> list[TaskSpec]:
    """Build one of the named fixture suites with n tasks. Of its kind's k
    (scene, family) combos, task i takes combo i % k at idx i // k; the tasks
    of a scene share one world."""
    if kind not in _FIXTURES:
        raise ValueError(f"unknown fixture kind {kind!r}; valid kinds: {FIXTURE_KINDS}")
    task_type, families = _FIXTURES[kind]
    combos = [(scene, family) for scene in SCENE_IDS for family in families]
    return _build_tasks([(*combos[i % len(combos)], task_type, i // len(combos)) for i in range(n)], seed)


__all__ = ["FIXTURE_KINDS", "build_fixture_suite"]
