"""Benchmark harness: task generation, fixtures, suite runner, reports."""

from .fixtures import FIXTURE_KINDS, build_fixture_suite
from .report import render_report, render_success_table
from .suite import (
    METHODS,
    MODES,
    SuiteConfig,
    SuiteReport,
    prepare_task,
    run_suite,
    run_task_episode,
    wilson_interval,
)
from .tasks import (
    GenerationError,
    SceneListError,
    TaskSpec,
    adjudicate,
    build_task,
    check_family_hazard,
    default_prior_table,
    generate_suite,
    optimal_counts,
    read_tasks,
    write_tasks,
)

__all__ = [
    "FIXTURE_KINDS",
    "GenerationError",
    "METHODS",
    "MODES",
    "SceneListError",
    "SuiteConfig",
    "SuiteReport",
    "TaskSpec",
    "adjudicate",
    "build_fixture_suite",
    "build_task",
    "check_family_hazard",
    "default_prior_table",
    "generate_suite",
    "optimal_counts",
    "prepare_task",
    "read_tasks",
    "render_report",
    "render_success_table",
    "run_suite",
    "run_task_episode",
    "wilson_interval",
    "write_tasks",
]
