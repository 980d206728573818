"""Aligned-column rendering of suite reports."""

from __future__ import annotations

from ..agent import TERMINATION_ABORT, TERMINATION_BUDGET, TERMINATION_CRASH, TERMINATION_RETRIEVED
from .suite import SuiteReport

FAMILY_ABBREV = {
    "class": "C",
    "attribute": "A",
    "spatial": "S",
    "spatial_temporal": "ST",
    "spatial_frequentist": "SF",
    "commonsense": "CS",
}

METHOD_LABELS = {
    "random": "Random",
    "sg_s": "SG+S",
    "tr_s": "TR+S",
    "star": "STAR",
    "llm": "LLM",
}

_TYPE_FAMILIES = {
    "visible": ("class", "attribute", "spatial", "spatial_temporal", "spatial_frequentist"),
    "interactive": ("class", "attribute", "spatial", "spatial_temporal", "spatial_frequentist"),
    "commonsense": ("commonsense",),
}


def _fmt_rate(cell: dict | None) -> str:
    if cell is None or cell["n"] == 0:
        return "--"
    half = (cell["wilson_hi"] - cell["wilson_lo"]) / 2
    return f"{cell['rate']:.2f}±{half:.2f}"


def _render_table(header: list[str], rows: list[list[str]]) -> str:
    """Left-aligned columns, each as wide as its widest cell, two spaces apart."""
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in [header, *rows])


def render_success_table(report: SuiteReport, task_type: str) -> str:
    """One section: rows are (method, mode), columns are family abbreviations."""
    families = _TYPE_FAMILIES[task_type]
    header = ["Method", "Mode", *[FAMILY_ABBREV[f] for f in families]]
    rows: list[list[str]] = []
    seen: list[tuple[str, str]] = []
    for key in report.success_rates:
        t, _, method, mode = key.split("/")
        if t == task_type and (method, mode) not in seen:
            seen.append((method, mode))
    for method, mode in sorted(seen):
        row = [METHOD_LABELS.get(method, method), mode]
        for family in families:
            cell = report.success_rates.get("/".join([task_type, family, method, mode]))
            row.append(_fmt_rate(cell))
        rows.append(row)
    return _render_table(header, rows)


def render_action_table(report: SuiteReport, task_type: str) -> str:
    """Mean physical actions per successful run against the optimum, plus the
    share of spatial actions over all episodes (the action-mix distribution)."""
    header = ["Method", "Mode", "Percep.", "Nav.", "Manip.", "Total", "Ratio", "Spatial%"]
    rows: list[list[str]] = []
    for key in sorted(report.action_stats):
        t, method, mode = key.split("/")
        if t != task_type:
            continue
        stat = report.action_stats[key]
        share = f"{100 * stat['spatial_share']:.0f}%" if stat["spatial_share"] is not None else "--"
        counts = stat["mean_counts_successful"]
        if not counts:
            rows.append([METHOD_LABELS.get(method, method), mode, "--", "--", "--", "--", "--", share])
            continue
        rows.append(
            [
                METHOD_LABELS.get(method, method),
                mode,
                f"{counts['perception']:.2f}",
                f"{counts['navigation']:.2f}",
                f"{counts['manipulation']:.2f}",
                f"{counts['physical_total']:.2f}",
                f"{stat['ratio_to_optimal']:.2f}" if stat["ratio_to_optimal"] else "--",
                share,
            ]
        )
    return _render_table(header, rows)


TERMINATION_COLUMNS = (
    ("Retrieved", TERMINATION_RETRIEVED),
    ("Budget", TERMINATION_BUDGET),
    ("Abort", TERMINATION_ABORT),
    ("Crash", TERMINATION_CRASH),
)


def render_termination_table(report: SuiteReport) -> str:
    """How each (type, method, mode) group's episodes ended, and how many of
    them the adjudicator disagreed with."""
    groups: dict[tuple[str, str, str], dict[str, int]] = {}
    for ep in report.episodes:
        counts = groups.setdefault((ep["type"], ep["method"], ep["mode"]), {"mismatch": 0})
        counts[ep["termination"]] = counts.get(ep["termination"], 0) + 1
        counts["mismatch"] += bool(ep.get("adjudication_mismatch"))
    header = ["Type", "Method", "Mode", *(label for label, _ in TERMINATION_COLUMNS), "Mismatch"]
    rows = [
        [t, METHOD_LABELS.get(method, method), mode,
         *(str(counts.get(key, 0)) for _, key in TERMINATION_COLUMNS), str(counts["mismatch"])]
        for (t, method, mode), counts in sorted(groups.items())
    ]
    return _render_table(header, rows)


def render_report(report: SuiteReport) -> str:
    sections = []
    present_types = {key.split("/")[0] for key in report.success_rates}
    for task_type in ("visible", "interactive", "commonsense"):
        if task_type not in present_types:
            continue
        sections.append(f"== {task_type} object search: success rates ==")
        sections.append(render_success_table(report, task_type))
        sections.append("")
        sections.append(f"== {task_type} object search: physical actions per successful run ==")
        sections.append(render_action_table(report, task_type))
        sections.append("")
    if report.episodes:
        sections.append("== episode terminations ==")
        sections.append(render_termination_table(report))
    return "\n".join(sections).rstrip() + "\n"


__all__ = [
    "FAMILY_ABBREV",
    "METHOD_LABELS",
    "render_action_table",
    "render_report",
    "render_success_table",
    "render_termination_table",
]
