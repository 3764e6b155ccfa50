"""Rendered result tables (markdown, CSV or JSON).

Numbers are rounded here and only here: benefit scores to 3 decimals,
percentages to 1 decimal, peak delays to whole minutes. Raw result files
keep full precision.
"""

from __future__ import annotations

from lidscore.errors import ValidationError
from lidscore.hydrology import runoff_volume
from lidscore.lid import LidKind

PERCENT_INDICATORS = ("reduction",)


def _fmt_cell(indicator: str, value: float) -> str:
    if indicator == "peak_delay":
        return str(int(round(value)))
    if indicator.endswith(PERCENT_INDICATORS):
        return f"{value:.1f}"
    return f"{value:.3f}"


def _emit(writer, name: str, fmt: str, header, rows):
    if fmt == "csv":
        return writer.write_rows(header, rows, "tables", f"{name}.csv")
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return writer.write_json(payload, "tables", f"{name}.json")
    if fmt == "markdown":
        def line(cells):   # `|` escaped: a pollutant name may hold one
            return "| " + " | ".join(str(c).replace("|", "\\|") for c in cells) + " |"

        lines = [line(header), "|" + "---|" * len(header), *map(line, rows)]
        return writer.record("\n".join(lines) + "\n", "tables", f"{name}.md")
    raise ValidationError(f"unknown report format {fmt!r}")


def render_tables(writer, config, sizing, benefit_report,
                  simulated_table, normalized_table, fmt: str) -> list:
    """Write the human-facing summary tables; returns the emitted paths."""
    paths = []

    if sizing is not None:
        land_uses = [lu for sc in config.subcatchments.values() for lu in sc.land_uses]
        by_name: dict = {}
        for lu in land_uses:
            key = (lu.name, lu.runoff_coefficient)
            by_name[key] = by_name.get(key, 0.0) + lu.area_ha
        rows = [
            [name, f"{psi:.2f}", f"{area:.2f}",
             f"{runoff_volume(psi, sizing.target_depth_mm, area):.0f}"]
            for (name, psi), area in sorted(by_name.items())
        ]
        total_area = sum(a for a in by_name.values())
        rows.append(["total", f"{sizing.psi:.2f}", f"{total_area:.2f}",
                     f"{runoff_volume(sizing.psi, sizing.target_depth_mm, total_area):.0f}"])
        paths.append(_emit(writer, "land_use_runoff", fmt,
                           ["land_use", "runoff_coefficient", "area_ha",
                            f"runoff_m3_at_{sizing.target_depth_mm:g}mm"], rows))

        rows = [
            [name, f"{sizing.capacities_m3[name]:.0f}",
             f"{sizing.required_m3:.0f}",
             "yes" if compliant else "no"]
            for name, compliant in sizing.compliance.items()
        ]
        paths.append(_emit(writer, "capacity_compliance", fmt,
                           ["scenario", "capacity_m3", "required_m3", "compliant"],
                           rows))

    kinds = list(LidKind)
    rows = []
    for sc in config.scenarios:
        areas = sc.area_by_kind()
        rows.append([sc.name]
                    + [f"{areas.get(k, 0.0):.3f}" for k in kinds]
                    + [f"{sc.total_area_ha:.3f}"])
    # headers are emitted even for a scenario-less (baseline-only) run
    paths.append(_emit(writer, "scenario_areas", fmt,
                       ["scenario"] + [k.value + "_ha" for k in kinds]
                       + ["total_ha"], rows))

    rows = []

    def walk(node, depth):
        rows.append([("  " if fmt != "markdown" else "· ") * depth + node.name,
                     f"{node.weight:.3f}"])
        for child in node.children:
            walk(child, depth + 1)

    walk(config.tree.root, 0)
    paths.append(_emit(writer, "weights", fmt, ["indicator", "weight"], rows))

    if simulated_table is not None:
        rows = [
            [name] + [
                _fmt_cell(ind, simulated_table.values[i, j])
                for j, ind in enumerate(simulated_table.indicators)
            ]
            for i, name in enumerate(simulated_table.scenarios)
        ]
        paths.append(_emit(writer, "environmental_indicators", fmt,
                           ["scenario"] + list(simulated_table.indicators), rows))

    if normalized_table is not None:
        rows = [
            [name] + [f"{v:.3f}" for v in normalized_table.values[i, :]]
            for i, name in enumerate(normalized_table.scenarios)
        ]
        paths.append(_emit(writer, "normalized_indicators", fmt,
                           ["scenario"] + list(normalized_table.indicators), rows))

    if benefit_report is not None:
        root = config.tree.root
        top = [c.name for c in root.children] + [root.name]
        rows = []
        for name in benefit_report.scenarios:
            row = [name] + [f"{benefit_report.score(node, name):.3f}" for node in top]
            row.append(str(benefit_report.ranking.index(name) + 1))
            rows.append(row)
        paths.append(_emit(writer, "benefits", fmt,
                           ["scenario"] + top + ["rank"], rows))
    return paths
