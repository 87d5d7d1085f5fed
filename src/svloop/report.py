"""Report emission: binned AR/DR/DA matrices, per-target medians, and
debug success-rate distributions split combinational vs sequential.

Reports embed the run configuration and tool version; identical inputs
yield byte-identical report files. The JSON is validated against the
shipped schema before it is written.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import __version__
from .errors import ReportError
from .metrics import bin_values
from .sim.coverage import SCALAR_NOTE


def _read_json(path: Path):
    try:
        return json.loads(path.read_text("utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ReportError(f"{path} is not valid JSON: {exc}") from exc


def _load_matrix_files(run_dir: Path) -> list[dict]:
    problems_dir = run_dir / "problems"
    if not problems_dir.is_dir():
        raise ReportError(f"{run_dir} does not look like a run directory (no problems/)")
    matrices = []
    for sub in sorted(problems_dir.iterdir()):
        matrix_file = sub / "matrix.json"
        if matrix_file.exists():
            matrices.append(_read_json(matrix_file))
    if not matrices:
        raise ReportError(f"no matrix artifacts under {problems_dir}")
    return matrices


def _cell_values(matrices: list[dict], metric: str) -> dict[str, list[Fraction]]:
    cells: dict[str, list[Fraction]] = {}
    for matrix in matrices:
        for key, cell in matrix["cells"].items():
            value = cell[metric]
            fraction = Fraction(value) if isinstance(value, int) else Fraction(*value)
            cells.setdefault(key, []).append(fraction)
    return cells


def _distribution_dict(values: list[Fraction]) -> dict:
    return bin_values(values).as_dict()


def build_report(run_dir) -> dict:
    run_dir = Path(run_dir)
    config_file = run_dir / "run_config.json"
    if not config_file.exists():
        raise ReportError(f"missing run_config.json in {run_dir}")
    config = _read_json(config_file)
    matrices = _load_matrix_files(run_dir)

    report_matrices = {}
    per_target: dict[str, dict[str, float]] = {}
    for metric in ("ar", "dr", "da"):
        cells = _cell_values(matrices, metric)
        report_matrices[metric] = {
            key: {
                "values": [float(v) for v in values],
                "distribution": _distribution_dict(values),
            }
            for key, values in sorted(cells.items())
        }
        by_target: dict[str, list[Fraction]] = {}
        for key, values in cells.items():
            target = key.split("->", 1)[1]
            by_target.setdefault(target, []).extend(values)
        per_target[metric] = {
            target: float(bin_values(values).median)
            for target, values in sorted(by_target.items())
        }

    debug_split = {"combinational": [], "sequential": []}
    for matrix in matrices:
        kind = matrix["kind"]
        for target, outcome in sorted(matrix.get("debug", {}).items()):
            if "skipped" in outcome:
                continue
            rate = Fraction(*outcome["best_pass"])
            debug_split[kind].append(
                {"problem": matrix["problem"], "target": target, "rate": rate}
            )
    debug_report = {}
    for kind, entries in debug_split.items():
        values = [e["rate"] for e in entries]
        debug_report[kind] = {
            "values": [
                {"problem": e["problem"], "target": e["target"], "rate": float(e["rate"])}
                for e in entries
            ],
            "distribution": _distribution_dict(values) if values else None,
        }

    report = {
        "tool": {"name": "svloop", "version": __version__, "scalar_coverage_note": SCALAR_NOTE},
        "config": config,
        "problems": [m["problem"] for m in matrices],
        "matrices": report_matrices,
        "per_target_medians": per_target,
        "debug": debug_report,
    }
    validate_report(report)
    return report


def validate_report(report: dict) -> None:
    import jsonschema  # here, so that only report validation pays for loading it

    schema = json.loads(
        resources.files("svloop.schema").joinpath("report.schema.json").read_text("utf-8")
    )
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        raise ReportError(f"report does not match schema: {exc.message}") from exc


def _scoreboard(report: dict) -> str:
    lines = []
    config = report["config"]
    lines.append("svloop evaluation scoreboard")
    lines.append(
        f"config: {config['strategy'].upper()}@{config['shots']} "
        f"provider={config['provider']} seed={config['seed']} "
        f"version={report['tool']['version']}"
    )
    lines.append(f"problems: {', '.join(report['problems'])}")
    lines.append("")
    for metric in ("ar", "dr", "da"):
        cells = report["matrices"][metric]
        if not cells:
            lines.append(f"{metric.upper()}: no evaluated cells")
            continue
        all_values = [v for cell in cells.values() for v in cell["values"]]
        mean = sum(all_values) / len(all_values)
        top_bin = sum(1 for cell in cells.values() if cell["distribution"]["median_bin"] == 5)
        lines.append(
            f"{metric.upper()}: {len(cells)} cells, mean {mean:.3f}, "
            f"{top_bin} cells with median in bin 5 (80-100%)"
        )
    lines.append("")
    for kind in ("combinational", "sequential"):
        entries = report["debug"][kind]["values"]
        if not entries:
            lines.append(f"debug ({kind}): no targets")
            continue
        solved = sum(1 for e in entries if e["rate"] == 1)
        mean = sum(e["rate"] for e in entries) / len(entries)
        lines.append(
            f"debug ({kind}): {solved}/{len(entries)} targets fully repaired, "
            f"mean final pass fraction {mean:.3f}"
        )
    lines.append("")
    lines.append(report["tool"]["scalar_coverage_note"])
    return "\n".join(lines) + "\n"


def write_report(run_dir, out_dir=None) -> Path:
    """Emit report.json and scoreboard.txt; returns the report directory."""
    run_dir = Path(run_dir)
    out = Path(out_dir) if out_dir else run_dir / "report"
    report = build_report(run_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    (out / "scoreboard.txt").write_text(_scoreboard(report), "utf-8")
    return out
