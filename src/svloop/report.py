"""Report emission: binned AR/DR/DA matrices, per-target medians, and
debug success-rate distributions split combinational vs sequential.

Reports embed the run configuration and tool version; identical inputs
yield byte-identical report files. Each input is checked where it is
read: the matrix files as they are loaded, and the configuration, the
one part copied into the report as it is, against the shipped schema's
``config`` entry.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .errors import ReportError, _mkdir, _read_json, _required_keys, _write_bytes, _write_json
from .metrics import bin_values, stored_ratio
from .sim.coverage import SCALAR_NOTE

METRICS = ("ar", "dr", "da")
KINDS = ("combinational", "sequential")


class _Matrix(NamedTuple):
    problem: str
    kind: str
    cells: dict[str, dict[str, Fraction]]    # "SRC->TGT" -> metric -> value
    debug_rates: list[tuple[str, Fraction]]  # (target, best pass fraction), by target


def _of_type(kind: type, value, what: str):
    if not isinstance(value, kind):
        raise TypeError(f"{what} {value!r} (not a JSON {'object' if kind is dict else 'string'})")
    return value


def _load_matrix(matrix_file: Path) -> _Matrix:
    matrix = _read_json(matrix_file, ReportError)
    with _required_keys(matrix_file, ReportError):
        if matrix["kind"] not in KINDS:
            raise ReportError(f"{matrix_file} is malformed: kind {matrix['kind']!r} "
                              f"is not one of {KINDS}")
        cells = {key: {metric: stored_ratio(cell[metric], metric) for metric in METRICS}
                 for key, cell in matrix["cells"].items()}
        debug_rates = [(target, stored_ratio(outcome["best_pass"], "best_pass"))
                       for target, outcome in sorted(matrix.get("debug", {}).items())
                       if "skipped" not in _of_type(dict, outcome, f"debug outcome {target!r}")]
        return _Matrix(_of_type(str, matrix["problem"], "problem"), matrix["kind"], cells,
                       debug_rates)


def _load_matrix_files(run_dir: Path) -> list[_Matrix]:
    problems_dir = run_dir / "problems"
    if not problems_dir.is_dir():
        raise ReportError(f"{run_dir} does not look like a run directory (no problems/)")
    matrices = []
    for sub in sorted(problems_dir.iterdir()):
        matrix_file = sub / "matrix.json"
        if matrix_file.exists():
            matrices.append(_load_matrix(matrix_file))
    if not matrices:
        raise ReportError(f"no matrix artifacts under {problems_dir}")
    return matrices


def build_report(run_dir) -> dict:
    run_dir = Path(run_dir)
    config_file = run_dir / "run_config.json"
    if not config_file.exists():
        raise ReportError(f"missing run_config.json in {run_dir}")
    config = _read_json(config_file, ReportError)
    matrices = _load_matrix_files(run_dir)

    report_matrices = {}
    per_target: dict[str, dict[str, float]] = {}
    for metric in METRICS:
        cells: dict[str, list[Fraction]] = {}
        for matrix in matrices:
            for key, cell in matrix.cells.items():
                cells.setdefault(key, []).append(cell[metric])
        report_matrices[metric] = {
            key: {"values": [float(v) for v in values],
                  "distribution": bin_values(values).as_dict()}
            for key, values in sorted(cells.items())}
        by_target: dict[str, list[Fraction]] = {}
        for key, values in cells.items():
            target = key.partition("->")[2]
            by_target.setdefault(target, []).extend(values)
        per_target[metric] = {
            target: float(bin_values(values).median)
            for target, values in sorted(by_target.items())
        }

    debug_report = {}
    for kind in KINDS:
        entries = [(m.problem, target, rate)
                   for m in matrices if m.kind == kind for target, rate in m.debug_rates]
        debug_report[kind] = {
            "values": [
                {"problem": problem, "target": target, "rate": float(rate)}
                for problem, target, rate in entries
            ],
            "distribution": bin_values([e[2] for e in entries]).as_dict() if entries else None,
        }

    report = {
        "tool": {"name": "svloop", "version": __version__, "scalar_coverage_note": SCALAR_NOTE},
        "config": config,
        "problems": [m.problem for m in matrices],
        "matrices": report_matrices,
        "per_target_medians": per_target,
        "debug": debug_report,
    }
    validate_report(report, config_file)
    return report


SCHEMA_FILE = "report.schema.json"
_TYPES = {
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    # draft-07: a bool is not an integer; an integral float is
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
_RULES = {
    "type": lambda v, names: any(_TYPES[name](v) for name in _names(names)),
    # a bool equals only itself, so True is not 1
    "enum": lambda v, members: any(v is m if isinstance(v, bool) or isinstance(m, bool)
                                   else v == m for m in members),
    # a minimum bounds numbers only, and a bool is not a number
    "minimum": lambda v, low: (not isinstance(v, (int, float)) or isinstance(v, bool)
                               or v >= low),
}


def _names(names) -> list:
    return [names] if isinstance(names, str) else names


@cache
def _config_entry() -> dict:
    schema = json.loads(resources.files("svloop.schema").joinpath(SCHEMA_FILE).read_text("utf-8"))
    return schema["properties"]["config"]


def validate_report(report: dict, source="report['config']", error=ReportError) -> None:
    """Check ``report["config"]``, read from ``source``, against the
    schema's ``config`` entry, raising ``error`` naming ``source`` and the
    field; an entry with a rule this does not apply is a ReportError, so
    that no rule goes unchecked."""
    config, entry = report["config"], _config_entry()
    fields = entry["properties"]
    unchecked = [name for name, rules in fields.items() if rules.keys() - _RULES.keys()
                 or set(_names(rules.get("type", []))) - _TYPES.keys()]
    if (entry.keys() != {"type", "required", "properties", "additionalProperties"}
            or entry["type"] != "object" or entry["additionalProperties"] is not False
            or unchecked):
        raise ReportError(f"{SCHEMA_FILE}: the config entry holds a rule that is not checked")
    if not isinstance(config, dict):
        raise error(f"{source} is malformed: not a JSON object")
    missing = [f"missing field {name!r}" for name in entry["required"] if name not in config]
    unknown = [f"unknown field {name!r}" for name in config if name not in fields]
    if missing or unknown:
        raise error(f"{source} is malformed: {(missing + unknown)[0]}")
    for name, value in config.items():
        for keyword, rule in fields[name].items():
            if not _RULES[keyword](value, rule):
                raise error(f"{source} is malformed: field {name!r} is {value!r}, "
                            f"which fails \"{keyword}\": {json.dumps(rule)}")


def _scoreboard(report: dict) -> str:
    config = report["config"]
    lines = [
        "svloop evaluation scoreboard",
        f"config: {config['strategy'].upper()}@{config['shots']} "
        f"provider={config['provider']} seed={config['seed']} "
        f"version={report['tool']['version']}",
        f"problems: {', '.join(report['problems'])}",
        "",
    ]
    for metric in METRICS:
        cells = report["matrices"][metric]
        if not cells:
            lines.append(f"{metric.upper()}: no evaluated cells")
            continue
        all_values = [v for cell in cells.values() for v in cell["values"]]
        mean = sum(all_values) / len(all_values)
        top_bin = sum(1 for cell in cells.values() if cell["distribution"]["median_bin"] == 5)
        lines.append(f"{metric.upper()}: {len(cells)} cells, mean {mean:.3f}, "
                     f"{top_bin} cells with median in bin 5 (80-100%)")
    lines.append("")
    for kind in KINDS:
        entries = report["debug"][kind]["values"]
        if not entries:
            lines.append(f"debug ({kind}): no targets")
            continue
        solved = sum(1 for e in entries if e["rate"] == 1)
        mean = sum(e["rate"] for e in entries) / len(entries)
        lines.append(f"debug ({kind}): {solved}/{len(entries)} targets fully repaired, "
                     f"mean final pass fraction {mean:.3f}")
    lines += ["", report["tool"]["scalar_coverage_note"]]
    return "\n".join(lines) + "\n"


def write_report(run_dir, out_dir=None) -> Path:
    """Emit report.json and scoreboard.txt; returns the report directory."""
    run_dir = Path(run_dir)
    out = Path(out_dir) if out_dir else run_dir / "report"
    report = build_report(run_dir)
    _mkdir(out, parents=True)
    _write_json(out / "report.json", report)
    _write_bytes(out / "scoreboard.txt", _scoreboard(report).encode())
    return out
