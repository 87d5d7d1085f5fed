"""Report emission: binned AR/DR/DA matrices, per-target medians, and
debug success-rate distributions split combinational vs sequential.

Reports embed the run configuration and tool version; identical inputs
yield byte-identical report files. The JSON is checked against the
shipped schema before it is written, by a checker compiled from that
schema once per process.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import __version__
from .errors import ReportError, _read_json, _required_keys
from .metrics import bin_values
from .sim.coverage import SCALAR_NOTE

METRICS = ("ar", "dr", "da")
KINDS = ("combinational", "sequential")


class _Matrix(NamedTuple):
    problem: str
    kind: str
    cells: dict[str, dict[str, Fraction]]    # "SRC->TGT" -> metric -> value
    debug_rates: list[tuple[str, Fraction]]  # (target, best pass fraction), by target


def _ratio(value) -> Fraction:
    """A stored ratio: an integer or a [numerator, denominator] pair."""
    fraction = Fraction(value) if isinstance(value, int) else Fraction(*value)
    if not 0 <= fraction <= 1:
        raise ValueError(f"ratio {fraction} (outside [0, 1])")
    return fraction


def _load_matrix(matrix_file: Path) -> _Matrix:
    matrix = _read_json(matrix_file, ReportError)
    with _required_keys(matrix_file, ReportError):
        if matrix["kind"] not in KINDS:
            raise ReportError(f"{matrix_file} is malformed: kind {matrix['kind']!r} "
                              f"is not one of {KINDS}")
        cells = {key: {metric: _ratio(cell[metric]) for metric in METRICS}
                 for key, cell in matrix["cells"].items()}
        debug_rates = [(target, _ratio(outcome["best_pass"]))
                       for target, outcome in sorted(matrix.get("debug", {}).items())
                       if "skipped" not in outcome]
        return _Matrix(matrix["problem"], matrix["kind"], cells, debug_rates)


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


def _distribution_dict(values: list[Fraction]) -> dict:
    return bin_values(values).as_dict()


def build_report(run_dir) -> dict:
    run_dir = Path(run_dir)
    config_file = run_dir / "run_config.json"
    if not config_file.exists():
        raise ReportError(f"missing run_config.json in {run_dir}")
    config = _read_json(config_file, ReportError)
    if not isinstance(config, dict):
        raise ReportError(f"{config_file} is malformed: not a JSON object")
    matrices = _load_matrix_files(run_dir)

    report_matrices = {}
    per_target: dict[str, dict[str, float]] = {}
    for metric in METRICS:
        cells: dict[str, list[Fraction]] = {}
        for matrix in matrices:
            for key, cell in matrix.cells.items():
                cells.setdefault(key, []).append(cell[metric])
        report_matrices[metric] = {
            key: {
                "values": [float(v) for v in values],
                "distribution": _distribution_dict(values),
            }
            for key, values in sorted(cells.items())
        }
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
            "distribution": _distribution_dict([e[2] for e in entries]) if entries else None,
        }

    report = {
        "tool": {"name": "svloop", "version": __version__, "scalar_coverage_note": SCALAR_NOTE},
        "config": config,
        "problems": [m.problem for m in matrices],
        "matrices": report_matrices,
        "per_target_medians": per_target,
        "debug": debug_report,
    }
    validate_report(report)
    return report


def validate_report(report: dict) -> None:
    error = _report_checker()(report)
    if error is not None:
        path, message = error
        where = "".join(f"[{key!r}]" for key in reversed(path))
        raise ReportError(f"report does not match schema at report{where}: {message}")


# --- the schema checker -----------------------------------------------------------
#
# report.schema.json is the one definition of the report's contract. It is
# compiled once per process into closures that each return None for a valid
# value, or (path, message) with the path innermost key first. Only the
# draft-07 keywords the file uses are supported, with draft-07 semantics; any
# other keyword fails the build, so no part of the schema goes unchecked.

Check = Callable[[object], Optional[tuple[list, str]]]

SCHEMA_FILE = "report.schema.json"
DRAFT_07 = "http://json-schema.org/draft-07/schema#"
_KEYWORDS = {"$schema", "title", "$ref", "type", "enum", "required", "properties",
             "additionalProperties", "items", "minItems", "maxItems", "minimum", "maximum",
             "oneOf"}
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
    # a bool is not a number; an integral float is an integer
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}


@cache
def _report_checker() -> Check:
    schema = json.loads(resources.files("svloop.schema").joinpath(SCHEMA_FILE).read_text("utf-8"))
    if schema.get("$schema") != DRAFT_07:
        raise ReportError(f"{SCHEMA_FILE}: only {DRAFT_07} is supported")
    definitions = schema.pop("definitions", {})
    refs: dict[str, Check] = {}
    for name, sub in definitions.items():
        refs[name] = _compile(sub, definitions, refs)
    return _compile(schema, definitions, refs)


def _compile(schema, definitions: dict, refs: dict[str, Check]) -> Check:
    if schema is True:
        return lambda value: None
    if schema is False:
        return lambda value: ([], f"{value!r} is not allowed here")
    unknown = set(schema) - _KEYWORDS
    if unknown:
        raise ReportError(f"{SCHEMA_FILE}: unsupported keyword(s) {sorted(unknown)}")
    if "$ref" in schema:
        ref = schema["$ref"]
        name = ref.removeprefix("#/definitions/")
        if len(schema) > 1 or name == ref or name not in definitions:
            raise ReportError(f"{SCHEMA_FILE}: unsupported $ref {ref!r} or keywords beside it")
        return lambda value: refs[name](value)

    checks: list[Check] = []
    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not set(names) <= set(_TYPES):
            raise ReportError(f"{SCHEMA_FILE}: unsupported type in {names}")
        tests = [_TYPES[name] for name in names]
        test = tests[0] if len(tests) == 1 else lambda v: any(t(v) for t in tests)

        def check_type(value):
            if not test(value):
                return [], f"{value!r} is not of type {', '.join(map(repr, names))}"
        checks.append(check_type)
    if "enum" in schema:
        members = schema["enum"]
        if any(isinstance(m, (list, dict)) for m in members):
            raise ReportError(f"{SCHEMA_FILE}: enum members must be scalars")

        def check_enum(value):
            # a bool equals only itself, so True is not 1
            if not any(value is m if isinstance(value, bool) or isinstance(m, bool)
                       else value == m for m in members):
                return [], f"{value!r} is not one of {members!r}"
        checks.append(check_enum)
    if "required" in schema:
        required = schema["required"]

        def check_required(value):
            if isinstance(value, dict):
                for key in required:
                    if key not in value:
                        return [], f"{key!r} is a required property"
        checks.append(check_required)
    if "properties" in schema or "additionalProperties" in schema:
        properties = {key: _compile(sub, definitions, refs)
                      for key, sub in schema.get("properties", {}).items()}
        other = _compile(schema.get("additionalProperties", True), definitions, refs)

        def check_properties(value):
            if isinstance(value, dict):
                for key, item in value.items():
                    error = properties.get(key, other)(item)
                    if error is not None:
                        error[0].append(key)
                        return error
        checks.append(check_properties)
    if "items" in schema:
        if not isinstance(schema["items"], (dict, bool)):
            raise ReportError(f"{SCHEMA_FILE}: only a single schema is supported for items")
        item_check = _compile(schema["items"], definitions, refs)

        def check_items(value):
            if isinstance(value, list):
                for index, item in enumerate(value):
                    error = item_check(item)
                    if error is not None:
                        error[0].append(index)
                        return error
        checks.append(check_items)
    if "minItems" in schema or "maxItems" in schema:
        low, high = schema.get("minItems", 0), schema.get("maxItems", float("inf"))

        def check_length(value):
            if isinstance(value, list) and not low <= len(value) <= high:
                return [], f"array of {len(value)} items is not {low} to {high} long"
        checks.append(check_length)
    if "minimum" in schema or "maximum" in schema:
        low, high = schema.get("minimum", -float("inf")), schema.get("maximum", float("inf"))
        is_number = _TYPES["number"]

        def check_range(value):
            if is_number(value) and (value < low or value > high):
                return [], f"{value!r} is outside [{low}, {high}]"
        checks.append(check_range)
    if "oneOf" in schema:
        options = [_compile(sub, definitions, refs) for sub in schema["oneOf"]]

        def check_one_of(value):
            valid = sum(option(value) is None for option in options)
            if valid != 1:
                return [], f"{value!r} is valid under {valid} of the oneOf schemas, not exactly 1"
        checks.append(check_one_of)

    if len(checks) == 1:
        return checks[0]

    def check(value):
        for one in checks:
            error = one(value)
            if error is not None:
                return error
    return check


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
