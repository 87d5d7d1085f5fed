import copy
import json
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import record_mock_script
from svloop import report as report_module
from svloop.errors import ReportError
from svloop.manifest import RunConfig, load_corpus
from svloop.matrix import evaluate_matrix
from svloop.report import build_report, validate_report, write_report


@pytest.fixture(scope="module")
def run_pair(corpus_dir, tmp_path_factory):
    base = tmp_path_factory.mktemp("report")
    problems = load_corpus(corpus_dir)
    script = base / "script"
    record_mock_script(problems, script, base / "scratch")
    config = RunConfig(provider="mock", script_dir=str(script), seed=1)
    dirs = []
    for name in ("r1", "r2"):
        out = base / name
        evaluate_matrix(problems, config, out)
        dirs.append(out)
    return dirs


def test_report_structure(run_pair):
    report = build_report(run_pair[0])
    assert set(report["matrices"]) == {"ar", "dr", "da"}
    some_cell = next(iter(report["matrices"]["dr"].values()))
    assert sum(some_cell["distribution"]["counts"]) == len(some_cell["values"])
    assert set(report["per_target_medians"]["dr"]) >= {"BC03", "BC04", "BC05"}
    assert report["debug"]["combinational"]["values"]
    assert report["debug"]["sequential"]["values"]
    for entry in report["debug"]["sequential"]["values"]:
        assert 0 <= entry["rate"] <= 1


def test_debug_split_follows_manifest_kind(run_pair, corpus_dir):
    report = build_report(run_pair[0])
    kinds = {p.id: p.manifest.kind for p in load_corpus(corpus_dir)}
    for kind in ("combinational", "sequential"):
        for entry in report["debug"][kind]["values"]:
            assert kinds[entry["problem"]] == kind


def test_reports_from_identical_inputs_are_byte_identical(run_pair):
    out_a = write_report(run_pair[0])
    out_b = write_report(run_pair[1])
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "scoreboard.txt").read_bytes() == (out_b / "scoreboard.txt").read_bytes()


def test_report_validates_against_shipped_schema(run_pair):
    report = build_report(run_pair[0])
    validate_report(report)  # no exception
    broken = json.loads(json.dumps(report))
    broken["matrices"]["dr"]["BC01->BC01"] = {"values": [2.0], "distribution": None}
    with pytest.raises(ReportError):
        validate_report(broken)


def test_missing_artifacts(tmp_path):
    with pytest.raises(ReportError):
        build_report(tmp_path)


def test_config_flags_recorded_in_report_header(corpus_dir, tmp_path):
    problems = [p for p in load_corpus(corpus_dir) if p.id == "full_adder"]
    script = tmp_path / "script"
    config = RunConfig(strategy="nlsc", shots=5, provider="mock",
                       script_dir=str(script), seed=3)
    record_mock_script(problems, script, tmp_path / "scratch", config=config)
    out = tmp_path / "run"
    evaluate_matrix(problems, config, out)
    report = build_report(out)
    assert report["config"]["strategy"] == "nlsc"
    assert report["config"]["shots"] == 5
    assert report["config"]["seed"] == 3
    assert report["tool"]["version"]


def test_jobs_parallel_run_matches_serial(run_pair, corpus_dir, tmp_path):
    problems = load_corpus(corpus_dir)
    script = run_pair[0] / ".." / "script"
    config = RunConfig(provider="mock", script_dir=str(script.resolve()), seed=1, jobs=2)
    parallel = tmp_path / "parallel"
    evaluate_matrix(problems, config, parallel)
    serial_report = build_report(run_pair[0])
    parallel_report = build_report(parallel)
    assert serial_report["matrices"] == parallel_report["matrices"]
    assert serial_report["debug"] == parallel_report["debug"]


# --- the compiled schema checker against jsonschema, the reference ----------------

SCHEMA = json.loads(
    resources.files("svloop.schema").joinpath("report.schema.json").read_text("utf-8"))
REFERENCE = jsonschema.Draft7Validator(SCHEMA)


def accepts(document) -> bool:
    compiled = report_module._report_checker()(document) is None
    assert compiled == REFERENCE.is_valid(document), document
    return compiled


def trimmed(report, n):
    """``report`` with each of its maps and debug value lists cut to their
    first ``n`` entries, so that a mutated copy validates quickly."""
    report = copy.deepcopy(report)
    for group in ("matrices", "per_target_medians"):
        for metric, entries in report[group].items():
            report[group][metric] = dict(list(entries.items())[:n])
    for split in report["debug"].values():
        split["values"] = split["values"][:n]
    return report


@pytest.fixture(scope="module")
def small_report(run_pair):
    return trimmed(build_report(run_pair[0]), 3)


REPLACEMENTS = ["x", "", "nls", 0, 1, 5, -1, 6, 2, 0.0, 1.0, 5.0, 0.5, -0.5, 1.5, 1e300,
                True, False, None, [], [0, 0, 0, 0, 0], [1, 2, 3, 4, 5, 6], {}, {"x": 1}]


def test_compiled_checker_accepts_the_desk_report(run_pair):
    assert accepts(build_report(run_pair[0]))
    assert not any(accepts(value) for value in REPLACEMENTS)


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# what each mutation applies to: (the node's parent, the node)
MUTATIONS = {
    "replace": lambda parent, value: True,                  # a wrong type, among others
    "bool": lambda parent, value: is_number(value),         # a bool for a number
    "float": lambda parent, value: is_number(value),        # a float for an integer
    "nudge": lambda parent, value: is_number(value),        # a number out of range
    "delete": lambda parent, value: isinstance(parent, dict),             # a missing key
    "add": lambda parent, value: isinstance(value, dict),                 # an extra key
    "grow": lambda parent, value: isinstance(value, list),                # a longer list
    "shrink": lambda parent, value: isinstance(value, list) and value,    # a shorter list
}


def nodes(node):
    """(parent, key) of every node below ``node``."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from nodes(child)


def mutate(document, data):
    """One mutation, of a drawn kind, at a drawn node it applies to."""
    kind = data.draw(st.sampled_from(sorted(MUTATIONS)))
    applies = MUTATIONS[kind]
    parent, key = data.draw(st.sampled_from(
        [(parent, key) for parent, key in nodes(document) if applies(parent, parent[key])]))
    value = parent[key]
    if kind == "replace":
        parent[key] = data.draw(st.sampled_from(REPLACEMENTS))
    elif kind == "bool":
        parent[key] = bool(value)
    elif kind == "float":
        parent[key] = float(value)
    elif kind == "nudge":
        parent[key] = value + data.draw(st.sampled_from([-1, -0.5, 0.5, 1]))
    elif kind == "delete":
        del parent[key]
    elif kind == "add":
        name = data.draw(st.sampled_from(["x", "values", "median", "rate", "shots"]))
        value[name] = data.draw(st.sampled_from(REPLACEMENTS))
    elif kind == "grow":
        value.append(copy.deepcopy(value[-1]) if value else 0)
    else:
        value.pop()


def test_compiled_checker_agrees_on_every_single_replacement(small_report):
    tiny = trimmed(small_report, 1)
    for parent, key in list(nodes(tiny)):
        value = parent[key]
        for replacement in REPLACEMENTS:
            parent[key] = replacement
            accepts(tiny)
        parent[key] = value


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_compiled_checker_agrees_with_jsonschema(small_report, data):
    document = copy.deepcopy(small_report)
    for _ in range(data.draw(st.integers(1, 3))):
        mutate(document, data)
    if accepts(document):
        validate_report(document)
    else:
        with pytest.raises(ReportError, match="report does not match schema at report"):
            validate_report(document)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^x"},
    {"type": "decimal"},
    {"$ref": "#/definitions/distribution", "type": "object"},
    {"$ref": "#/definitions/nowhere"},
    {"items": [{"type": "string"}]},
    {"enum": [[1], "x"]},
])
def test_checker_build_fails_on_unsupported_schema(schema):
    with pytest.raises(ReportError, match="report.schema.json"):
        report_module._compile(schema, SCHEMA["definitions"], {})
