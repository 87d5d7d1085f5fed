import copy
import json
import shutil
from dataclasses import fields
from functools import cache

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import REPORT_SCHEMA, record_mock_script
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
    kinds = {p.id: p.kind for p in load_corpus(corpus_dir)}
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
    REPORT_SCHEMA.validate(report)  # no exception
    broken = json.loads(json.dumps(report))
    broken["matrices"]["dr"]["BC01->BC01"] = {"values": [2.0], "distribution": None}
    assert not REPORT_SCHEMA.is_valid(broken)


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


# --- the config check and the matrix checks against jsonschema, the reference -------
#
# At run time only the config, which the report copies from run_config.json,
# is checked against the schema; every other part of the report is built from
# data checked as it was read. jsonschema checks that the two together keep
# every report inside the whole schema.

SCHEMA = REPORT_SCHEMA.schema
CONFIG_REFERENCE = jsonschema.Draft7Validator(SCHEMA["properties"]["config"])
CONFIG = RunConfig(provider="mock", script_dir="script", seed=1).as_dict()
SOURCE = "run/run_config.json"

REPLACEMENTS = ["x", "", "nls", 0, 1, 5, -1, 6, 2, 0.0, 1.0, 5.0, 0.5, -0.5, 1.5, 1e300,
                True, False, None, [], [0, 0, 0, 0, 0], [1, 2, 3, 4, 5, 6], {}, {"x": 1}]


def config_accepted(config, field=None) -> bool:
    """Whether ``validate_report`` accepts ``config``, asserting that
    jsonschema agrees and that a refusal names the file and ``field``."""
    try:
        validate_report({"config": config}, SOURCE)
        accepted = True
    except ReportError as error:
        assert str(error).startswith(f"{SOURCE} is malformed: ")
        assert field is None or f" field {field!r}" in str(error), error
        accepted = False
    assert accepted == CONFIG_REFERENCE.is_valid(config), config
    return accepted


def test_config_check_agrees_on_every_single_field_change():
    assert config_accepted(CONFIG)
    accepted = []
    for name in SCHEMA["properties"]["config"]["properties"]:
        for replacement in REPLACEMENTS:
            if config_accepted({**CONFIG, name: replacement}, name):
                accepted.append(f"{name}={replacement!r}")
        config_accepted({key: value for key, value in CONFIG.items() if key != name}, name)
    assert not config_accepted({**CONFIG, "x": 1}, "x")
    # the enum's 0.0 equals 0, an integral float is an integer, a bool is neither
    assert {"shots=0.0", "seed=1e+300"} <= set(accepted)
    assert not {"shots=False", "seed=True"} & set(accepted)


@given(changes=st.dictionaries(
    st.sampled_from(sorted(SCHEMA["properties"]["config"]["properties"]) + ["x"]),
    st.one_of(st.just("delete"), st.sampled_from(REPLACEMENTS)), min_size=2, max_size=5))
def test_config_check_agrees_on_several_field_changes(changes):
    config = dict(CONFIG)
    for name, value in changes.items():
        if value == "delete":
            config.pop(name, None)
        else:
            config[name] = value
    config_accepted(config)


# RunConfig checks itself against the same entry when it is built, so a
# configuration that report would refuse never starts a run.

RUN_ARGS = {"provider": "mock", "script_dir": "script", "seed": 1}
CONFIG_FIELDS = SCHEMA["properties"]["config"]["properties"]


@pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
def test_run_config_refuses_exactly_what_the_schema_refuses(name):
    assert RunConfig(**RUN_ARGS).as_dict().keys() == CONFIG_FIELDS.keys()
    for replacement in REPLACEMENTS:
        valid = CONFIG_REFERENCE.is_valid({**CONFIG, name: replacement})
        try:
            RunConfig(**{**RUN_ARGS, name: replacement})
        except ValueError as error:
            assert not valid, (name, replacement)
            assert str(error).startswith(
                f"run configuration is malformed: field {name!r} is {replacement!r}, "), error
        else:
            assert valid, (name, replacement)


@pytest.mark.parametrize("name, value", [
    ("iteration_cap", 0), ("mismatch_limit", 0), ("jobs", 0), ("seed", "x"),
    ("strategy", "nlsx"), ("shots", 3),
])
def test_run_config_that_report_would_refuse_is_refused_when_built(name, value):
    with pytest.raises(ValueError, match=f"^run configuration is malformed: field {name!r} is "):
        RunConfig(**{**RUN_ARGS, name: value})


def test_run_config_takes_integers_as_draft_07_does():
    assert RunConfig(seed=1.0).seed == 1.0
    with pytest.raises(ValueError, match="field 'seed' is True"):
        RunConfig(seed=True)


def test_run_config_keeps_an_integral_float_as_an_int():
    floats = {"shots": 5.0, "seed": 3.0, "iteration_cap": 2.0, "mismatch_limit": 4.0,
              "jobs": 2.0}
    config = RunConfig(**{**RUN_ARGS, "strategy": "nls", **floats})
    assert config == RunConfig(**{**RUN_ARGS, "strategy": "nls",
                                  **{name: int(value) for name, value in floats.items()}})
    assert all(type(config.as_dict()[name]) is int for name in floats)
    assert RunConfig(iteration_cap=2.0) == RunConfig(iteration_cap=2)


@pytest.mark.parametrize("change", [
    {"additionalProperties": True},
    {"minProperties": 1},
    {"properties": {**SCHEMA["properties"]["config"]["properties"],
                    "strategy": {"type": "string", "pattern": "^n"}}},
    {"properties": {**SCHEMA["properties"]["config"]["properties"],
                    "seed": {"type": "number"}}},
])
def test_config_check_refuses_a_rule_it_does_not_apply(monkeypatch, change):
    entry = {**SCHEMA["properties"]["config"], **change}
    monkeypatch.setattr(report_module, "_config_entry", lambda: entry)
    with pytest.raises(ReportError, match="report.schema.json"):
        validate_report({"config": CONFIG}, SOURCE)


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


def two_problem_run(run_pair, dest, trim):
    """The first run's config and matrices, cut to one combinational and
    one sequential problem so that jsonschema checks each report quickly;
    with ``trim``, each matrix keeps only the first entry of each map."""
    shutil.copy(run_pair[0] / "run_config.json", dest)
    for problem in ("adder4", "counter3"):
        matrix = json.loads((run_pair[0] / "problems" / problem / "matrix.json").read_text())
        if trim:
            for group in ("cells", "debug", "gen"):
                matrix[group] = dict(list(matrix[group].items())[:1])
        (dest / "problems" / problem).mkdir(parents=True)
        (dest / "problems" / problem / "matrix.json").write_text(json.dumps(matrix))
    return dest


def report_or_error_naming(run, matrix_file, matrix):
    """Write ``matrix``; then ``build_report`` must give a report inside the
    whole schema or a ReportError naming ``matrix_file``."""
    matrix_file.write_text(json.dumps(matrix), "utf-8")
    try:
        report = build_report(run)
    except ReportError as error:
        assert str(error).startswith(f"{matrix_file} is malformed"), error
    else:
        assert inside_schema(json.dumps(report, sort_keys=True)), report


@cache
def inside_schema(report_text: str) -> bool:
    # most changes leave the report as it was, so each text is checked once
    return REPORT_SCHEMA.is_valid(json.loads(report_text))


def test_every_single_matrix_replacement_gives_a_valid_report_or_names_the_file(
        run_pair, tmp_path):
    run = two_problem_run(run_pair, tmp_path, trim=True)
    for matrix_file in sorted(run.glob("problems/*/matrix.json")):
        matrix = json.loads(matrix_file.read_text("utf-8"))
        for parent, key in list(nodes(matrix)):
            value = parent[key]
            for replacement in REPLACEMENTS:
                parent[key] = replacement
                report_or_error_naming(run, matrix_file, matrix)
            if isinstance(parent, dict):
                del parent[key]
                report_or_error_naming(run, matrix_file, matrix)
            parent[key] = value
        report_or_error_naming(run, matrix_file, matrix)


@pytest.fixture(scope="module")
def run_copy(run_pair, tmp_path_factory):
    return two_problem_run(run_pair, tmp_path_factory.mktemp("mutated"), trim=False)


@settings(max_examples=200)
@given(data=st.data())
def test_one_changed_matrix_node_gives_a_valid_report_or_names_the_file(run_copy, data):
    matrix_file = data.draw(st.sampled_from(sorted(run_copy.glob("problems/*/matrix.json"))))
    text = matrix_file.read_text("utf-8")
    matrix = json.loads(text)
    mutate(matrix, data)
    try:
        report_or_error_naming(run_copy, matrix_file, matrix)
    finally:
        matrix_file.write_text(text, "utf-8")
