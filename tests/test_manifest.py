import json

import pytest

from svloop.data import copy_corpus, default_corpus_root
from svloop.errors import ManifestError
from svloop.manifest import load_corpus, load_problem


def test_default_corpus_has_at_least_four_problems():
    problems = load_corpus(default_corpus_root())
    assert len(problems) >= 4
    kinds = {p.kind for p in problems}
    assert kinds == {"combinational", "sequential"}
    for p in problems:  # the kind derived from the design is the one problem.json names
        assert p.kind == json.loads((p.root / "problem.json").read_text())["kind"]


def test_copy_refuses_nonempty_destination(tmp_path):
    dest = tmp_path / "corpus"
    dest.mkdir()
    (dest / "junk.txt").write_text("x")
    with pytest.raises(ManifestError):
        copy_corpus(dest)


def test_kind_inconsistency_is_rejected(fresh_corpus):
    problem_dir = fresh_corpus / "problems" / "full_adder"
    manifest = json.loads((problem_dir / "problem.json").read_text())
    manifest["kind"] = "sequential"
    (problem_dir / "problem.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match="inconsistent"):
        load_problem(problem_dir)


def test_missing_description_is_rejected(fresh_corpus):
    problem_dir = fresh_corpus / "problems" / "adder4"
    (problem_dir / "description.txt").unlink()
    with pytest.raises(ManifestError, match="does not exist"):
        load_problem(problem_dir)


@pytest.mark.parametrize("text", ["", " \n\t\n"])
def test_empty_description_is_rejected_naming_the_file(fresh_corpus, text):
    problem_dir = fresh_corpus / "problems" / "adder4"
    description = problem_dir / "description.txt"
    description.write_text(text)
    with pytest.raises(ManifestError) as info:
        load_problem(problem_dir)
    assert str(info.value) == f"adder4: description {description} is empty"


def test_reference_is_the_design_source(problems):
    for problem in problems.values():
        assert problem.reference is problem.design.source


def test_bad_kind_value(fresh_corpus):
    problem_dir = fresh_corpus / "problems" / "counter3"
    manifest = json.loads((problem_dir / "problem.json").read_text())
    manifest["kind"] = "analog"
    (problem_dir / "problem.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match="kind"):
        load_problem(problem_dir)


def test_load_corpus_requires_problems_dir(tmp_path):
    with pytest.raises(ManifestError):
        load_corpus(tmp_path)


def test_clock_reset_overrides_flow_into_signature(fresh_corpus):
    problem_dir = fresh_corpus / "problems" / "seq_detect"
    manifest = json.loads((problem_dir / "problem.json").read_text())
    manifest["reset"] = {"name": "rst", "active_high": False, "synchronous": True}
    (problem_dir / "problem.json").write_text(json.dumps(manifest))
    problem = load_problem(problem_dir)
    assert problem.signature.reset.active_high is False


def test_mutants_empty_before_mutation(fresh_corpus):
    problem = load_problem(fresh_corpus / "problems" / "arbiter2")
    assert problem.mutants() == []


def test_missing_required_key_names_the_file(fresh_corpus):
    problem_dir = fresh_corpus / "problems" / "counter3"
    manifest = json.loads((problem_dir / "problem.json").read_text())
    del manifest["reference"]
    (problem_dir / "problem.json").write_text(json.dumps(manifest))
    with pytest.raises(ManifestError, match="problem.json.*'reference'"):
        load_problem(problem_dir)


@pytest.mark.parametrize("witness, match", [(None, "'witness'"), (5, "splitlines")])
def test_malformed_mutant_record_names_the_file(fresh_corpus, witness, match):
    problem_dir = fresh_corpus / "problems" / "full_adder"
    (problem_dir / "bc01.sv").write_text((problem_dir / "ref.sv").read_text())
    record = {"bc_id": "BC01", "file": "bc01.sv"}
    if witness is not None:
        record["witness"] = witness
    (problem_dir / "manifest.json").write_text(json.dumps({"records": [record]}))
    with pytest.raises(ManifestError, match=f"manifest.json.*{match}"):
        load_problem(problem_dir).mutants()
