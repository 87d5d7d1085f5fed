import importlib
import json
import pickle
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from support import (
    OracleBackedResponder,
    SimulatedCrash,
    path_calls,
    read_vcd,
    rebound,
    record_mock_script,
    tree_listing,
)
from svloop import errors, loops, matrix, verdict
from svloop.frontend.elaborate import elaborate_source
from svloop.manifest import RunConfig, load_corpus
from svloop.matrix import evaluate_matrix, evaluate_problem
from svloop.loops import PatchAttempt, Rejection
from svloop.metrics import (
    cell_entry, cell_record, debug_record, divergent_attack, gen_record, read_cell_entry,
    read_cell_record, read_debug_record, read_gen_record,
)
from svloop.sim.engine import run
from svloop.sim.stimulus import UnitTest
from svloop.verdict import Verdict


def run_one(problems, pid, out_dir, seed=0):
    responder = OracleBackedResponder(list(problems.values()), seed=seed)
    config = RunConfig(provider="mock", script_dir="(in-memory)", seed=1)
    return evaluate_problem(problems[pid], config, responder, out_dir)


def assert_same_tree(a, b):
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class TestEvaluateProblem:
    def test_matrix_is_complete(self, problems, tmp_path):
        result = run_one(problems, "full_adder", tmp_path / "fa")
        n = len(result["mutants"])
        assert len(result["cells"]) + len(result["skipped"]) == n * n
        assert not result["skipped"]

    def test_diagonal_consistency(self, problems, tmp_path):
        # a suite that attacks its seeding mutant yields ar=1 on the diagonal
        result = run_one(problems, "arbiter2", tmp_path / "arb")
        for bc in result["mutants"]:
            cell = result["cells"][f"{bc}->{bc}"]
            assert cell["ar"] in (0, 1)
            assert Fraction(*cell["da"]) == divergent_attack(cell["ar"], Fraction(*cell["dr"]))

    def test_unsensitized_cell_has_zero_da(self, problems, tmp_path):
        result = run_one(problems, "seq_detect", tmp_path / "sd")
        passing = [c for c in result["cells"].values() if c["ar"] == 0]
        for cell in passing:
            assert Fraction(*cell["dr"]) == 0 and Fraction(*cell["da"]) == 0

    def test_artifacts_exist(self, problems, tmp_path):
        out = tmp_path / "fa"
        result = run_one(problems, "full_adder", out)
        src = result["mutants"][0].lower()
        assert (out / "matrix.csv").exists()
        assert (out / "matrix.json").exists()
        assert (out / "sources" / src / "genstate.json").exists()
        assert list((out / "sources" / src / "tests").glob("*.stim"))
        assert list((out / "oracle" / src).glob("*.vcd"))
        cell_dir = out / "cells" / src / result["mutants"][1].lower()
        assert (cell_dir / "result.json").exists()
        assert list((cell_dir / "traces").glob("*.vcd"))
        assert (out / "debug" / src / "state.json").exists()
        assert (out / "debug" / src / "final.sv").exists()

    def test_cell_json_cross_checks_with_stored_traces(self, problems, tmp_path):
        out = tmp_path / "arb"
        result = run_one(problems, "arbiter2", out)
        p = problems["arbiter2"]
        outputs = [q.name for q in p.signature.outputs]
        for key, cell in result["cells"].items():
            src, tgt = key.split("->")
            cell_file = out / "cells" / src.lower() / tgt.lower() / "result.json"
            stored = json.loads(cell_file.read_text())
            assert stored["ar"] == cell["ar"]
            assert Fraction(*stored["dr"]) == Fraction(*cell["dr"])
            if stored["first_failing"]:
                tid = stored["first_failing"]
                target_trace, _ = read_vcd(
                    (out / "cells" / src.lower() / tgt.lower() / "traces" / f"{tid}.vcd").read_bytes()
                )
                oracle_trace, _ = read_vcd(
                    (out / "oracle" / src.lower() / f"{tid}.vcd").read_bytes()
                )
                divergent = sum(
                    1
                    for n in range(target_trace.cycles)
                    if any(
                        target_trace.values[o][n] != oracle_trace.values[o][n]
                        for o in outputs
                    )
                )
                assert Fraction(divergent, target_trace.cycles) == Fraction(*cell["dr"])

    def test_rerun_is_byte_identical(self, problems, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_one(problems, "counter3", a)
        run_one(problems, "counter3", b)
        assert_same_tree(a, b)

    def test_resume_from_checkpoints(self, problems, tmp_path):
        full = tmp_path / "full"
        run_one(problems, "counter3", full)
        partial = tmp_path / "partial"
        shutil.copytree(full, partial)
        # wipe some cells and one debug state; resume must regenerate them
        removed = 0
        for cell_file in sorted(partial.glob("cells/*/*/result.json"))[:3]:
            shutil.rmtree(cell_file.parent)
            removed += 1
        shutil.rmtree(sorted(partial.glob("debug/*"))[0])
        assert removed
        run_one(problems, "counter3", partial)
        assert_same_tree(full, partial)

    def test_resume_redoes_only_unfinished_units(self, problems, tmp_path, monkeypatch):
        p = problems["counter3"]
        engine = importlib.import_module("svloop.sim.engine")
        elaborate = importlib.import_module("svloop.frontend.elaborate")
        original_run, original_elaborate = engine.run, elaborate.elaborate_source
        elaborated, oracle_runs, other_runs = [], [], []

        def counting_run(design, *args):
            (oracle_runs if design is p.design else other_runs).append(args[0].id)
            return original_run(design, *args)

        def counting_elaborate(source):
            elaborated.append(source.text)
            return original_elaborate(source)

        for module in (engine, loops, matrix):
            monkeypatch.setattr(module, "run", counting_run)
        for module in (elaborate, matrix):
            monkeypatch.setattr(module, "elaborate_source", counting_elaborate)

        full = tmp_path / "full"
        result = run_one(problems, "counter3", full)
        sources = [src.text for _, src, _ in p.mutants()]
        assert elaborated == sources  # a fresh run elaborates every target once

        resumed = tmp_path / "resumed"
        shutil.copytree(full, resumed)
        elaborated.clear(), oracle_runs.clear(), other_runs.clear()
        run_one(problems, "counter3", resumed)
        assert elaborated == oracle_runs == other_runs == []
        assert_same_tree(full, resumed)

        # one unfinished cell needs its target and its source's suite, nothing else
        src = next(bc for bc in result["mutants"] if result["gen"][bc]["tests"])
        tgt = result["mutants"][-1]
        shutil.rmtree(resumed / "cells" / src.lower() / tgt.lower())
        run_one(problems, "counter3", resumed)
        suite = result["gen"][src]["tests"]
        assert elaborated == [sources[-1]]
        assert oracle_runs == other_runs == suite
        assert_same_tree(full, resumed)

    def test_torn_oracle_vcd_is_rewritten_on_resume(self, problems, tmp_path):
        clean = tmp_path / "clean"
        run_one(problems, "full_adder", clean)
        crashed = tmp_path / "crashed"
        write_bytes = errors._write_bytes
        torn = []

        def tearing(path, data):
            if not torn and Path(path).is_relative_to(crashed / "oracle"):
                torn.append(path)
                write_bytes(path, data[: len(data) // 2])
                raise OSError("simulated crash mid-write")
            return write_bytes(path, data)

        with rebound(errors, "_write_bytes", tearing):
            with pytest.raises(OSError, match="mid-write"):
                run_one(problems, "full_adder", crashed)
        assert torn
        run_one(problems, "full_adder", crashed)
        assert_same_tree(clean, crashed)

    def test_no_corpus_reports_error(self, problems, tmp_path, fresh_corpus):
        pristine = {p.id: p for p in load_corpus(fresh_corpus)}
        assert run_one(pristine, "full_adder", tmp_path / "x") is None
        assert not (tmp_path / "x").exists()
        config = RunConfig(provider="mock", script_dir="(in-memory)", seed=1)
        entry = matrix._problem_entry(pristine["full_adder"], config, None, tmp_path / "x")
        assert entry == {"mutants": 0, "cells": 0, "skipped_cells": 0, "debug_solved": 0,
                         "error": "no mutant corpus on disk (run `svloop mutate` first)"}

    def test_corrupted_mutant_isolates_to_its_cells(self, tmp_path, fresh_corpus):
        from svloop.manifest import write_mutation_corpus
        from svloop.mutate import make_corpus

        problem_dir = fresh_corpus / "problems" / "full_adder"
        problem = load_corpus(fresh_corpus)[3]
        assert problem.id == "full_adder"
        records, skipped = make_corpus(problem, seed=1)
        write_mutation_corpus(problem, records, skipped, 1)
        # corrupt one mutant file after corpus creation
        (problem_dir / "bc02.sv").write_text("module broken (((\n")
        reloaded = {p.id: p for p in load_corpus(fresh_corpus)}
        result = run_one(reloaded, "full_adder", tmp_path / "x")
        assert result is not None
        bad = [key for key in result["skipped"] if key.endswith("->BC02")]
        good = [key for key in result["cells"] if not key.endswith("->BC02")]
        assert len(bad) == len(result["mutants"])
        assert good
        assert "does not elaborate" in result["skipped"][bad[0]]
        assert result["debug"]["BC02"].get("skipped")

    def test_mutant_with_other_ports_isolates_to_its_cells(self, corpus_dir, tmp_path):
        # adder4's BC03 with its input cin renamed: its interface is not the
        # problem's, so no stimulus fits it and its cells and debug unit are skipped
        corpus = tmp_path / "corpus"
        shutil.copytree(corpus_dir, corpus)
        mutant = corpus / "problems" / "adder4" / "bc03.sv"
        mutant.write_text(mutant.read_text().replace("cin", "cix"))
        result = run_one({p.id: p for p in load_corpus(corpus)}, "adder4", tmp_path / "x")
        assert result is not None and "BC03" in result["mutants"]
        reason = "target does not keep the problem's interface"
        assert result["skipped"] == {f"{src}->BC03": reason for src in result["mutants"]}
        assert len(result["cells"]) == len(result["mutants"]) * (len(result["mutants"]) - 1)
        assert result["debug"]["BC03"] == {"skipped": reason}

    def test_nls_strategy_generates_without_source(self, problems, tmp_path):
        responder = OracleBackedResponder(list(problems.values()))
        config = RunConfig(strategy="nls", provider="mock", script_dir="(in-memory)", seed=1)
        result = evaluate_problem(problems["full_adder"], config, responder, tmp_path / "nls")
        assert result["cells"]
        # identical NLS prompts across sources yield identical suites
        state = json.loads(
            (tmp_path / "nls" / "sources" / result["mutants"][0].lower() / "genstate.json").read_text()
        )
        assert state["tests"]
        prompt = (
            tmp_path / "nls" / "sources" / result["mutants"][0].lower() / "prompts" /
            "gen-01.prompt.txt"
        ).read_text()
        assert "Implementation under test" not in prompt


class TestCellOutcome:
    """result.json is read as its tests' ids and verdicts, and accepted
    exactly when ``cell_record`` gives it back: AR, DR, DA (``divergent_attack``
    of the two), the first failing test and each outcome follow from them."""

    SUITE = ["t1", "t2"]  # the source's tests
    RECORD = cell_record("BC01", "BC02", [("t1", Verdict(0, 8)), ("t2", Verdict(6, 8))])

    def test_consistent_record_is_its_matrix_entry(self):
        assert self.RECORD == {
            "source": "BC01", "target": "BC02", "ar": 1, "dr": [3, 4], "da": [3, 4],
            "first_failing": "t2",
            "tests": [{"id": "t1", "outcome": "pass", "mismatch_cycles": 0, "cycles": 8},
                      {"id": "t2", "outcome": "fail", "mismatch_cycles": 6, "cycles": 8}]}
        assert read_cell_record(self.RECORD, "BC01", "BC02", self.SUITE) == self.RECORD
        entry = cell_entry(1, Fraction(3, 4))
        assert entry == {"ar": 1, "dr": [3, 4], "da": [3, 4]}
        assert read_cell_entry(entry) == {"ar": 1, "dr": Fraction(3, 4), "da": Fraction(3, 4)}
        da = Fraction(*entry["da"])
        assert da <= Fraction(*entry["dr"]) and da <= entry["ar"]

    @pytest.mark.parametrize("ar, dr, da", [
        (0, [1, 2], [1, 2]),   # no attack carries no divergent attack
        (1, [1, 2], [1, 4]),   # an attacked pair carries da == dr
        (1, [0, 1], [0, 1]),   # an attack diverges on at least one cycle
        (2, [1, 2], [1, 2]),   # ar is 0 or 1
        (1, [6, 8], [3, 4]),   # a ratio is stored in lowest terms
        (0, 0, 0),             # a ratio is a pair, never a bare integer
    ])
    def test_any_other_record_is_refused(self, ar, dr, da):
        changed = {**self.RECORD, "ar": ar, "dr": dr, "da": da}
        with pytest.raises(ValueError):
            read_cell_record(changed, "BC01", "BC02", self.SUITE)
        with pytest.raises(ValueError):
            read_cell_entry({"ar": ar, "dr": dr, "da": da})

    @pytest.mark.parametrize("ar", [[1, 1], [0, 1], True, 1.0, 2, "1"])
    def test_ar_is_the_int_0_or_1(self, ar):
        assert read_cell_entry({"ar": 0, "dr": [0, 1], "da": [0, 1]})["ar"] == 0
        with pytest.raises((TypeError, ValueError)):  # each a malformed record to its reader
            read_cell_entry({"ar": ar, "dr": [1, 2], "da": [1, 2]})

    def test_a_skipped_cell_is_its_reason(self):
        record = cell_record("BC01", "BC02", "no tests")
        assert record == {"source": "BC01", "target": "BC02", "skipped": "no tests"}
        assert read_cell_record(record, "BC01", "BC02", []) == record
        with pytest.raises(ValueError, match="^'target' "):
            read_cell_record(record, "BC01", "BC03", [])

    @pytest.mark.parametrize("tests", [
        pytest.param(lambda tests: [{**tests[0], "id": "nosuch"}, tests[1]], id="foreign"),
        pytest.param(lambda tests: tests[1:], id="dropped"),
        pytest.param(lambda tests: tests[:1] + tests, id="duplicated"),
        pytest.param(lambda tests: tests[::-1], id="reordered"),
    ])
    def test_the_tests_are_its_sources_suite(self, tests):
        changed = {**self.RECORD, "tests": tests(self.RECORD["tests"])}
        with pytest.raises(ValueError):
            read_cell_record(changed, "BC01", "BC02", self.SUITE)


class TestLoopOutcome:
    """A loop's record holds one outcome per iteration: its rejections are
    worked out from the iterations, and a record whose rejections are not
    exactly those is refused, whatever their order."""

    DEBUG = debug_record(Fraction(1, 2), [
        PatchAttempt(False, Fraction(1, 2)),                  # did not improve
        PatchAttempt(False, None, Rejection("patch", "no module found")),
        PatchAttempt(True, Fraction(1)),
    ])
    GEN = gen_record("bc01-t", [Fraction(1, 4), Fraction(1, 2)],
                     {2: Rejection("coverage", "did not improve"),
                      3: Rejection("parse", "no stimulus")})

    def test_a_debug_record_works_out_its_rejections(self):
        assert self.DEBUG["rejections"] == [
            {"iteration": 1, "reason": "pass-fraction",
             "detail": "patch did not improve pass fraction"},
            {"iteration": 2, "reason": "patch", "detail": "no module found"}]
        assert [h["reason"] for h in self.DEBUG["history"]] == [
            "pass fraction 0.500 did not improve on 0.500", "patch: no module found",
            "pass fraction increased"]
        assert (self.DEBUG["best_pass"], self.DEBUG["solved"]) == ([1, 1], True)
        assert (self.DEBUG["iterations"], self.DEBUG["provider_calls"]) == (3, 3)
        assert read_debug_record(self.DEBUG) == self.DEBUG

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda rejections: rejections[1:], id="pass-fraction-deleted"),
        pytest.param(lambda rejections: rejections[:1] + rejections, id="duplicated"),
        pytest.param(lambda rejections: [*rejections, {**rejections[0], "iteration": 3}],
                     id="added-at-an-accepted-iteration"),
        pytest.param(lambda rejections: rejections[::-1], id="reordered"),
        pytest.param(lambda rejections: rejections[:1], id="failure-deleted"),
        pytest.param(lambda rejections: [rejections[0], {**rejections[1], "iteration": 2.0}],
                     id="float-iteration"),
    ])
    def test_a_debug_record_with_other_rejections_is_refused(self, edit):
        changed = {**self.DEBUG, "rejections": edit(self.DEBUG["rejections"])}
        with pytest.raises((LookupError, ValueError)):
            read_debug_record(changed)

    def test_a_gen_record_is_its_iterations(self):
        assert self.GEN["tests"] == ["bc01-t01", "bc01-t04"]
        assert [r["iteration"] for r in self.GEN["rejections"]] == [2, 3]
        assert (self.GEN["iterations"], self.GEN["provider_calls"]) == (4, 4)
        assert read_gen_record(self.GEN, "bc01-t") == self.GEN

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda rejections: rejections[::-1], id="reordered"),
        pytest.param(lambda rejections: rejections[:1] * 2, id="duplicated"),
        pytest.param(lambda rejections: [rejections[0], {**rejections[1], "iteration": 5}],
                     id="moved-past-the-last-iteration"),
    ])
    def test_a_gen_record_with_other_rejections_is_refused(self, edit):
        changed = {**self.GEN, "rejections": edit(self.GEN["rejections"])}
        with pytest.raises(ValueError):
            read_gen_record(changed, "bc01-t")


def test_a_cell_compares_each_test_once(problems, tmp_path, monkeypatch):
    # DR is read off the first failing test's verdict, not compared again
    p = problems["arbiter2"]
    outputs = [q.name for q in p.signature.outputs]
    mutants = p.mutants()
    tests = [UnitTest(f"w{k}", w.columns, w.rows) for k, (_, _, w) in enumerate(mutants)]
    oracle_traces = {t.id: run(p.design, t, p.signature) for t in tests}
    real, calls = verdict.compare, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("svloop") and getattr(module, "compare", None) is real:
            monkeypatch.setattr(module, "compare", counting)
    target = elaborate_source(mutants[0][1])
    cell = cell_record("BC01", "BC01", matrix._evaluate_cell(tests, oracle_traces, target,
                                                             p.signature, outputs, tmp_path))
    assert cell["ar"] == 1 and Fraction(*cell["dr"]) > 0
    assert len(calls) == len(tests)


def test_simulated_problem_pickles_for_a_worker(problems):
    # --jobs N hands each worker the parent's Problem, whatever it has simulated
    p = problems["seq_detect"]
    witness = p.mutants()[0][2]
    trace = run(p.design, witness, p.signature)
    copy = pickle.loads(pickle.dumps(p))
    assert run(copy.design, witness, copy.signature) == trace


class TestWriteBudget:
    def test_fresh_run_writes_each_unit_once(self, problems, tmp_path, monkeypatch):
        p = problems["full_adder"]
        engine = importlib.import_module("svloop.sim.engine")
        original = engine.run
        oracle_runs = []

        def counting(design, *args):
            if design is p.design:
                oracle_runs.append(args[0].id)
            return original(design, *args)

        for module in (engine, loops, matrix):
            monkeypatch.setattr(module, "run", counting)
        out = tmp_path / "fa"
        with path_calls() as calls:
            result = run_one(problems, "full_adder", out)
        made = [out] + [d for d in out.rglob("*") if d.is_dir()]
        methods = [name for name, _ in calls]
        assert methods.count("mkdir") <= len(made)
        assert methods.count("replace") == len(list(out.rglob("*.json")))
        assert not [path for name, path in calls if name == "exists" and path.suffix == ".vcd"]
        # generation's candidate runs are the only oracle simulations
        scored = sum(
            len(gen["tests"]) + sum(r["reason"] == "coverage" for r in gen["rejections"])
            for gen in result["gen"].values()
        )
        assert scored and len(oracle_runs) == scored


def unit_of(run_dir, path):
    """(kind, ids) of the resumable unit that writes ``path``; None for the
    problem- and run-level paths."""
    parts = path.relative_to(run_dir).parts[2:]  # below problems/<id>/
    if len(parts) >= 2 and parts[0] in ("sources", "oracle"):
        return "source", parts[1]
    if len(parts) >= 3 and parts[0] == "cells":
        return "cell", parts[1], parts[2]
    if len(parts) >= 2 and parts[0] == "debug":
        return "debug", parts[1]
    return None


class TestCrashConsistency:
    STRIDE = 3

    def test_resume_after_a_crash_at_a_write_matches_a_clean_run(self, problems, tmp_path):
        # A crash at writing call k, then a resume with real I/O: every k
        # inside the first unit of each kind and at the problem and run
        # level, every STRIDE-th k elsewhere (a full sweep takes over twice as long).
        adder4 = problems["adder4"]
        script = record_mock_script([adder4], tmp_path / "script", tmp_path / "record")
        config = RunConfig(provider="mock", script_dir=str(script), seed=1)
        clean = tmp_path / "clean"
        with path_calls() as calls:
            evaluate_matrix([adder4], config, clean)
        expected = tree_listing(clean)
        writes = [path for name, path in calls if name != "exists"]
        firsts = {}
        crash_points = []
        for k, path in enumerate(writes, 1):
            unit = unit_of(clean, path)
            if unit is None or firsts.setdefault(unit[0], unit) == unit or k % self.STRIDE == 0:
                crash_points.append(k)
        assert set(firsts) == {"source", "cell", "debug"}
        assert len(crash_points) >= len(writes) / self.STRIDE
        for k in crash_points:
            run_dir = tmp_path / f"crash{k}"
            with pytest.raises(SimulatedCrash), path_calls(crash_at=k):
                evaluate_matrix([adder4], config, run_dir)
            evaluate_matrix([adder4], config, run_dir)
            assert tree_listing(run_dir) == expected, f"crash at writing call {k}: {writes[k - 1]}"
            shutil.rmtree(run_dir)
