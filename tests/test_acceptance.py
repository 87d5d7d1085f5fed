"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured evidence (run with -s or -rA to see them).

Everything runs against the scripted mock provider; no network access.
"""

import dataclasses
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from support import (
    GOLDEN_MODELS,
    ListProvider,
    exhaustive_single_cycle_tests,
    malformed_patch_responses,
    malformed_stimulus_responses,
    oracle_traces,
    read_vcd,
    record_mock_script,
    step_arbiter,
    valid_arbiter_stimulus,
)
from svloop.cli import main
from svloop.data import copy_corpus
from svloop.frontend.ast import DesignSource
from svloop.frontend.elaborate import elaborate_source
from svloop.frontend.signature import extract_signature
from svloop.loops import debug, generate_tests
from svloop.manifest import RunConfig, load_corpus, write_mutation_corpus
from svloop.metrics import (
    attack_rate, bin_values, debug_record, divergence_rate, divergent_attack, stored_pair,
)
from svloop.mutate import make_corpus
from svloop.report import build_report
from svloop.sim.engine import run
from svloop.sim.stimulus import UnitTest
from svloop.verdict import Verdict, compare

CFG = RunConfig(strategy="nlsc", shots=0, iteration_cap=5)


def ok(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


# --- criterion 1 -----------------------------------------------------------------

def test_criterion_1_simulator_oracle_equivalence(problems):
    """Exhaustive agreement with independent golden models on every
    combinational desk design with <= 12 input bits; exact; < 5 s."""
    started = time.monotonic()
    checked = 0
    for problem in problems.values():
        if problem.design.is_sequential:
            continue
        bits = sum(p.width for p in problem.signature.stimulus_inputs)
        assert bits <= 12
        inputs, golden = GOLDEN_MODELS[problem.id]
        assert tuple(p.name for p in problem.signature.stimulus_inputs) == inputs
        for test in exhaustive_single_cycle_tests(problem.signature):
            trace = run(problem.design, test, problem.signature)
            for out, expected in golden(*test.rows[0]).items():
                assert trace.values[out][0] == expected, (problem.id, test.rows[0], out)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok(1, f"{checked} exhaustive patterns across combinational designs "
          f"match golden models exactly in {elapsed:.2f}s")


# --- criterion 2 -----------------------------------------------------------------

ARBITER_SCRIPT = (
    (1, 0, 0), (1, 1, 1), (0, 1, 0), (0, 1, 0), (0, 1, 1),
    (0, 0, 1), (0, 0, 1), (0, 0, 0), (0, 0, 1), (1, 0, 1),
    (0, 1, 1), (0, 0, 0), (0, 0, 0), (0, 1, 0), (0, 1, 0),
    (1, 0, 0), (0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 0, 0),
)
# hand-stepped transcript of the documented arbiter FSM (frozen)
EXPECT_STATE = (0, 0, 1, 1, 1, 2, 2, 0, 2, 0, 1, 0, 0, 1, 1, 0, 0, 2, 2, 0)
EXPECT_G1 = (0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0)
EXPECT_G2 = (0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1)


def test_criterion_2_arbiter_fidelity(problems):
    """20-cycle scripted stimulus matches the hand-stepped FSM transcript
    exactly, including the asynchronous-reset cycles."""
    assert step_arbiter(ARBITER_SCRIPT) == (EXPECT_STATE, EXPECT_G1, EXPECT_G2), (
        "independent stepper disagrees with the frozen transcript"
    )
    p = problems["arbiter2"]
    test = UnitTest("script20", p.signature.stimulus_inputs, ARBITER_SCRIPT)
    trace = run(p.design, test, p.signature)
    assert trace.values["State"] == EXPECT_STATE
    assert trace.values["g1"] == EXPECT_G1
    assert trace.values["g2"] == EXPECT_G2
    resets = [i for i, row in enumerate(ARBITER_SCRIPT) if row[0] == 1]
    ok(2, f"20-cycle trace matches the hand-stepped transcript exactly "
          f"(async reset asserted at cycles {resets})")


# --- criterion 3 -----------------------------------------------------------------

def test_criterion_3_mutation_soundness(tmp_path):
    """Every emitted mutant elaborates, preserves its signature, and
    diverges from the reference on its recorded witness; < 30 s."""
    started = time.monotonic()
    corpus = copy_corpus(tmp_path / "desk")
    total = 0
    for problem in load_corpus(corpus):
        records, skipped = make_corpus(problem, seed=1)
        write_mutation_corpus(problem, records, skipped, 1)
        ref_signature = extract_signature(problem.design)
        outputs = [q.name for q in problem.signature.outputs]
        for record in records:
            mutant = elaborate_source(record.source)
            assert extract_signature(mutant) == ref_signature, (problem.id, record.bc_id)
            ref_trace = run(problem.design, record.witness, problem.signature)
            mut_trace = run(mutant, record.witness, problem.signature)
            assert any(ref_trace.values[o] != mut_trace.values[o] for o in outputs), (
                problem.id, record.bc_id,
            )
            total += 1
    elapsed = time.monotonic() - started
    assert total >= 4 * 4  # at least 4 problems contributing records
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    ok(3, f"{total} mutants across 5 problems: all elaborate, preserve "
          f"signatures, and replay divergent witnesses in {elapsed:.2f}s")


# --- criteria 4 and 8 share an end-to-end run -------------------------------------

@pytest.fixture(scope="module")
def recorded_run(corpus_dir, tmp_path_factory):
    """Record a full mock script, then drive `evaluate` through the CLI
    twice into separate run directories."""
    base = tmp_path_factory.mktemp("acceptance")
    problems = load_corpus(corpus_dir)
    script = base / "script"
    record_mock_script(problems, script, base / "scratch")

    runs = []
    timings = []
    for name in ("run-a", "run-b"):
        run_dir = base / name
        started = time.monotonic()
        code = main([
            "evaluate", "--problems", str(corpus_dir), "--out", str(run_dir),
            "--mock-script", str(script), "--seed", "1",
        ])
        timings.append(time.monotonic() - started)
        assert code == 0
        runs.append(run_dir)
    return {"runs": runs, "timings": timings, "corpus": corpus_dir}


def test_criterion_4_metric_cross_validation(recorded_run):
    """AR/DR/DA recomputed by a naive pass over the stored traces equal the
    pipeline values exactly; DA <= DR and DA <= AR everywhere."""
    run_dir = recorded_run["runs"][0]
    problems = {p.id: p for p in load_corpus(recorded_run["corpus"])}
    pairs = 0
    for problem_dir in sorted((run_dir / "problems").iterdir()):
        problem = problems[problem_dir.name]
        outputs = [q.name for q in problem.signature.outputs]
        matrix = json.loads((problem_dir / "matrix.json").read_text())
        assert not matrix["skipped"]
        for key, cell in matrix["cells"].items():
            src, tgt = key.split("->")
            pipeline_ar = cell["ar"]
            pipeline_dr = Fraction(*cell["dr"])
            pipeline_da = Fraction(*cell["da"])
            cell_dir = problem_dir / "cells" / src.lower() / tgt.lower()
            detail = json.loads((cell_dir / "result.json").read_text())
            naive_ar = 0
            naive_dr = Fraction(0)
            for row in detail["tests"]:
                target_trace, _ = read_vcd((cell_dir / "traces" / f"{row['id']}.vcd").read_bytes())
                oracle_trace, _ = read_vcd(
                    (problem_dir / "oracle" / src.lower() / f"{row['id']}.vcd").read_bytes()
                )
                divergent = sum(
                    1
                    for n in range(target_trace.cycles)
                    if any(target_trace.values[o][n] != oracle_trace.values[o][n] for o in outputs)
                )
                if divergent and naive_ar == 0:
                    naive_ar = 1
                    naive_dr = Fraction(divergent, target_trace.cycles)
            naive_da = naive_dr if naive_ar else Fraction(0)
            assert naive_ar == pipeline_ar, key
            assert naive_dr == pipeline_dr, key
            assert naive_da == pipeline_da, key
            assert pipeline_da <= pipeline_dr
            assert pipeline_da <= pipeline_ar
            pairs += 1
    assert pairs >= 100
    ok(4, f"{pairs} (source, target) pairs re-derived from raw traces match "
          f"pipeline AR/DR/DA exactly; DA dominance holds everywhere")


# --- criterion 5 -----------------------------------------------------------------

def test_criterion_5_formula_spot_checks():
    from svloop.sim.engine import Trace

    identical = Trace({"y": (0, 1, 1, 0)}, 4)
    assert divergence_rate(compare(identical, identical, ["y"])) == 0
    one_of_four = Trace({"y": (0, 1, 0, 0)}, 4)
    assert divergence_rate(compare(identical, one_of_four, ["y"])) == Fraction(1, 4)
    verdicts = [Verdict(1, 1)] * 8 + [Verdict(0, 1)] * 2
    assert attack_rate(verdicts) == Fraction(8, 10)
    dist = bin_values([Fraction(1, 2)])
    assert dist.counts == (0, 0, 1, 0, 0) and dist.median_bin == 3
    assert divergent_attack(1, Fraction(1, 4)) == Fraction(1, 4)
    assert divergent_attack(0, Fraction(1, 4)) == 0
    ok(5, "DR(identical)=0, DR(1 of 4)=1/4, AR(8 of 10)=4/5, bin([0.5])=bin 3 "
          "- all exact")


# --- criterion 6 -----------------------------------------------------------------

def test_criterion_6_testgen_loop_contract(problems):
    rising_a = "inputs: rst[1], r1[1], r2[1]\n1 0 0\n1 0 0\n"
    flat_b = rising_a
    rising_c = "inputs: rst[1], r1[1], r2[1]\n1 0 0\n0 1 0\n0 1 0\n0 0 0\n"
    rising_d = valid_arbiter_stimulus() + "0 1 1\n0 1 0\n0 0 1\n"
    p = problems["arbiter2"]
    provider = ListProvider([rising_a, flat_b, rising_c, rising_d, rising_d])
    state = generate_tests(p, p.reference, CFG, provider)
    history = state.accepted_coverage
    assert len(state.tests) == 3
    assert all(b > a for a, b in zip(history, history[1:])), history
    assert state.rejections[2].reason == "coverage"

    fa = problems["full_adder"]
    one_shot = ListProvider([
        "inputs: a[1], b[1], c[1]\n0 0 0\n1 1 1\n",
        "inputs: a[1], b[1], c[1]\n0 1 0\n",
    ])
    fa_state = generate_tests(fa, fa.reference, CFG, one_shot)
    assert one_shot.calls_made == 1
    assert fa_state.provider_calls == 1
    ok(6, f"bCov strictly increases at accepted steps "
          f"({[float(h) for h in history]}), the flat test is rejected, and "
          f"combinational generation makes exactly 1 provider call")


# --- criterion 7 -----------------------------------------------------------------

def test_criterion_7_debug_loop_contract(problems):
    p = problems["arbiter2"]
    mutants = {bc: (src, wit) for bc, src, wit in p.mutants()}
    source, witness = mutants["BC06"]

    # (a) reference patch terminates in one iteration at pass fraction 1.0
    state_a = debug(p, elaborate_source(source), [witness],
                    oracle_traces(p, [witness]), CFG, ListProvider([p.reference.text]))
    record_a = debug_record(state_a.initial_pass, state_a.history)
    assert record_a["solved"] and record_a["iterations"] == 1 and record_a["best_pass"] == [1, 1]

    # (b) useless patches: exactly 5 iterations, original retained,
    #     bPass non-decreasing throughout
    state_b = debug(p, elaborate_source(source), [witness],
                    oracle_traces(p, [witness]), CFG, ListProvider([source.text] * 5))
    record_b = debug_record(state_b.initial_pass, state_b.history)
    assert record_b["iterations"] == 5
    assert state_b.design is source
    assert record_b["best_pass"] == record_b["initial_pass"]
    floor = state_b.initial_pass
    for attempt in state_b.history:
        if attempt.accepted:
            assert attempt.pass_fraction > floor
            floor = attempt.pass_fraction

    # (c) partial then full fix: bPass history 0.4 -> 0.7 -> 1.0
    from test_loops import CMP_BUGGY, CMP_HALF, CMP_REF, cmp_problem

    cmp, tests = cmp_problem()
    state_c = debug(
        cmp, elaborate_source(DesignSource(CMP_BUGGY, "mutant BC02")), tests,
        oracle_traces(cmp, tests), CFG, ListProvider([CMP_HALF, CMP_REF]),
    )
    assert state_c.initial_pass == Fraction(2, 5)
    accepted = [h.pass_fraction for h in state_c.history if h.accepted]
    assert accepted == [Fraction(7, 10), Fraction(1)]
    ok(7, "reference patch solves in 1 iteration; useless patches stop at "
          "exactly 5 with the original retained; staged fix walks 0.4 -> 0.7 -> 1.0")


# --- criterion 8 -----------------------------------------------------------------

def test_criterion_8_end_to_end_determinism(recorded_run):
    """CLI evaluate over the desk corpus: < 60 s, schema-valid report,
    byte-identical rerun."""
    run_a, run_b = recorded_run["runs"]
    for elapsed in recorded_run["timings"]:
        assert elapsed < 60.0, f"evaluate took {elapsed:.1f}s"
    files_a = sorted(p.relative_to(run_a) for p in run_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(run_b) for p in run_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (run_a / rel).read_bytes() == (run_b / rel).read_bytes(), rel
    report = build_report(run_a)  # validates against the shipped schema
    assert report["problems"] == sorted(report["problems"])
    assert main(["report", str(run_a)]) == 0
    summary = json.loads((run_a / "summary.json").read_text())
    assert len(summary["problems"]) >= 4
    ok(8, f"evaluate over {len(summary['problems'])} problems finished in "
          f"{recorded_run['timings'][0]:.1f}s, report is schema-valid, and the "
          f"rerun is byte-identical across {len(files_a)} files")


# --- criterion 9 -----------------------------------------------------------------

def test_criterion_9_robustness_fuzz(problems):
    """1,000 malformed responses through the loops: no crashes, every
    rejection logged with a reason."""
    rng = random.Random(99)
    p = problems["arbiter2"]
    mutants = {bc: (src, wit) for bc, src, wit in p.mutants()}
    source, witness = mutants["BC03"]

    consumed = 0
    rejections = 0
    stimulus_garbage = malformed_stimulus_responses(rng, 500)
    for start in range(0, 500, 5):
        batch = stimulus_garbage[start:start + 5]
        provider = ListProvider(batch)
        state = generate_tests(p, source, CFG, provider)
        assert state.tests == []
        assert len(state.rejections) == 5
        assert all(r.reason and r.detail for r in state.rejections.values())
        consumed += provider.calls_made
        rejections += sum(1 for r in state.rejections.values()
                          if r.reason in ("parse", "provider"))

    patch_garbage = malformed_patch_responses(rng, 500, source.text)
    target = elaborate_source(source)
    expected = oracle_traces(p, [witness])
    for start in range(0, 500, 5):
        batch = patch_garbage[start:start + 5]
        provider = ListProvider(batch)
        state = debug(p, target, [witness], expected, CFG, provider)
        record = debug_record(state.initial_pass, state.history)
        assert record["iterations"] == 5
        assert state.design is source
        assert len(record["rejections"]) == 5
        assert all(r["reason"] and r["detail"] for r in record["rejections"])
        consumed += provider.calls_made
        rejections += len(record["rejections"])

    assert consumed == 1000

    # An accepted patch too long for the input window: every later iteration's
    # debug prompt overflows, and each is a logged rejection that uses it up.
    suite = [dataclasses.replace(wit, id=f"w-{bc.lower()}") for bc, (_, wit) in mutants.items()]
    expected = oracle_traces(p, suite)
    designs = {bc: elaborate_source(src) for bc, (src, _) in mutants.items()}
    one_call = dataclasses.replace(CFG, iteration_cap=1)  # set before the first call
    passing = {bc: debug(p, design, suite, expected, one_call, ListProvider([])).initial_pass
               for bc, design in designs.items()}
    overflows = 0
    for tgt, patch in itertools.permutations(mutants, 2):
        if not passing[tgt] < passing[patch] < 1:
            continue
        comment = "// " + " ".join(["padding"] * rng.randrange(13_000, 20_000)) + "\n"
        long_patch = mutants[patch][0].text.replace("endmodule", comment + "endmodule")
        provider = ListProvider([long_patch] * 5)
        state = debug(p, designs[tgt], suite, expected, CFG, provider)
        assert provider.calls_made == 1
        record = debug_record(state.initial_pass, state.history)
        assert record["iterations"] == 5
        assert record["best_pass"] == stored_pair(passing[patch])
        assert state.history[0].accepted
        assert [h["reason"].split(":")[0] for h in record["history"][1:]] == ["prompt"] * 4
        assert [r["reason"] for r in record["rejections"]] == ["prompt"] * 4
        assert all("input window" in r["detail"] for r in record["rejections"])
        overflows += 1
    assert overflows

    ok(9, f"{consumed} malformed responses absorbed; {rejections} logged "
          f"rejections, zero crashes, buggy design always retained; {overflows} "
          f"accepted patches too long for the next prompt are prompt rejections")
