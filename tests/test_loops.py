import importlib
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from support import ListProvider, OracleBackedResponder, oracle_traces, valid_arbiter_stimulus
from svloop import loops
from svloop.frontend.ast import DesignSource
from svloop.frontend.elaborate import elaborate_source
from svloop.frontend.signature import extract_signature
from svloop.gateway.prompts import build_testgen_prompt
from svloop.loops import debug, generate_tests
from svloop.manifest import Problem, RunConfig
from svloop.sim.coverage import collect_coverage
from svloop.sim.engine import run
from svloop.sim.stimulus import UnitTest, parse_stimulus

CFG = RunConfig(strategy="nlsc", shots=0)

RISING_A = "inputs: rst[1], r1[1], r2[1]\n1 0 0\n1 0 0\n"
FLAT_B = RISING_A
RISING_C = "inputs: rst[1], r1[1], r2[1]\n1 0 0\n0 1 0\n0 1 0\n0 0 0\n"
RISING_D = valid_arbiter_stimulus() + "0 1 1\n0 1 0\n0 0 1\n"

CMP_REF = "module cmp3 (\n  input [2:0] x,\n  output y\n);\n  assign y = x >= 3'd4;\nendmodule\n"
CMP_BUGGY = CMP_REF.replace("3'd4", "3'd6")
CMP_HALF = CMP_REF.replace("3'd4", "3'd5")
CMP_X_VALUES = [4, 5, 4, 5, 4, 5, 0, 1, 2, 7]


def cmp_problem():
    design = elaborate_source(CMP_REF)
    signature = extract_signature(design)
    problem = Problem(
        "cmp3",
        Path("cmp3"),
        "Output y is 1 when the 3-bit input x is at least 4.",
        design,
        signature,
        (),
    )
    tests = [
        UnitTest(f"t{i}", signature.stimulus_inputs, ((x,),))
        for i, x in enumerate(CMP_X_VALUES)
    ]
    return problem, tests


def test_cmp_fixture_fractions_are_as_derived():
    # independent arithmetic check of the staged pass fractions
    buggy_pass = sum((x >= 6) == (x >= 4) for x in CMP_X_VALUES)
    half_pass = sum((x >= 5) == (x >= 4) for x in CMP_X_VALUES)
    assert buggy_pass == 4 and half_pass == 7


class TestGenerateLoop:
    def test_combinational_is_one_shot(self, problems):
        p = problems["full_adder"]
        provider = ListProvider([
            "inputs: a[1], b[1], c[1]\n0 0 0\n1 1 1\n",
            "inputs: a[1], b[1], c[1]\n0 0 1\n",
        ])
        state = generate_tests(p, p.reference, CFG, provider)
        assert provider.calls_made == 1
        assert len(state.tests) == 1
        assert state.iterations == 1

    def test_combinational_accepts_if_parseable(self, problems):
        p = problems["full_adder"]
        state = generate_tests(p, p.reference, CFG, ListProvider(["garbage"]))
        assert state.tests == []
        assert state.rejections and state.rejections[0].reason == "parse"

    def test_rising_flat_rising(self, problems, monkeypatch):
        p = problems["arbiter2"]
        built = []
        candidates = []
        parse = loops.parse_unit_test

        def parsing(*args):
            candidates.append(parse(*args))
            return candidates[-1]

        def recording(*args):
            report = collect_coverage(*args)
            built.append((candidates[-1], report))
            return report

        monkeypatch.setattr(loops, "parse_unit_test", parsing)
        monkeypatch.setattr(loops, "collect_coverage", recording)
        provider = ListProvider([RISING_A, FLAT_B, RISING_C, RISING_D, RISING_D])
        state = generate_tests(p, p.reference, CFG, provider)
        assert len(state.tests) == 3
        history = state.accepted_coverage
        assert all(b > a for a, b in zip(history, history[1:]))
        flat = [r for r in state.rejections if r.reason == "coverage"]
        assert flat and flat[0].iteration == 2
        # recompute the accepted coverage independently
        accepted = []
        for i, test in enumerate(state.tests):
            report = collect_coverage(p.design, state.tests[: i + 1], p.signature)
            accepted.append(report.scalar)
        assert accepted == history
        # every report the loop scored, uncovered items (the feedback text)
        # included, equals a fresh collection over the suite it then held
        assert len(built) == provider.calls_made
        for candidate, report in built:
            suite = [t for t in state.tests if t.id < candidate.id] + [candidate]
            assert report == collect_coverage(p.design, suite, p.signature)

    def test_flat_test_not_added_to_suite(self, problems):
        p = problems["arbiter2"]
        provider = ListProvider([RISING_A, FLAT_B, RISING_C, RISING_D, RISING_D])
        state = generate_tests(p, p.reference, CFG, provider)
        texts = [t.to_text() for t in state.tests]
        assert texts.count(RISING_A) == 1

    def test_sequential_iteration_cap(self, problems):
        p = problems["arbiter2"]
        provider = ListProvider([RISING_A] * 9)
        state = generate_tests(p, p.reference, replace(CFG, iteration_cap=5), provider)
        assert state.iterations == 5
        assert provider.calls_made == 5
        assert len(state.tests) == 1

    def test_integral_float_settings_run_as_their_ints(self, problems):
        p = problems["arbiter2"]
        states = [generate_tests(p, p.reference, replace(CFG, iteration_cap=cap),
                                 ListProvider([RISING_A, RISING_C, RISING_D]))
                  for cap in (2.0, 2)]
        assert states[0] == states[1] and states[0].iterations == 2
        assert (build_testgen_prompt(RunConfig(strategy="nls", shots=5.0), p)
                == build_testgen_prompt(RunConfig(strategy="nls", shots=5), p))

    def test_provider_errors_absorbed(self, problems):
        p = problems["arbiter2"]
        provider = ListProvider([RISING_A])  # exhausts after one call
        state = generate_tests(p, p.reference, replace(CFG, iteration_cap=3), provider)
        assert len(state.tests) == 1
        assert sum(1 for r in state.rejections if r.reason == "provider") == 2

    def test_nls_ignores_source(self, problems):
        p = problems["full_adder"]
        cfg = RunConfig(strategy="nls")
        provider = ListProvider(["inputs: a[1], b[1], c[1]\n1 0 1\n"])
        state = generate_tests(p, None, cfg, provider)
        assert len(state.tests) == 1


class TestDebugLoop:
    def failing_suite(self, problems, bc_id="BC06"):
        p = problems["arbiter2"]
        mutants = {bc: (src, wit) for bc, src, wit in p.mutants()}
        source, witness = mutants[bc_id]
        return p, source, [witness]

    def test_reference_patch_terminates_first_iteration(self, problems):
        p, source, tests = self.failing_suite(problems)
        provider = ListProvider([p.reference.text])
        state = debug(p, elaborate_source(source), tests, oracle_traces(p, tests), CFG,
                      provider)
        assert state.solved
        assert state.iterations == 1
        assert state.best_pass == 1

    def test_useless_patches_run_the_full_budget(self, problems):
        p, source, tests = self.failing_suite(problems)
        provider = ListProvider([source.text] * 5)
        state = debug(p, elaborate_source(source), tests, oracle_traces(p, tests), CFG,
                      provider)
        assert state.iterations == 5
        assert state.provider_calls == 5
        assert state.design is source
        assert state.best_pass == state.initial_pass
        fractions = [h.pass_fraction for h in state.history]
        assert all(f is not None and f <= state.initial_pass for f in fractions)

    def test_partial_then_full_fix(self):
        problem, tests = cmp_problem()
        buggy = DesignSource(CMP_BUGGY, "mutant BC02")
        provider = ListProvider([CMP_HALF, CMP_REF])
        state = debug(problem, elaborate_source(buggy), tests, oracle_traces(problem, tests), CFG,
                      provider)
        assert state.initial_pass == Fraction(2, 5)
        accepted = [h.pass_fraction for h in state.history if h.accepted]
        assert accepted == [Fraction(7, 10), Fraction(1)]
        assert state.solved and state.iterations == 2

    def test_best_pass_monotone_under_noise(self, problems):
        p, source, tests = self.failing_suite(problems)
        provider = ListProvider(
            ["nonsense", source.text, p.reference.text, "unused", "unused"]
        )
        state = debug(p, elaborate_source(source), tests, oracle_traces(p, tests), CFG,
                      provider)
        assert state.solved and state.iterations == 3
        seen = state.initial_pass
        for h in state.history:
            if h.accepted:
                assert h.pass_fraction > seen
                seen = h.pass_fraction

    def test_non_ascii_patch_is_a_logged_rejection(self, problems):
        p, source, tests = self.failing_suite(problems)
        garbled = p.reference.text.replace("localparam IDLE = 2'd0;", "localparam IDLE = \u00b2;")
        provider = ListProvider([garbled, p.reference.text])
        state = debug(p, elaborate_source(source), tests, oracle_traces(p, tests), CFG,
                      provider)
        assert state.solved and state.iterations == 2
        assert [r.reason for r in state.rejections] == ["patch"]
        assert "patch rejected (parse)" in state.rejections[0].detail

    def test_literal_past_the_int_string_limit_is_a_logged_rejection(self, problems):
        p, source, tests = self.failing_suite(problems)
        huge = p.reference.text.replace("localparam IDLE = 2'd0;", f"localparam IDLE = {'0' * 4301};")
        provider = ListProvider([huge, p.reference.text])
        state = debug(p, elaborate_source(source), tests, oracle_traces(p, tests), CFG,
                      provider)
        assert state.solved and state.iterations == 2
        assert [r.reason for r in state.rejections] == ["patch"]
        assert "exceeds Python's 4300-digit limit" in state.rejections[0].detail

    @pytest.mark.parametrize("deep", ["(" * 200 + "2'd0" + ")" * 200,
                                      " + ".join(["2'd0"] * 1000)])
    def test_expression_past_the_depth_cap_is_a_logged_rejection(self, problems, deep):
        p, source, tests = self.failing_suite(problems)
        nested = p.reference.text.replace("localparam IDLE = 2'd0;", f"localparam IDLE = {deep};")
        provider = ListProvider([nested, p.reference.text])
        state = debug(p, elaborate_source(source), tests, oracle_traces(p, tests), CFG,
                      provider)
        assert state.solved and state.iterations == 2
        assert [r.reason for r in state.rejections] == ["patch"]
        assert "patch rejected (parse)" in state.rejections[0].detail
        assert "nests deeper than 150 levels" in state.rejections[0].detail

    def test_statements_past_the_nesting_cap_are_a_logged_rejection(self, problems):
        p, source, tests = self.failing_suite(problems)
        nested = p.reference.text.replace("g1 <= State == GRANT1;",
                                          "if (r1) " * 600 + "g1 <= State == GRANT1;")
        provider = ListProvider([nested, p.reference.text])
        state = debug(p, elaborate_source(source), tests, oracle_traces(p, tests), CFG,
                      provider)
        assert state.solved and state.iterations == 2
        assert [r.reason for r in state.rejections] == ["patch"]
        assert "patch rejected (parse)" in state.rejections[0].detail
        assert "statements nest deeper than 128 levels" in state.rejections[0].detail

    def test_budget_is_at_most_five_provider_calls(self, problems):
        p, source, tests = self.failing_suite(problems)
        provider = ListProvider(["junk"] * 12)
        state = debug(p, elaborate_source(source), tests, oracle_traces(p, tests), CFG,
                      provider)
        assert state.provider_calls == 5

    def test_requires_tests(self, problems):
        p, source, _ = self.failing_suite(problems)
        with pytest.raises(ValueError):
            debug(p, elaborate_source(source), [], {}, CFG, ListProvider([]))

    def test_already_passing_suite_short_circuits(self, problems):
        p = problems["arbiter2"]
        mutants = {bc: src for bc, src, _ in p.mutants()}
        quiet = parse_stimulus("inputs: rst[1], r1[1], r2[1]\n1 0 0\n1 0 0\n", p.signature, "quiet")
        provider = ListProvider([])
        state = debug(p, elaborate_source(mutants["BC06"]), [quiet],
                      oracle_traces(p, [quiet]), CFG, provider)
        assert state.solved and state.iterations == 0 and state.provider_calls == 0


class TestElaborationCount:
    """Both loops reuse the designs they are given: the problem's oracle,
    the debug target, and the design ``parse_patch`` elaborated."""

    @pytest.fixture()
    def elaborations(self, monkeypatch):
        # svloop.frontend re-exports the function elaborate, which hides
        # the submodule of the same name from attribute access
        module = importlib.import_module("svloop.frontend.elaborate")
        original = module.ElaboratedDesign
        built = []

        def counting(*args, **kwargs):
            design = original(*args, **kwargs)
            built.append(design.name)
            return design

        monkeypatch.setattr(module, "ElaboratedDesign", counting)
        return built

    def test_generate_tests_elaborates_nothing(self, problems, elaborations):
        p = problems["arbiter2"]
        provider = ListProvider([RISING_A, RISING_C, "garbage", RISING_D])
        state = generate_tests(p, p.reference, replace(CFG, iteration_cap=4), provider)
        assert state.tests and provider.calls_made == 4
        assert elaborations == []

    def test_debug_elaborates_each_parseable_patch_once(self, problems, elaborations):
        p = problems["arbiter2"]
        source, witness = {bc: (s, w) for bc, s, w in p.mutants()}["BC06"]
        target = elaborate_source(source)
        elaborations.clear()
        responses = [
            "nonsense",
            "module arbiter2 (input a;\nendmodule",  # module that does not parse
            source.text,
            p.reference.text,
        ]
        state = debug(p, target, [witness], oracle_traces(p, [witness]), CFG,
                      ListProvider(responses))
        assert state.solved and state.iterations == 4
        assert elaborations == ["arbiter2", "arbiter2"]


class TestOracleRuns:
    """The loops simulate the oracle only where its trace is new: one run
    per generation candidate, none in debug, which takes the traces."""

    @pytest.fixture()
    def runs(self, monkeypatch):
        engine = importlib.import_module("svloop.sim.engine")
        original = engine.run
        designs = []

        def counting(design, *args):
            designs.append(design)
            return original(design, *args)

        # coverage imports engine.run at call time; loops holds its own name
        monkeypatch.setattr(engine, "run", counting)
        monkeypatch.setattr(loops, "run", counting)
        return designs

    def test_generation_runs_each_candidate_once(self, problems, runs):
        p = problems["arbiter2"]
        provider = ListProvider([RISING_A, FLAT_B, RISING_C, RISING_D, RISING_D])
        state = generate_tests(p, p.reference, CFG, provider)
        assert provider.calls_made == 5 and len(state.tests) == 3
        assert len(runs) == 5 and all(d is p.design for d in runs)

    def test_debug_runs_no_oracle(self, problems, runs):
        p = problems["arbiter2"]
        suite = [
            parse_stimulus(text, p.signature, f"t{i}")
            for i, text in enumerate([RISING_A, RISING_C, RISING_D])
        ]
        source = {bc: src for bc, src, _ in p.mutants()}["BC06"]
        target = elaborate_source(source)
        expected = oracle_traces(p, suite)
        runs.clear()
        state = debug(p, target, suite, expected, CFG, ListProvider([p.reference.text]))
        assert state.provider_calls == 1
        assert runs and all(d is not p.design for d in runs)


class TestGenerationTraces:
    @pytest.mark.parametrize("pid", ["full_adder", "seq_detect"])
    def test_kept_trace_equals_a_plain_oracle_run(self, problems, pid):
        # the instrumented candidate run stands in for the matrix's oracle run
        p = problems[pid]
        responder = OracleBackedResponder(list(problems.values()), seed=3)
        accepted = 0
        for bc_id, source, _ in p.mutants():
            state = generate_tests(p, source, CFG, responder, test_prefix=f"{bc_id}-t")
            assert list(state.traces) == [t.id for t in state.tests]
            for test in state.tests:
                assert state.traces[test.id] == run(p.design, test, p.signature)
            accepted += len(state.tests)
        assert accepted >= len(p.mutants())
