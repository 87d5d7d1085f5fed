from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import naive_divergent_fraction, step_arbiter
from svloop.errors import CalledOnPass, TraceShapeMismatch
from svloop.frontend.elaborate import elaborate_source
from svloop.sim.engine import Trace, run
from svloop.sim.stimulus import UnitTest
from svloop.verdict import Verdict, compare, pass_fraction, summarize


def trace_of(**values):
    n = len(next(iter(values.values())))
    return Trace({k: tuple(v) for k, v in values.items()}, n)


class TestCompare:
    def test_identical_traces_pass(self):
        t = trace_of(y=[0, 1, 0], z=[1, 1, 1])
        v = compare(t, t, ["y", "z"])
        assert v.passed and v.outcome == "pass" and v.mismatch_count == 0 and v.cycles == 3

    def test_total_divergence(self):
        a = trace_of(y=[0, 0, 0])
        b = trace_of(y=[1, 1, 1])
        v = compare(a, b, ["y"])
        assert v.outcome == "fail" and v.mismatch_count == v.cycles == 3

    def test_internal_signals_never_fail_a_run(self):
        a = trace_of(y=[0, 0], internal=[1, 0])
        b = trace_of(y=[0, 0], internal=[0, 1])
        assert compare(a, b, ["y"]).passed

    def test_shape_mismatch(self):
        with pytest.raises(TraceShapeMismatch):
            compare(trace_of(y=[0]), trace_of(y=[0, 1]), ["y"])
        with pytest.raises(TraceShapeMismatch):
            compare(trace_of(y=[0]), trace_of(z=[0]), ["y"])

    def test_buggy_arbiter_first_mismatch_cycle(self, problems):
        p = problems["arbiter2"]
        mutants = {bc: src for bc, src, _ in p.mutants()}
        mutant = elaborate_source(mutants["BC07"])
        rows = ((1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1), (0, 0, 0))
        test = UnitTest("t", p.signature.stimulus_inputs, rows)
        ref = run(p.design, test, p.signature)
        mut = run(mutant, test, p.signature)
        outputs = [q.name for q in p.signature.outputs]
        verdict = compare(mut, ref, outputs)
        assert not verdict.passed
        # the reference transcript is the hand-stepped FSM; divergence can
        # only start once the mutilated transition should have fired
        states, _, _ = step_arbiter(rows)
        first = summarize(mut, ref, verdict, outputs, 20).entries[0].cycle
        assert first > 0
        assert states[: first] == ref.values["State"][: first]

    @given(
        a=st.lists(st.integers(0, 3), min_size=1, max_size=16),
        b_mask=st.lists(st.integers(0, 3), min_size=1, max_size=16),
    )
    def test_symmetry(self, a, b_mask):
        n = min(len(a), len(b_mask))
        ta = trace_of(y=a[:n])
        tb = trace_of(y=[x ^ m for x, m in zip(a[:n], b_mask[:n])])
        ab, ba = compare(ta, tb, ["y"]), compare(tb, ta, ["y"])
        assert ab == ba
        if not ab.passed:
            cycles = [e.cycle for e in summarize(ta, tb, ab, ["y"], n).entries]
            assert cycles == [e.cycle for e in summarize(tb, ta, ba, ["y"], n).entries]

    def test_any_mask_bit_flips_outcome(self):
        a = trace_of(y=[0, 0, 0, 0])
        for i in range(4):
            values = [0, 0, 0, 0]
            values[i] = 1
            b = trace_of(y=values)
            v = compare(a, b, ["y"])
            assert v.outcome == "fail" and v.mismatch_count == 1
            assert [e.cycle for e in summarize(a, b, v, ["y"], 20).entries] == [i]

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=16))
    def test_mismatch_count_is_the_naive_divergent_cycle_count(self, rows):
        ta = trace_of(y=[r[0] for r in rows], z=[r[2] for r in rows])
        tb = trace_of(y=[r[1] for r in rows], z=[r[3] for r in rows])
        for outputs in (["y"], ["z"], ["y", "z"]):
            v = compare(ta, tb, outputs)
            assert v.mismatch_count == naive_divergent_fraction(ta, tb, outputs)[0]
            assert v.cycles == len(rows)


class TestSummarize:
    def test_single_mismatch(self):
        a = trace_of(y=[0, 1], z=[0, 0])
        b = trace_of(y=[0, 0], z=[0, 0])
        v = compare(a, b, ["y", "z"])
        s = summarize(a, b, v, ["y", "z"], 20)
        assert s.total == 1 and len(s.entries) == 1
        e = s.entries[0]
        assert (e.output, e.cycle, e.expected, e.actual) == ("y", 1, 0, 1)

    def test_truncation_keeps_earliest(self):
        n = 100
        a = trace_of(y=[1] * n)
        b = trace_of(y=[0] * n)
        v = compare(a, b, ["y"])
        s = summarize(a, b, v, ["y"], limit=20)
        assert s.total == 100 and len(s.entries) == 20
        assert [e.cycle for e in s.entries] == list(range(20))

    def test_entries_sorted_and_reproducible(self):
        a = trace_of(g2=[1, 0], g1=[0, 1])
        b = trace_of(g2=[0, 0], g1=[0, 0])
        v = compare(a, b, ["g1", "g2"])
        s = summarize(a, b, v, ["g1", "g2"], 20)
        assert [(e.output, e.cycle) for e in s.entries] == [("g2", 0), ("g1", 1)]
        for e in s.entries:
            assert a.values[e.output][e.cycle] == e.actual
            assert b.values[e.output][e.cycle] == e.expected

    def test_called_on_pass(self):
        t = trace_of(y=[0])
        v = compare(t, t, ["y"])
        with pytest.raises(CalledOnPass):
            summarize(t, t, v, ["y"], 20)


class TestPassFraction:
    def make(self, outcomes):
        return [Verdict(0 if p else 1, 1) for p in outcomes]

    def test_half(self):
        assert pass_fraction(self.make([True, True, False, False])) == Fraction(1, 2)

    def test_all_pass(self):
        assert pass_fraction(self.make([True] * 3)) == 1

    def test_all_fail(self):
        assert pass_fraction(self.make([False] * 4)) == 0

    def test_empty(self):
        with pytest.raises(ValueError):
            pass_fraction([])

    def test_exact_rational(self):
        assert pass_fraction(self.make([True] * 2 + [False] * 3)) == Fraction(2, 5)
