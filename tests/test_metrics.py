from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from support import naive_divergent_fraction
from svloop.errors import TraceShapeMismatch
from svloop.frontend.elaborate import elaborate_source
from svloop.metrics import (
    attack_rate,
    bin_index,
    bin_values,
    divergence_rate,
    divergent_attack,
    stored_pair,
    stored_ratio,
)
from svloop.sim.engine import Trace, run
from svloop.verdict import Verdict, compare


def verdicts(fails, total):
    out = []
    for i in range(total):
        failed = i < fails
        out.append(Verdict(int(failed), 1))
    return out


class TestAttackRate:
    def test_all_fail(self):
        assert attack_rate(verdicts(10, 10)) == 1

    def test_none_fail(self):
        assert attack_rate(verdicts(0, 10)) == 0

    def test_eight_of_ten(self):
        assert attack_rate(verdicts(8, 10)) == Fraction(4, 5)

    def test_empty(self):
        with pytest.raises(ValueError):
            attack_rate([])

    @given(st.lists(st.booleans(), min_size=1, max_size=40), st.randoms())
    def test_permutation_invariance(self, flags, rng):
        vs = [Verdict(int(f), 1) for f in flags]
        shuffled = list(vs)
        rng.shuffle(shuffled)
        assert attack_rate(vs) == attack_rate(shuffled)


class TestDivergenceRate:
    def trace(self, seq):
        return Trace({"y": tuple(seq)}, len(seq))

    def test_identical(self):
        t = self.trace([0, 1, 1, 0])
        assert divergence_rate(compare(t, t, ["y"])) == 0

    def test_one_divergent_of_four(self):
        a = self.trace([0, 1, 1, 0])
        b = self.trace([0, 1, 0, 0])
        assert divergence_rate(compare(a, b, ["y"])) == Fraction(1, 4)

    def test_shape_mismatch(self):
        with pytest.raises(TraceShapeMismatch):
            divergence_rate(compare(self.trace([0]), self.trace([0, 1]), ["y"]))

    def test_matches_naive_diff_on_arbiter_witness(self, problems):
        p = problems["arbiter2"]
        for bc_id, source, witness in p.mutants():
            mutant = elaborate_source(source)
            t_pass = run(p.design, witness, p.signature)
            t_fail = run(mutant, witness, p.signature)
            outputs = [q.name for q in p.signature.outputs]
            dr = divergence_rate(compare(t_fail, t_pass, outputs))
            num, den = naive_divergent_fraction(t_pass, t_fail, outputs)
            assert dr == Fraction(num, den), bc_id
            assert dr > 0


class TestDivergentAttack:
    def test_gating_passthrough(self):
        assert divergent_attack(1, Fraction(9, 10)) == Fraction(9, 10)

    def test_no_attack(self):
        assert divergent_attack(0, Fraction(7, 10)) == 0
        assert divergent_attack(0, Fraction(0)) == 0

    def test_attack_with_zero_divergence_is_inconsistent(self):
        with pytest.raises(ValueError):
            divergent_attack(1, Fraction(0))

    @pytest.mark.parametrize("dr", [Fraction(3, 2), Fraction(-1, 2)])
    def test_divergence_outside_the_unit_interval_is_refused(self, dr):
        with pytest.raises(ValueError, match=r"dr must lie in \[0, 1\]"):
            divergent_attack(1, dr)


class TestStoredRatio:
    @pytest.mark.parametrize("value, ratio", [
        ([0, 1], 0), ([1, 2], Fraction(1, 2)), ([3, 3], 1), ([-1, -2], Fraction(1, 2)),
    ])
    def test_int_pairs_in_range(self, value, ratio):
        assert stored_ratio(value, "dr") == ratio

    @pytest.mark.parametrize("value", [
        "1", "[1, 2]", True, False, [True, True], [1, True], 1.0, 0.5, [1.0, 2], [1, 2, 3], [1],
        [], None, {}, 2, -1, [3, 2], [-1, 2], [1, -2],
        0, 1,  # no writer stores a bare integer
    ])
    def test_anything_else_is_refused(self, value):
        with pytest.raises(ValueError, match="^dr "):
            stored_ratio(value, "dr")

    def test_a_zero_denominator_is_refused(self):
        with pytest.raises(ZeroDivisionError):
            stored_ratio([1, 0], "dr")

    @pytest.mark.parametrize("ratio", [Fraction(0), Fraction(1), Fraction(3, 4)])
    def test_stored_pair_is_read_back(self, ratio):
        assert stored_ratio(stored_pair(ratio), "dr") == ratio


class TestBinning:
    def test_midpoint(self):
        dist = bin_values([Fraction(1, 2)])
        assert dist.counts == (0, 0, 1, 0, 0)
        assert dist.median == Fraction(1, 2) and dist.median_bin == 3

    def test_boundary_goes_up(self):
        dist = bin_values([Fraction(1, 5)])
        assert dist.counts == (0, 1, 0, 0, 0)
        assert dist.median_bin == 2

    def test_top_bin_closed(self):
        assert bin_index(1) == 5
        assert bin_index(Fraction(4, 5)) == 5

    def test_uniform_spread(self):
        values = [Fraction(5 + 10 * k, 100) for k in range(10)]  # 0.05 .. 0.95
        dist = bin_values(values)
        assert dist.counts == (2, 2, 2, 2, 2)

    def test_lower_middle_median(self):
        dist = bin_values([Fraction(9, 10), Fraction(95, 100), Fraction(1)])
        assert dist.counts == (0, 0, 0, 0, 3)
        assert dist.median == Fraction(95, 100) and dist.median_bin == 5
        even = bin_values([Fraction(1, 10), Fraction(3, 10), Fraction(7, 10), Fraction(9, 10)])
        assert even.median == Fraction(3, 10)

    def test_empty(self):
        with pytest.raises(ValueError):
            bin_values([])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bin_values([Fraction(3, 2)])

    def test_integer_bins_match_fraction_edges(self):
        def by_edges(value):
            for i, edge in enumerate([Fraction(k, 5) for k in range(1, 5)]):
                if value < edge:
                    return i + 1
            return 5

        for d in range(1, 65):
            for n in range(d + 1):
                assert bin_index(Fraction(n, d)) == by_edges(Fraction(n, d)), (n, d)
            for n in (-1, d + 1):
                with pytest.raises(ValueError):
                    bin_index(Fraction(n, d))

    @given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=50),
           st.randoms())
    def test_permutation_invariance(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert bin_values(values) == bin_values(shuffled)

    @given(st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=50))
    def test_counts_sum_and_median_bin_contains_median(self, values):
        dist = bin_values(values)
        assert sum(dist.counts) == len(values)
        assert dist.counts[dist.median_bin - 1] > 0
        assert bin_index(dist.median) == dist.median_bin
