from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import GOLDEN_MODELS, read_vcd, step_arbiter, valid_arbiter_stimulus
from svloop.errors import MalformedStimulus, NoStimulusFound, StimulusMismatch
from svloop.frontend.elaborate import elaborate_source
from svloop.frontend.signature import extract_signature
from svloop.sim.coverage import CoverageCollector, collect_coverage
from svloop.sim.engine import run
from svloop.sim.stimulus import UnitTest, parse_stimulus
from svloop.sim.vcd import export_vcd


def exhaustive_test(signature, cycles_per_pattern=1):
    columns = signature.stimulus_inputs
    widths = [p.width for p in columns]
    total = sum(widths)
    rows = []
    for pattern in range(1 << total):
        row = []
        shift = pattern
        for w in widths:
            row.append(shift & ((1 << w) - 1))
            shift >>= w
        rows.append(tuple(row))
    return UnitTest("exhaustive", columns, tuple(rows))


class TestRun:
    def test_full_adder_single_pattern(self, problems):
        p = problems["full_adder"]
        test = UnitTest("t", p.signature.stimulus_inputs, ((1, 1, 0),))
        trace = run(p.design, test, p.signature)
        assert trace.values["s"][0] == 0
        assert trace.values["cout"][0] == 1

    def test_full_adder_all_zero(self, problems):
        p = problems["full_adder"]
        trace = run(p.design, UnitTest("t", p.signature.stimulus_inputs, ((0, 0, 0),)), p.signature)
        assert trace.values["s"][0] == 0 and trace.values["cout"][0] == 0

    def test_golden_equivalence_exhaustive(self, problems):
        for name, (inputs, golden) in GOLDEN_MODELS.items():
            p = problems[name]
            assert tuple(port.name for port in p.signature.stimulus_inputs) == inputs
            test = exhaustive_test(p.signature)
            trace = run(p.design, test, p.signature)
            for i, row in enumerate(test.rows):
                expected = golden(*row)
                for out, value in expected.items():
                    assert trace.values[out][i] == value, (name, row, out)

    def test_determinism(self, problems):
        p = problems["arbiter2"]
        test = parse_stimulus(valid_arbiter_stimulus(), p.signature, "t")
        a = run(p.design, test, p.signature)
        b = run(p.design, test, p.signature)
        assert a == b

    def test_stimulus_mismatch(self, problems):
        p = problems["arbiter2"]
        bad = UnitTest(
            "t",
            problems["full_adder"].signature.stimulus_inputs,
            ((0, 0, 0),),
        )
        with pytest.raises(StimulusMismatch):
            run(p.design, bad, p.signature)

    def test_buggy_arbiter_diverges_at_sensitized_cycle(self, problems):
        # deleted-case-arm mutant diverges only after the missing transition
        # is needed; the hand-stepped model pins the cycle
        p = problems["arbiter2"]
        mutants = {bc: src for bc, src, _ in p.mutants()}
        mutant = elaborate_source(mutants["BC07"])
        rows = ((1, 0, 0), (0, 1, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1), (0, 0, 0))
        test = UnitTest("t", p.signature.stimulus_inputs, rows)
        ref = run(p.design, test, p.signature)
        mut = run(mutant, test, p.signature)
        states, g1s, g2s = step_arbiter(rows)
        assert ref.values["State"] == states
        assert ref.values["g1"] == g1s and ref.values["g2"] == g2s
        assert (mut.values["g1"], mut.values["g2"]) != (g1s, g2s)

    def test_reset_dominance(self, problems):
        p = problems["arbiter2"]
        rows = ((1, 1, 1), (1, 1, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1), (0, 0, 1))
        trace = run(p.design, UnitTest("t", p.signature.stimulus_inputs, rows), p.signature)
        for i, (rst, _, _) in enumerate(rows):
            if rst:
                assert trace.values["State"][i] == 0
                assert trace.values["g1"][i] == 0 and trace.values["g2"][i] == 0

    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
            min_size=2,
            max_size=12,
        ),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_prefix_property(self, problems, rows, data):
        # outputs at cycle n depend only on stimulus rows 0..n
        p = problems["arbiter2"]
        sig = p.signature
        full = run(p.design, UnitTest("t", sig.stimulus_inputs, tuple(rows)), sig)
        cut = data.draw(st.integers(1, len(rows) - 1))
        short = run(p.design, UnitTest("t", sig.stimulus_inputs, tuple(rows[:cut])), sig)
        for name, values in short.values.items():
            assert values == full.values[name][:cut]


class TestCoverage:
    def test_exhaustive_full_adder_is_total(self, problems):
        p = problems["full_adder"]
        report = collect_coverage(p.design, [exhaustive_test(p.signature)], p.signature)
        assert report.scalar == 1

    def test_all_zero_row_has_zero_toggle(self, problems):
        p = problems["full_adder"]
        test = UnitTest("t", p.signature.stimulus_inputs, ((0, 0, 0),))
        report = collect_coverage(p.design, [test], p.signature)
        assert report.toggle == 0

    def test_reset_only_pins_one_fsm_state(self, problems):
        p = problems["arbiter2"]
        test = UnitTest("t", p.signature.stimulus_inputs, ((1, 0, 0), (1, 0, 0)))
        report = collect_coverage(p.design, [test], p.signature)
        assert report.fsm_state == Fraction(1, 3)

    def test_reset_only_arbiter_hand_counted_ratios(self, problems):
        # hand count over the canonical arbiter text: 20 statements (outer
        # if, 3 reset assigns, case, 6 nested ifs, 8 transition assigns,
        # default arm assign, 2 grant assigns) and 18 branch arms (7 ifs x 2
        # plus 3 case items plus default); a reset-only run executes the
        # outer if, its 3 reset assigns, and takes 1 arm
        p = problems["arbiter2"]
        test = UnitTest("t", p.signature.stimulus_inputs, ((1, 0, 0), (1, 0, 0)))
        report = collect_coverage(p.design, [test], p.signature)
        assert report.line == Fraction(4, 20)
        assert report.branch == Fraction(1, 18)

    def test_union_is_order_independent(self, problems):
        p = problems["arbiter2"]
        t1 = parse_stimulus(valid_arbiter_stimulus(), p.signature, "t1")
        t2 = UnitTest("t2", p.signature.stimulus_inputs, ((1, 0, 0), (0, 0, 1), (0, 0, 1)))
        a = collect_coverage(p.design, [t1, t2], p.signature)
        b = collect_coverage(p.design, [t2, t1], p.signature)
        assert a == b

    def test_monotonicity(self, problems):
        p = problems["arbiter2"]
        t1 = parse_stimulus(valid_arbiter_stimulus(), p.signature, "t1")
        t2 = UnitTest("t2", p.signature.stimulus_inputs, ((1, 0, 0), (0, 0, 1), (0, 1, 1)))
        subset = collect_coverage(p.design, [t1], p.signature)
        superset = collect_coverage(p.design, [t1, t2], p.signature)
        assert subset.scalar <= superset.scalar

    def test_counter_has_no_fsm_category(self, problems):
        p = problems["counter3"]
        test = UnitTest("t", p.signature.stimulus_inputs, ((1, 0), (0, 1), (0, 1)))
        report = collect_coverage(p.design, [test], p.signature)
        assert report.fsm_state is None
        assert report.scalar > 0

    def test_uncovered_items_are_reported(self, problems):
        p = problems["arbiter2"]
        test = UnitTest("t", p.signature.stimulus_inputs, ((1, 0, 0),))
        report = collect_coverage(p.design, [test], p.signature)
        assert any("never" in item for item in report.uncovered)

    def test_each_bit_names_the_value_it_was_never_observed_at(self, problems):
        # a is held at 0b0001, so its bit 0 was never 0 and its other bits never 1
        p = problems["adder4"]
        test = UnitTest("t", p.signature.stimulus_inputs, ((1, 0, 0), (1, 0, 0)))
        report = collect_coverage(p.design, [test], p.signature)
        assert [item for item in report.uncovered if item.startswith("signal 'a'")] == [
            "signal 'a' bit 0 never observed at 0",
            "signal 'a' bit 1 never observed at 1",
            "signal 'a' bit 2 never observed at 1",
            "signal 'a' bit 3 never observed at 1",
        ]

    @pytest.mark.parametrize("extra_input, listed", [("", 40), (", input b", 41)])
    def test_uncovered_items_past_forty_are_counted(self, extra_input, listed):
        # every bit of a and y, and b if present, is never observed at 1
        design = elaborate_source(f"module m (input [19:0] a{extra_input}, output [19:0] y);\n"
                                  "  assign y = a;\nendmodule\n")
        signature = extract_signature(design)
        test = UnitTest("t", signature.stimulus_inputs,
                        (tuple(0 for _ in signature.stimulus_inputs),))
        uncovered = collect_coverage(design, [test], signature).uncovered
        assert sum(item.startswith("signal ") for item in uncovered) == 40
        assert uncovered[40:] == (("... and 1 more uncovered items",) if listed > 40 else ())

    def test_folding_into_a_copy_leaves_the_original(self, problems):
        p = problems["arbiter2"]
        reset_only = UnitTest("t1", p.signature.stimulus_inputs, ((1, 0, 0), (1, 0, 0)))
        walk = parse_stimulus(valid_arbiter_stimulus(), p.signature, "t2")
        original = CoverageCollector(p.design, p.signature)
        before = collect_coverage(p.design, [reset_only], p.signature, original)
        twin = original.copy()
        after = collect_coverage(p.design, [walk], p.signature, twin)
        assert after == collect_coverage(p.design, [reset_only, walk], p.signature)
        assert after.scalar > before.scalar
        assert original.report() == before


class TestStimulusFormat:
    def test_round_trip(self, problems):
        p = problems["arbiter2"]
        test = parse_stimulus(valid_arbiter_stimulus(), p.signature, "t")
        again = parse_stimulus(test.to_text(), p.signature, "t")
        assert again.rows == test.rows

    def test_comments_ignored(self, problems):
        p = problems["full_adder"]
        text = "# preamble\ninputs: a[1], b[1], c[1]\n0 0 1  # cycle 0\n1 1 0\n"
        test = parse_stimulus(text, p.signature, "t")
        assert test.rows == ((0, 0, 1), (1, 1, 0))

    def test_missing_header(self, problems):
        with pytest.raises(NoStimulusFound):
            parse_stimulus("0 0 0\n", problems["full_adder"].signature)

    def test_column_order_enforced(self, problems):
        with pytest.raises(MalformedStimulus):
            parse_stimulus("inputs: b[1], a[1], c[1]\n0 0 0\n", problems["full_adder"].signature)

    def test_width_enforced(self, problems):
        with pytest.raises(MalformedStimulus):
            parse_stimulus("inputs: a[4], b[4], cin[1]\n000 0000 0\n", problems["adder4"].signature)
        # a non-binary character inside a value of the right width
        with pytest.raises(MalformedStimulus) as exc:
            parse_stimulus("inputs: a[4], b[4], cin[1]\n1010 0101 1\n0a10 0000 0\n",
                           problems["adder4"].signature)
        assert str(exc.value) == "non-binary value '0a10' for a"
        assert exc.value.line == 3

    @pytest.mark.parametrize("column, message", [
        ("a[4", "malformed column 'a[4'"),
        ("a[4[5]", "malformed column width in 'a[4[5]'"),
    ])
    def test_malformed_column_names_the_header_line(self, problems, column, message):
        text = f"# a test\n# of the adder\ninputs: {column}, b[4], cin[1]\n1010 0101 1\n"
        with pytest.raises(MalformedStimulus) as exc:
            parse_stimulus(text, problems["adder4"].signature)
        assert str(exc.value) == message
        assert exc.value.line == 3

    def test_multibit_values(self, problems):
        p = problems["adder4"]
        test = parse_stimulus("inputs: a[4], b[4], cin[1]\n1010 0101 1\n", p.signature, "t")
        assert test.rows == ((10, 5, 1),)

    def test_invariants(self, problems):
        p = problems["full_adder"]
        with pytest.raises(ValueError):
            UnitTest("t", p.signature.stimulus_inputs, ())
        with pytest.raises(ValueError):
            UnitTest("t", p.signature.stimulus_inputs, ((2, 0, 0),))

    @given(st.text(alphabet="01 \n#:inputs[],arbcx", max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_parser_never_accepts_invalid_tests(self, problems, text):
        from svloop.errors import GatewayError

        p = problems["full_adder"]
        try:
            test = parse_stimulus(text, p.signature, "fz")
        except GatewayError:
            return
        # anything accepted must satisfy the type invariants outright
        assert test.columns == p.signature.stimulus_inputs
        assert test.cycles >= 1
        for row in test.rows:
            for value, port in zip(row, test.columns):
                assert 0 <= value < (1 << port.width)


class TestVcd:
    def test_round_trip_exhaustive_full_adder(self, problems):
        p = problems["full_adder"]
        test = exhaustive_test(p.signature)
        trace = run(p.design, test, p.signature)
        blob = export_vcd(trace, p.signature)
        loaded, loaded_sig = read_vcd(blob)
        names = [port.name for port in p.signature.inputs + p.signature.outputs]
        assert loaded.values == {n: trace.values[n] for n in names}
        assert loaded.cycles == trace.cycles
        assert [port.name for port in loaded_sig.inputs] == names

    def test_constant_trace_has_single_value_block(self, problems):
        p = problems["full_adder"]
        trace = run(p.design, UnitTest("t", p.signature.stimulus_inputs, ((0, 0, 0),)), p.signature)
        text = export_vcd(trace, p.signature).decode()
        assert text.count("#0") == 1
        assert "#1" not in text

    def test_rerun_is_byte_identical(self, problems):
        p = problems["arbiter2"]
        test = parse_stimulus(valid_arbiter_stimulus(), p.signature, "t")
        a = export_vcd(run(p.design, test, p.signature), p.signature)
        b = export_vcd(run(p.design, test, p.signature), p.signature)
        assert a == b
