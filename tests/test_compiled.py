"""Differential tests: the compiled simulator against the tree-walking
reference interpreter in ``reference_sim``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_sim import product_search_reference, run_reference
from svloop import mutate
from svloop.errors import NoApplicableSite, NoDistinctMutant
from svloop.frontend import elaborate_source, extract_signature, parse_design
from svloop.frontend.elaborate import MAX_WIDTH
from svloop.mutate import RANDOM_TEST_CYCLES, RANDOM_TESTS, inject, list_operators
from svloop.sim import CoverageCollector, UnitTest, run
from svloop.sim.engine import product_search
from svloop.sim.lower import lowered_source

PROBLEM_IDS = ["adder4", "arbiter2", "counter3", "full_adder", "seq_detect"]


def rows_for(signature, max_size=24):
    row = st.tuples(*(st.integers(0, (1 << p.width) - 1) for p in signature.stimulus_inputs))
    return st.lists(row, min_size=1, max_size=max_size)


def assert_same(design, signature, tests):
    """Traces and union coverage of ``tests`` equal the reference's."""
    compiled = CoverageCollector(design, signature)
    reference = CoverageCollector(design, signature)
    for test in tests:
        trace = run(design, test, signature)
        assert trace == run_reference(design, test, signature)
        assert run(design, test, signature, compiled) == trace
        run_reference(design, test, signature, reference)
    assert compiled.report() == reference.report()
    return trace, compiled.report()


class TestDeskDesigns:
    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    @given(data=st.data())
    @settings(max_examples=15)
    def test_reference_and_every_mutant_match_interpreter(self, problems, pid, data):
        problem = problems[pid]
        sig = problem.signature
        designs = [problem.design] + [elaborate_source(src) for _, src, _ in problem.mutants()]
        assert len(designs) > 1
        tests = [
            UnitTest(f"t{i}", sig.stimulus_inputs, tuple(data.draw(rows_for(sig))))
            for i in range(2)
        ]
        for design in designs:
            assert_same(design, sig, tests)

    def test_product_search_verdicts_match_interpreter(self, problems, monkeypatch):
        # every sequential candidate inject reaches at seed 1, searched while
        # its edit is applied: a candidate shares the reference parse
        verdicts = []
        real = mutate.find_witness
        cap = RANDOM_TESTS * RANDOM_TEST_CYCLES

        def recording(reference, candidate, signature, *args):
            verdict = product_search(reference, candidate, signature, cap)
            assert verdict is product_search_reference(reference, candidate, signature, cap)
            verdicts.append(verdict)
            return real(reference, candidate, signature, *args)

        monkeypatch.setattr(mutate, "find_witness", recording)
        for problem in problems.values():
            if not problem.design.is_sequential:
                continue
            ast = parse_design(problem.reference)
            for op in list_operators():
                try:
                    inject(problem.design, ast, op, seed=1)
                except (NoApplicableSite, NoDistinctMutant):
                    pass
        assert {True, False} <= set(verdicts)


SHIFT = """
module shl (input [3:0] a, input [69:0] s, output [3:0] y, output [3:0] k);
  assign y = a << s;
  assign k = a << 4;
endmodule
"""

MASKS = """
module neg (input [3:0] a, output [3:0] m, output [5:0] w, output [5:0] z);
  assign m = -a;
  assign w = ~a;
  assign z = -a;
endmodule
"""

LOGIC = """
module logic_ops (input [2:0] a, input [2:0] b,
                  output [2:0] y, output [2:0] z, output reg [2:0] q);
  assign y = a && b;
  assign z = a || b;
  always @(*) begin
    if (a && !b) q = 3'd4; else q = a || b;
  end
endmodule
"""

HOLD = """
module hold (input [1:0] s, input [2:0] a, output reg [2:0] y);
  always @(*) begin
    case (s)
      2'd0: y = a;
      2'd1: y = 3'd5;
    endcase
  end
endmodule
"""

EMPTY_THEN = """
module empty_then (input a, input b, output reg y);
  always @(*) begin
    y = 1'b0;
    if (a) begin
    end else y = b;
  end
endmodule
"""

COMB_NBA = """
module comb_nba (input [1:0] a, output reg [1:0] y, output [1:0] z);
  always @(*) begin
    y <= a + 2'd1;
  end
  assign z = y;
endmodule
"""


TOP = MAX_WIDTH - 1

# every vector exactly as wide as the elaborator allows
WIDE = f"""
module wide (input clk, input [{TOP}:0] a, input [{TOP}:0] b, input [11:0] s,
             output [{TOP}:0] y, output [{TOP}:0] z, output [{TOP}:0] m,
             output [{TOP}:0] k, output c, output reg [{TOP}:0] q);
  localparam P = {MAX_WIDTH}'h{"f" * (MAX_WIDTH // 4)};
  localparam Q = 3;
  assign y = (a + b) ^ P;
  assign z = (a << s) | (b >> s);
  assign m = -a;
  assign k = (a << Q) | (b << P);
  assign c = a < b;
  always @(posedge clk) q <= q + a;
endmodule
"""


def simulate(text, rows):
    design = elaborate_source(text)
    signature = extract_signature(design)
    test = UnitTest("t", signature.stimulus_inputs, tuple(rows))
    return assert_same(design, signature, [test])


class TestLoweringEdges:
    def test_shift_left_by_width_or_more_is_zero(self):
        rows = [(0b1011, 1), (0b1011, 3), (0b1011, 4), (0b1011, 9), (0b1011, 1 << 69)]
        trace, _ = simulate(SHIFT, rows)
        assert trace.values["y"] == (0b0110, 0b1000, 0, 0, 0)
        assert trace.values["k"] == (0,) * 5

    def test_unary_minus_and_not_mask_to_context_width(self):
        trace, _ = simulate(MASKS, [(0,), (1,), (15,)])
        assert trace.values["m"] == (0, 15, 1)
        assert trace.values["w"] == (63, 62, 48)
        assert trace.values["z"] == (0, 63, 49)

    def test_logical_operators_yield_one_bit(self):
        trace, _ = simulate(LOGIC, [(0, 0), (2, 0), (2, 4), (0, 4)])
        assert trace.values["y"] == (0, 0, 1, 0)
        assert trace.values["z"] == (0, 1, 1, 1)
        assert trace.values["q"] == (0, 4, 1, 1)

    def test_case_without_match_or_default_holds(self):
        trace, report = simulate(HOLD, [(0, 3), (2, 6), (1, 6), (3, 1)])
        assert trace.values["y"] == (3, 3, 5, 5)
        assert report.branch == 1

    def test_empty_if_body(self):
        trace, report = simulate(EMPTY_THEN, [(1, 1), (0, 1), (0, 0)])
        assert trace.values["y"] == (0, 1, 0)
        assert report.line == 1 and report.branch == 1

    def test_nonblocking_assignment_in_combinational_block(self):
        trace, _ = simulate(COMB_NBA, [(0,), (3,), (2,)])
        assert trace.values["y"] == (1, 0, 3)
        assert trace.values["z"] == (1, 0, 3)

    @pytest.mark.parametrize("text", [SHIFT, MASKS, LOGIC, HOLD, EMPTY_THEN, COMB_NBA])
    @given(data=st.data())
    @settings(max_examples=20)
    def test_fuzzed_stimuli_match_interpreter(self, text, data):
        design = elaborate_source(text)
        signature = extract_signature(design)
        rows = data.draw(rows_for(signature))
        assert_same(design, signature, [UnitTest("t", signature.stimulus_inputs, tuple(rows))])

    @given(data=st.data())
    @settings(max_examples=10)
    def test_design_at_the_width_cap_matches_interpreter(self, data):
        design = elaborate_source(WIDE)
        signature = extract_signature(design)
        assert {info.width for name, info in design.signals.items()
                if name not in ("clk", "s", "c")} == {MAX_WIDTH}
        rows = data.draw(rows_for(signature, max_size=6))
        assert_same(design, signature, [UnitTest("t", signature.stimulus_inputs, tuple(rows))])

    def test_deep_nesting_compiles(self):
        # nesting deeper than Python's parser limits is split into
        # spilled locals and helper functions
        chain = " + ".join("a" for _ in range(150))
        arms = "".join(f"else if (a == 8'd{i}) y = 8'd{i + 1};\n" for i in range(1, 120))
        text = f"""
        module deep (input [7:0] a, output [7:0] s, output reg [7:0] y);
          assign s = {chain};
          always @(*) begin
            if (a == 8'd0) y = 8'd1;
            {arms}
            else y = 8'd0;
          end
        endmodule
        """
        trace, _ = simulate(text, [(0,), (1,), (119,), (120,), (255,)])
        assert trace.values["s"] == tuple(a * 150 % 256 for a in (0, 1, 119, 120, 255))
        assert trace.values["y"] == (1, 2, 120, 0, 0)

    def test_generated_source_holds_no_design_text(self):
        text = """
        module zq_mod (input clk, input zq_in, output reg zq_out, output zq_wire);
          always @(posedge clk) zq_out <= zq_in;
          assign zq_wire = ~zq_out;
        endmodule
        """
        design = elaborate_source(text)
        for instrumented in (False, True):
            source = lowered_source(design, instrumented)
            assert "zq" not in source
            assert ("S(" in source) is instrumented
