"""Differential tests: the compiled simulator against the tree-walking
reference interpreter in ``reference_sim``."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_sim import product_search_reference, run_reference
from svloop import mutate
from svloop.errors import NoApplicableSite, NoDistinctMutant, ParseError
from svloop.frontend import ast_to_source, elaborate_source, extract_signature, parse_design
from svloop.frontend.elaborate import MAX_WIDTH
from svloop.frontend.parser import MAX_EXPR_DEPTH
from svloop.mutate import RANDOM_TEST_CYCLES, RANDOM_TESTS, inject, list_operators
from svloop.sim import CoverageCollector, UnitTest, run
from svloop.sim.engine import product_search
from svloop.sim.lower import harness_source, lowered_source

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

# harness shapes: a negedge-clocked process, two asynchronous trigger
# inputs that a row can change together (processes 0 and 2 share ``ra``,
# 1 and 2 share ``rb``: one union, fired in process order), an
# asynchronous trigger that reads a net settled from a negedge register
# in the same row, and edge-triggered processes with no harness clock
NEGEDGE = """
module neg_clk (input clk, input rst, input [2:0] d,
                output reg [2:0] q, output reg [2:0] r, output [2:0] s);
  always @(negedge clk) begin
    if (rst) q <= 3'd0; else q <= q + d;
  end
  always @(posedge clk) r <= q ^ d;
  assign s = q + r;
endmodule
"""

TWO_ASYNC = """
module two_async (input clk, input ra, input rb, input [1:0] d,
                  output reg [1:0] p, output reg [1:0] q, output reg [1:0] r);
  always @(posedge clk or posedge ra) begin
    if (ra) p <= 2'd0; else p <= p + d;
  end
  always @(posedge clk or negedge rb) begin
    if (!rb) q <= p; else q <= q ^ d;
  end
  always @(posedge clk or posedge ra or negedge rb) begin
    if (ra || !rb) r <= r + p + q; else r <= d;
  end
endmodule
"""

NEG_ASYNC = """
module neg_async (input clk, input ra, input [2:0] d, output reg [2:0] q,
                  output [2:0] w, output reg [2:0] p, output reg [2:0] g);
  always @(negedge clk) q <= q + d;
  assign w = q;
  always @(posedge clk or posedge ra) begin
    if (ra) p <= p + w; else p <= p ^ d;
  end
  always @(*) begin
    if (clk && q == 3'd7) g = w; else g = ~w;
  end
endmodule
"""

UNCLOCKED = """
module unclocked (input a, input b, input [1:0] d, output reg [1:0] x, output reg [1:0] y);
  always @(posedge a) x <= x + d;
  always @(negedge a or posedge b) begin
    if (b) y <= 2'd0; else y <= y ^ x;
  end
endmodule
"""


def harness_signature(design, text):
    """The design's signature; UNCLOCKED runs with no harness clock, so
    its processes fire on stimulus edges only."""
    signature = extract_signature(design)
    return replace(signature, clock=None) if text is UNCLOCKED else signature


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

    @pytest.mark.parametrize("text", [SHIFT, MASKS, LOGIC, HOLD, EMPTY_THEN, COMB_NBA,
                                      NEGEDGE, TWO_ASYNC, NEG_ASYNC, UNCLOCKED])
    @given(data=st.data())
    @settings(max_examples=20)
    def test_fuzzed_stimuli_match_interpreter(self, text, data):
        design = elaborate_source(text)
        signature = harness_signature(design, text)
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
        module zq_mod (input clk, input zq_rst, input zq_in, output reg zq_out,
                       output zq_wire);
          always @(posedge clk or posedge zq_rst) begin
            if (zq_rst) zq_out <= 1'b0; else zq_out <= zq_in;
          end
          assign zq_wire = ~zq_out;
        endmodule
        """
        design = elaborate_source(text)
        for instrumented in (False, True):
            source = lowered_source(design, instrumented)
            assert "zq" not in source
            # coverage probes are list stores into the hit list ``H``
            assert ("H[" in source) is instrumented
        source = harness_source(design, extract_signature(design))
        assert "zq" not in source and "if t & 1:" in source


CAP = MAX_EXPR_DEPTH


def capped_shapes(levels: int) -> dict[str, str]:
    """Expressions ``levels`` deep, where each operator and each pair of
    parentheses on the way to a leaf is one level."""
    half = levels // 2
    return {
        "left chain": " + ".join(["a"] * (levels + 1)),
        "parentheses": "(" * levels + "a" + ")" * levels,
        "unary": "~" * levels + "a",
        "ternary": "b ? a : " * levels + "a",
        "right chain": "(a - " * half + "b" + ")" * half,
        "logic": "(a && " * half + "b" + ")" * half,
    }


def capped_design(levels: int) -> str:
    shapes = capped_shapes(levels)
    return f"""
module capped (input [7:0] a, input [7:0] b, output [7:0] s, output [7:0] t,
               output [7:0] u, output [7:0] w, output reg [7:0] y);
  assign s = {shapes["left chain"]};
  assign t = {shapes["parentheses"]};
  assign u = {shapes["unary"]};
  assign w = {shapes["right chain"]};
  always @(*) begin
    if ({shapes["logic"]}) y = {shapes["ternary"]};
    else y = 8'd0;
  end
endmodule
"""


class TestDepthCap:
    def test_every_pass_runs_at_the_cap(self):
        # parse, print and re-parse, elaborate, lower both variants and run
        # them against the reference interpreter, all under the default
        # recursion limit
        text = capped_design(CAP)
        ast = parse_design(text)
        assert parse_design(ast_to_source(ast)) == ast
        design = elaborate_source(text)
        signature = extract_signature(design)
        rows = [(0, 0), (1, 2), (255, 7), (3, 0), (128, 128)]
        trace, report = assert_same(design, signature,
                                    [UnitTest("t", signature.stimulus_inputs, tuple(rows))])
        assert trace.values["s"] == tuple(a * (CAP + 1) % 256 for a, _ in rows)
        assert trace.values["t"] == tuple(a for a, _ in rows)
        assert report.line == 1

    @pytest.mark.parametrize("shape", sorted(capped_shapes(2)))
    def test_one_level_past_the_cap_is_a_positioned_parse_error(self, shape):
        levels = CAP + 1 if shape in ("left chain", "parentheses", "unary", "ternary") else CAP + 2
        text = f"module m (input [7:0] a, input [7:0] b, output [7:0] y);\n" \
               f"  assign y = {capped_shapes(levels)[shape]};\nendmodule\n"
        with pytest.raises(ParseError, match=f"nests deeper than {CAP} levels") as info:
            parse_design(text)
        assert info.value.line == 2 and info.value.col > 0
        # far past the cap: refused before the parser's recursion runs out
        with pytest.raises(ParseError):
            parse_design(text.replace(capped_shapes(levels)[shape],
                                      capped_shapes(20 * CAP)[shape]))
