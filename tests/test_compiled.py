"""Differential tests: the compiled simulator against the tree-walking
reference interpreter in ``reference_sim``."""

import hashlib
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_elaborate
from reference_sim import ReferenceMachine, product_search_reference, run_reference
from svloop import mutate
from svloop.errors import NoApplicableSite, NoDistinctMutant, ParseError
from svloop.frontend.ast import DesignSource
from svloop.frontend.elaborate import MAX_WIDTH, elaborate_source
from svloop.frontend.parser import MAX_EXPR_DEPTH, MAX_STMT_DEPTH, parse_design
from svloop.frontend.printer import ast_to_source
from svloop.frontend.signature import extract_signature
from svloop.manifest import load_corpus
from svloop.mutate import OPERATORS, RANDOM_TEST_CYCLES, RANDOM_TESTS, inject
from svloop.sim import engine
from svloop.sim.coverage import CoverageCollector
from svloop.sim.engine import Trace, _bound, product_search, run
from svloop.sim.lower import harness_source, lower, lowered_source
from svloop.sim.stimulus import UnitTest

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


# Parametrised @given tests are module-level functions: in a class, pytest
# gives each parameter its own instance, and unless hypothesis's pytest plugin
# is loaded (it exempts parametrised tests) that fails the test's
# HealthCheck.differing_executors.

@pytest.mark.parametrize("pid", PROBLEM_IDS)
@given(data=st.data())
@settings(max_examples=15)
def test_desk_reference_and_every_mutant_match_interpreter(problems, pid, data):
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


class TestDeskDesigns:
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
            for op in OPERATORS:
                try:
                    inject(problem, ast, op, seed=1)
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

DEFAULT_ONLY = """
module default_only (input [1:0] a, output reg [1:0] y);
  always @(*) begin
    y = 2'd0;
    case (a)
      default: y = ~a;
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


# operands evaluated at a width other than their own: a shift amount that
# wraps at its own width inside a wider target, and a sum compared with,
# or cased on, a wider constant
WIDTHS = """
module widths (input [7:0] a, input [1:0] b, input [3:0] c, input [3:0] d,
               output [7:0] y, output z, output reg w);
  assign y = a << (b + 2'd3);
  assign z = (c + d) == 5'd16;
  always @(*) begin
    case (c + d)
      5'd16, 5'd17: w = 1'b1;
      default: w = 1'b0;
    endcase
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


EDGES = [SHIFT, MASKS, LOGIC, HOLD, DEFAULT_ONLY, EMPTY_THEN, COMB_NBA, NEGEDGE, TWO_ASYNC,
         NEG_ASYNC, UNCLOCKED, WIDTHS]


@pytest.mark.parametrize("text", EDGES)
@given(data=st.data())
@settings(max_examples=20)
def test_lowering_edges_match_interpreter_on_fuzzed_stimuli(text, data):
    design = elaborate_source(text)
    signature = harness_signature(design, text)
    rows = data.draw(rows_for(signature))
    assert_same(design, signature, [UnitTest("t", signature.stimulus_inputs, tuple(rows))])


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

    def test_case_with_only_a_default_arm_runs_it(self):
        trace, report = simulate(DEFAULT_ONLY, [(0,), (2,), (3,)])
        assert trace.values["y"] == (3, 1, 0)
        assert report.line == 1 and report.branch == 1

    def test_empty_if_body(self):
        trace, report = simulate(EMPTY_THEN, [(1, 1), (0, 1), (0, 0)])
        assert trace.values["y"] == (0, 1, 0)
        assert report.line == 1 and report.branch == 1

    def test_nonblocking_assignment_in_combinational_block(self):
        trace, _ = simulate(COMB_NBA, [(0,), (3,), (2,)])
        assert trace.values["y"] == (1, 0, 3)
        assert trace.values["z"] == (1, 0, 3)

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


def run_every_cycle(design, test, signature, collector=None):
    """``run`` without its memo: every cycle is stepped and every sample
    folded on its own."""
    step, start, _, probes, hits, cleared = _bound(design, signature, collector is not None)
    values = list(start)
    hits[:] = cleared
    samples = []
    for row in test.rows:
        step(values, row)
        samples.append(tuple(values))
    trace = Trace(dict(zip(design.signals, zip(*samples))), test.cycles)
    if collector is not None:
        collector.hit.update(key for (key, _), h in zip(probes, hits) if h)
        for name in collector.ones:
            for value in trace.values[name]:
                collector.ones[name] |= value
                collector.zeros[name] |= ~value & collector._masks[name]
        for reg in collector.fsm_seen:
            collector.fsm_seen[reg].update(trace.values[reg])
    return trace


def fields(collector):
    return (collector.hit, collector.ones, collector.zeros,
            collector.fsm_seen)


def transitions(design, signature, test) -> int:
    """The number of distinct (state, row) pairs ``test`` steps through,
    states read off the reference interpreter."""
    machine = ReferenceMachine(design, signature)
    machine.settle()
    pairs = set()
    for row in test.rows:
        pairs.add((machine.state(), row))
        machine.step(row)
    return len(pairs)


def repeated_test(signature, seed, cycles=1000, distinct=6, resets=(0, 1, 400, 401, 700)):
    """``cycles`` rows drawn from ``distinct`` random rows, with the reset
    (if any) asserted at the cycles in ``resets`` only."""
    rng = random.Random(seed)
    pool = [tuple(rng.getrandbits(p.width) for p in signature.stimulus_inputs)
            for _ in range(distinct)]
    reset = signature.reset
    names = [p.name for p in signature.stimulus_inputs]
    rows = []
    for n in range(cycles):
        row = list(rng.choice(pool))
        if reset is not None:
            row[names.index(reset.name)] = int((n in resets) == reset.active_high)
        rows.append(tuple(row))
    return UnitTest("t", signature.stimulus_inputs, tuple(rows))


@pytest.fixture()
def steps(monkeypatch):
    """A one-item list counting the cycles ``run`` steps."""
    count = [0]

    def bound(*args):
        step, *rest = _bound(*args)

        def counted(values, row):
            count[0] += 1
            step(values, row)

        return (counted, *rest)

    monkeypatch.setattr(engine, "_bound", bound)
    return count


def assert_memoized(design, signature, test, steps):
    """``run`` steps each distinct transition of ``test`` once, plain and
    instrumented, and its trace and every collector field equal those of
    stepping every cycle and of the reference interpreter."""
    distinct = transitions(design, signature, test)
    assert distinct < test.cycles
    every = CoverageCollector(design, signature)
    expected = run_every_cycle(design, test, signature, every)
    reference = CoverageCollector(design, signature)
    assert run_reference(design, test, signature, reference) == expected
    assert fields(reference) == fields(every)
    for collector in (None, CoverageCollector(design, signature)):
        steps[0] = 0
        assert run(design, test, signature, collector) == expected
        assert steps[0] == distinct
    assert fields(collector) == fields(every)


class TestMemo:
    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_desk_designs_step_each_transition_once(self, problems, pid, steps):
        problem = problems[pid]
        designs = [problem.design] + [elaborate_source(src) for _, src, _ in problem.mutants()]
        for seed, design in enumerate(designs):
            assert_memoized(design, problem.signature,
                            repeated_test(problem.signature, seed), steps)

    def test_arbiter_reset_asserted_mid_run(self, problems, steps):
        sig = problems["arbiter2"].signature
        test = repeated_test(sig, 7, resets=(0, 1, 333, 500, 501, 502, 998))
        rst = [p.name for p in sig.stimulus_inputs].index(sig.reset.name)
        assert test.rows[500][rst] == 1 and test.rows[499][rst] == 0
        assert_memoized(problems["arbiter2"].design, sig, test, steps)

    @pytest.mark.parametrize("text", [HOLD, NEGEDGE, TWO_ASYNC, UNCLOCKED])
    def test_held_and_edge_triggered_state(self, text, steps):
        # HOLD keeps a combinational value no row drives: it is part of the
        # state a transition is keyed by
        design = elaborate_source(text)
        signature = harness_signature(design, text)
        assert_memoized(design, signature, repeated_test(signature, 3, distinct=5), steps)


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

    @pytest.mark.parametrize("op", ["==", "<"])
    def test_a_comparison_chain_at_the_cap_runs(self, op):
        # each comparison's left operand is one level deeper, or the chain
        # lowers to more nested parentheses than Python compiles
        chain = f" {op} ".join(["a"] * (CAP + 1))
        text = (f"module m (input [7:0] a, input [7:0] b, output [7:0] y, output reg [7:0] z);\n"
                f"  assign y = {chain};\n  always @(*) if ({chain}) z = a; else z = b;\nendmodule\n")
        design = elaborate_source(text)
        signature = extract_signature(design)
        rows = [(0, 0), (1, 2), (255, 7), (3, 0)]
        assert_same(design, signature, [UnitTest("t", signature.stimulus_inputs, tuple(rows))])

    def test_a_logic_chain_over_an_arithmetic_chain_runs(self):
        # each logic operator's left operand is one level deeper, or the 97
        # operand sum under 52 ``&&`` lowers to more nested parentheses than
        # Python compiles
        chain = " + ".join(["a"] * 97) + " && b" * 52
        text = (f"module m (input [3:0] a, input [3:0] b, output y, output reg z);\n"
                f"  assign y = {chain};\n  always @(*) if ({chain}) z = 1; else z = 0;\n"
                "endmodule\n")
        design = elaborate_source(text)
        signature = extract_signature(design)
        rows = [(0, 0), (1, 2), (15, 7), (3, 0), (0, 15)]
        trace, _ = assert_same(design, signature,
                               [UnitTest("t", signature.stimulus_inputs, tuple(rows))])
        expected = tuple(int(a * 97 % 16 != 0 and b != 0) for a, b in rows)
        assert trace.values["y"] == trace.values["z"] == expected

    # a level is refused where it opens, at the token after its operator or
    # parenthesis, or where it closes past the cap, at its operator (the
    # left chain's 151st ``+``); far past the cap the error is the same
    @pytest.mark.parametrize("shape,col", [
        ("left chain", 616), ("logic", 465), ("parentheses", 165), ("right chain", 390),
        ("ternary", 1218), ("unary", 165),
    ])
    def test_one_level_past_the_cap_is_a_positioned_parse_error(self, shape, col):
        levels = CAP + 1 if shape in ("left chain", "parentheses", "unary", "ternary") else CAP + 2
        text = f"module m (input [7:0] a, input [7:0] b, output [7:0] y);\n" \
               f"  assign y = {capped_shapes(levels)[shape]};\nendmodule\n"
        for expr in (capped_shapes(levels)[shape], capped_shapes(20 * CAP)[shape]):
            with pytest.raises(ParseError, match=f"nests deeper than {CAP} levels") as info:
                parse_design(text.replace(capped_shapes(levels)[shape], expr))
            assert (info.value.line, info.value.col) == (2, col)


def nested_statements(levels: int, inner: str) -> dict[str, str]:
    """``inner`` at statement level ``levels`` of a process, under
    ``levels - 1`` ifs, else arms, nested begin-end blocks or case arms."""
    n = levels - 1
    return {
        "if": "if (a) " * n + inner,
        "else": "if (b == 8'd7) y = 8'd1; else " * n + inner,
        "begin": "begin " * n + inner + " end" * n,
        "case": "case (b) 8'd3, 8'd5: " * n + inner + " endcase" * n,
    }


def stmt_capped_design(shape: str, expr_shape: str, levels: int) -> str:
    inner = f"y = {capped_shapes(CAP)[expr_shape]};"
    return f"""module stmt_capped (input [7:0] a, input [7:0] b, output reg [7:0] y);
  always @(*) begin
    y = 8'd0;
    {nested_statements(levels, inner)[shape]}
  end
endmodule
"""


class TestStatementDepthCap:
    @pytest.mark.parametrize("expr_shape", ["parentheses", "unary", "ternary", "right chain"])
    @pytest.mark.parametrize("shape", ["if", "else", "begin", "case"])
    def test_every_pass_runs_at_both_caps(self, shape, expr_shape):
        text = stmt_capped_design(shape, expr_shape, MAX_STMT_DEPTH)
        # printing adds no level; AST equality itself would recurse past the
        # limit here, so the round trip is checked on the printed text
        printed = ast_to_source(parse_design(text))
        assert ast_to_source(parse_design(printed)) == printed
        design = elaborate_source(text)
        signature = extract_signature(design)
        rows = [(0, 0), (1, 5), (255, 7), (3, 3), (128, 128)]
        trace, _ = assert_same(design, signature,
                               [UnitTest("t", signature.stimulus_inputs, tuple(rows))])
        assert len(set(trace.values["y"])) > 1

    @pytest.mark.parametrize("shape,col", [("if", 901), ("else", 3830), ("begin", 773),
                                           ("case", 2693)])
    def test_one_level_past_the_cap_is_a_positioned_parse_error(self, shape, col):
        text = stmt_capped_design(shape, "parentheses", MAX_STMT_DEPTH + 1)
        with pytest.raises(ParseError, match=f"statements nest deeper than {MAX_STMT_DEPTH} "
                                             "levels") as info:
            parse_design(text)
        assert (info.value.line, info.value.col) == (4, col)
        assert text.splitlines()[3][col - 1:].startswith("y = ")
        # far past the cap: refused at the same statement, before the
        # parser's recursion runs out
        with pytest.raises(ParseError, match="statements nest deeper") as info:
            parse_design(stmt_capped_design(shape, "parentheses", 20 * MAX_STMT_DEPTH))
        assert (info.value.line, info.value.col) == (4, col)


def stack_depth() -> int:
    """The number of Python frames on the stack, the caller's included."""
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def from_depth(depth: int, fn):
    """``fn()``, called from a caller ``depth`` frames deep."""
    if stack_depth() < depth:
        return from_depth(depth, fn)
    return fn()


def every_pass(text):
    """Parse, print and reparse, elaborate, signature, both lowered variants
    and an instrumented run of ``text``: its trace and coverage."""
    printed = ast_to_source(parse_design(text))
    assert ast_to_source(parse_design(printed)) == printed
    design = elaborate_source(text)
    signature = extract_signature(design)
    for instrumented in (False, True):
        lower(design, instrumented)
    rows = [(0, 0), (1, 5), (255, 7), (3, 3), (128, 128)]
    collector = CoverageCollector(design, signature)
    trace = run(design, UnitTest("t", signature.stimulus_inputs, tuple(rows)), signature,
                collector)
    return trace, collector.report()


class TestStackBudget:
    # every pass fits under the default recursion limit with 300 frames
    # already on the stack, for designs at both nesting caps
    @pytest.mark.parametrize("text", [pytest.param(capped_design(CAP), id="expressions")] + [
        pytest.param(stmt_capped_design(shape, expr_shape, MAX_STMT_DEPTH),
                     id=f"{shape}-{expr_shape}")
        for shape in ["if", "else", "begin", "case"] for expr_shape in sorted(capped_shapes(2))
    ])
    def test_every_pass_runs_from_a_deep_caller(self, text):
        assert sys.getrecursionlimit() == 1000
        assert from_depth(300, lambda: every_pass(text)) == every_pass(text)


FIXTURES = Path(__file__).parent / "fixtures"

# sha256 of both lowered variants of every pinned design, as written when
# elaboration annotated each expression with its evaluation width
LOWERED_DIGEST = "ccde02958e1156c207fd23545be19dcfbff1dde010ad928f35bd24897e84156a"


def pinned_designs(problems) -> list[str]:
    """The desk references, the candidate every site of every operator
    gives on each, and the fixture designs."""
    texts = []
    for problem in problems:
        texts.append(problem.reference.text)
        ast = parse_design(problem.reference)
        for op in OPERATORS:
            for _, _, node, attribute, value in mutate._collect_sites(
                    op, ast, problem.design, problem.signature):
                original = getattr(node, attribute)
                setattr(node, attribute, value)
                texts.append(ast_to_source(ast))
                setattr(node, attribute, original)
    return texts + [path.read_text() for path in sorted(FIXTURES.rglob("*.sv"))]


class TestLoweredTextPinned:
    def test_both_variants_of_every_pinned_design(self, fresh_corpus):
        texts = pinned_designs(load_corpus(fresh_corpus))
        digest = hashlib.sha256()
        for text in texts:
            design = elaborate_source(text)
            for instrumented in (False, True):
                digest.update(lowered_source(design, instrumented).encode())
        assert len(texts) == 172
        assert digest.hexdigest() == LOWERED_DIGEST


class TestProbeInventory:
    def test_probes_are_the_statements_and_arms_elaboration_numbered(self, fresh_corpus):
        # the coverage points and their keys and lines, as lowering's probes
        # give them, against the numbering elaboration wrote onto the tree
        texts = (pinned_designs(load_corpus(fresh_corpus)) + EDGES + [WIDE]
                 + [stmt_capped_design(shape, "parentheses", MAX_STMT_DEPTH)
                    for shape in ("if", "else", "begin", "case")])
        arms = 0
        for text in texts:
            _, probes = lower(elaborate_source(text), True)
            source = DesignSource(text)
            lines, branch_arms = reference_elaborate.number_statements(
                reference_elaborate.elaborate(parse_design(source), source))
            expected = [*enumerate(lines), *((arm, lines[arm[0]]) for arm in branch_arms)]
            assert sorted(probes, key=repr) == sorted(expected, key=repr), text
            arms += len(branch_arms)
        assert len(texts) == 189 and arms == 2716
