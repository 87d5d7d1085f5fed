import copy
import sys

import pytest

from support import OracleBackedResponder
from svloop.errors import (
    AmbiguousClock,
    CombinationalLoop,
    MultipleDrivers,
    ParseError,
    UnsupportedConstruct,
    WidthMismatch,
)
from svloop.frontend.ast import DesignSource, Ident
from svloop.frontend.elaborate import elaborate, elaborate_source
from svloop.frontend.parser import parse_design
from svloop.frontend.printer import ast_to_source
from svloop.frontend.signature import extract_signature
from svloop.manifest import RunConfig
from svloop.matrix import evaluate_problem
from svloop.mutate import make_corpus

FULL_ADDER = """
module full_adder (
  input a,
  input b,
  input c,
  output reg s,
  output reg cout
);
  wire [1:0] total;
  assign total = (a + b) + c;
  always @(*) begin
    s = 1'b0;
    cout = 1'b0;
    if (total == 2'd1 || total == 2'd3)
      s = 1'b1;
    if (total >= 2'd2)
      cout = 1'b1;
  end
endmodule
"""

ARBITER = """
module arbiter2 (
  input clk,
  input rst,
  input r1,
  input r2,
  output reg g1,
  output reg g2
);
  localparam IDLE = 2'd0;
  localparam GRANT1 = 2'd1;
  reg [1:0] State;
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      State <= IDLE;
      g1 <= 1'b0;
      g2 <= 1'b0;
    end else begin
      if (r1)
        State <= GRANT1;
      g1 <= State == GRANT1;
      g2 <= 1'b0;
    end
  end
endmodule
"""


class TestParse:
    def test_full_adder_ports(self):
        ast = parse_design(DesignSource(FULL_ADDER))
        assert [p.name for p in ast.ports if p.direction == "input"] == ["a", "b", "c"]
        assert [p.name for p in ast.ports if p.direction == "output"] == ["s", "cout"]

    def test_empty_text_is_error(self):
        with pytest.raises(ValueError):
            DesignSource("")
        with pytest.raises(ParseError):
            parse_design(DesignSource("   \n// just a comment\n"))

    def test_arbiter_has_one_clocked_process(self):
        source = DesignSource(ARBITER)
        ast = parse_design(source)
        design = elaborate(ast, source)
        assert len(design.seq_processes) == 1
        assert len([p for p in ast.ports if p.direction == "input"]) == 4

    def test_classic_port_style(self):
        text = """
        module buf2 (a, y);
          input a;
          output y;
          assign y = a;
        endmodule
        """
        ast = parse_design(DesignSource(text))
        assert [p.name for p in ast.ports] == ["a", "y"]

    def test_undeclared_identifier(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_design(DesignSource("module m (input a, output y);\n assign y = b;\nendmodule"))

    def test_duplicate_port(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_design(DesignSource("module m (input a, input a, output y);\nassign y = a;\nendmodule"))

    @pytest.mark.parametrize(
        "snippet,needle",
        [
            ("module m (input a, output y);\n assign y = a[0];\nendmodule", "select"),
            ("module m (input a, output y);\n assign y = {a, a};\nendmodule", "concatenation"),
            ("module m (input a, output y);\n sub u1 (a, y);\nendmodule", "instantiation"),
            ("module m (input a, output y);\n initial y = a;\nendmodule", "initial"),
            ("module m (input a, output y);\n assign y = 1'bx;\nendmodule", "4-state"),
            ("module m (input a, output y);\n always @(a) y = a;\nendmodule", "sensitivity"),
            ("module m (input a, output y);\nendmodule\nmodule n (input a, output y);\nendmodule",
             "multiple modules"),
        ],
    )
    def test_out_of_subset_is_rejected_distinctly(self, snippet, needle):
        with pytest.raises(UnsupportedConstruct, match=needle):
            parse_design(DesignSource(snippet))

    @pytest.mark.parametrize(
        "literal",
        ["1" * 4301, "1" * 4301 + "'d1", "8'd" + "1" * 4301],
        ids=["decimal", "based-size", "d-base-digits"],
    )
    def test_literal_past_the_int_string_limit_is_a_positioned_parse_error(self, literal):
        text = f"module m (input [3:0] a, output [3:0] y);\n  assign y = a + {literal};\nendmodule\n"
        with pytest.raises(ParseError) as exc:
            parse_design(DesignSource(text))
        assert (exc.value.line, exc.value.col) == (2, 18)
        assert str(exc.value) == "decimal literal of 4301 digits exceeds Python's 4300-digit limit"

    def test_long_literals_within_the_limit_still_parse(self):
        for literal, value in [("1" * 4300, int("1" * 4300)), ("8'h" + "f" * 5000, (1 << 20000) - 1)]:
            text = f"module m (input [3:0] a, output [3:0] y);\n  assign y = a + {literal};\nendmodule\n"
            assign = parse_design(DesignSource(text)).items[-1]
            assert assign.expr.right.value == value
        with pytest.raises(ParseError, match="malformed d-base literal"):
            parse_design(DesignSource(
                "module m (input [3:0] a, output [3:0] y);\n  assign y = a + 8'd1a;\nendmodule\n"))

    def test_decimal_literals_parse_where_python_has_no_digit_limit(self, monkeypatch):
        # Python before 3.10.7, which requires-python admits, has no
        # sys.get_int_max_str_digits
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        text = "module m (input [7:0] a, output [7:0] y);\n  assign y = a + 8'd12 + 3;\nendmodule\n"
        assign = parse_design(DesignSource(text)).items[-1]
        assert (assign.expr.left.right.value, assign.expr.right.value) == (12, 3)

    def test_case_without_arms_is_refused_at_its_keyword(self):
        text = "module m (input a, output reg y);\n  always @(*) begin\n    y = a;\n" \
               "    case (a) endcase\n  end\nendmodule\n"
        with pytest.raises(ParseError, match="empty case statement") as exc:
            parse_design(DesignSource(text))
        assert (exc.value.line, exc.value.col) == (4, 5)

    def test_syntax_error_carries_position(self):
        try:
            parse_design(DesignSource("module m (input a output y);\nendmodule"))
        except ParseError as exc:
            assert exc.line == 1 and exc.col > 0
            assert ":" in exc.diagnostic("f.sv")
        else:
            pytest.fail("expected ParseError")


class TestRoundTrip:
    def test_desk_corpus_round_trips(self, problems):
        for problem in problems.values():
            ast = parse_design(problem.reference)
            printed = ast_to_source(ast)
            assert parse_design(DesignSource(printed)) == ast

    @pytest.mark.parametrize("expr", ["a || b ? c : d", "a ? b : c ? d : e",
                                      "(a ? b : c) ? d : e", "a - (b - c)",
                                      "(a || b) && c", "~(a & b)"])
    def test_parentheses_only_where_precedence_needs_them(self, expr):
        # mutant texts are printed, so the printer's parentheses are corpus bytes
        text = f"module m (input a, b, c, d, e, output y);\n  assign y = {expr};\nendmodule\n"
        assert f"  assign y = {expr};\n" in ast_to_source(parse_design(text))

    def test_mutants_round_trip(self, problems):
        for problem in problems.values():
            for bc_id, source, _ in problem.mutants():
                ast = parse_design(source)
                assert parse_design(DesignSource(ast_to_source(ast))) == ast


class TestElaborate:
    def test_full_adder_structure(self, problems):
        design = problems["full_adder"].design
        assert len(design.cont_assigns) == 3
        assert len(design.comb_processes) == 1
        assert len(design.seq_processes) == 0

    def test_combinational_loop(self):
        text = "module m (input a, output x);\n wire y;\n assign x = y;\n assign y = x;\nendmodule"
        with pytest.raises(CombinationalLoop):
            elaborate_source(text)

    def test_self_loop(self):
        text = "module m (input a, output reg y);\n always @(*) y = y ^ a;\nendmodule"
        with pytest.raises(CombinationalLoop):
            elaborate_source(text)

    def test_multiple_drivers(self):
        text = "module m (input a, output y);\n assign y = a;\n assign y = ~a;\nendmodule"
        with pytest.raises(MultipleDrivers):
            elaborate_source(text)

    def test_literal_overflow(self):
        text = "module m (input a, output y);\n assign y = a + 2'd5;\nendmodule"
        with pytest.raises(WidthMismatch):
            elaborate_source(text)

    def test_parameter_resolution(self):
        text = """
        module m (input [3:0] a, output y);
          parameter W = 4;
          localparam LIMIT = W + 2;
          assign y = a >= LIMIT;
        endmodule
        """
        design = elaborate_source(text)
        assert design.params["LIMIT"][0] == 6

    def test_arbiter_async_sensitivity(self, problems):
        design = problems["arbiter2"].design
        proc = design.seq_processes[0]
        assert [(e.edge, e.signal) for e in proc.events] == [
            ("posedge", "clk"),
            ("posedge", "rst"),
        ]

    def test_elaboration_leaves_the_parse_as_written(self):
        source = DesignSource(ARBITER)
        ast = parse_design(source)
        printed = ast_to_source(ast)
        design = elaborate(ast, source)
        # the design shares the given nodes and only annotates them
        assert design.seq_processes[0] is ast.items[-1]
        assert ast_to_source(ast) == printed
        assert ast == parse_design(source)
        reset_state = design.seq_processes[0].body[0].then_body[0]
        assert reset_state.expr == Ident("IDLE")
        assert reset_state.expr.eval_width == 2


class TestNoAstCopies:
    def test_corpus_build_and_evaluation_copy_no_ast(self, problems, tmp_path,
                                                     monkeypatch):
        calls = []
        real = copy.deepcopy

        def counting(*args, **kwargs):
            calls.append(type(args[0]).__name__)
            return real(*args, **kwargs)

        monkeypatch.setattr(copy, "deepcopy", counting)
        for problem in problems.values():
            make_corpus(problem, seed=1)
        responder = OracleBackedResponder(list(problems.values()), seed=0)
        config = RunConfig(provider="mock", script_dir="(in-memory)", seed=1)
        evaluate_problem(problems["arbiter2"], config, responder, tmp_path / "arb")
        assert calls == []


class TestSignature:
    def test_full_adder(self, problems):
        sig = problems["full_adder"].signature
        assert [p.name for p in sig.inputs] == ["a", "b", "c"]
        assert [p.name for p in sig.outputs] == ["s", "cout"]
        assert sig.clock is None and sig.reset is None

    def test_arbiter_roles(self, problems):
        sig = problems["arbiter2"].signature
        assert sig.clock == "clk"
        assert sig.reset.name == "rst"
        assert sig.reset.active_high and not sig.reset.synchronous

    def test_sync_reset_detection(self, problems):
        sig = extract_signature(problems["seq_detect"].design)
        assert sig.clock == "clk"
        assert sig.reset.name == "rst" and sig.reset.synchronous

    def test_enable_guard_is_not_a_reset(self):
        text = """
        module enreg (input clk, input en, input d, output reg q);
          always @(posedge clk) begin
            if (en) begin
              q <= d;
            end
          end
        endmodule
        """
        sig = extract_signature(elaborate_source(text))
        assert sig.clock == "clk" and sig.reset is None

    def test_sync_reset_requires_constant_branch(self):
        text = """
        module clr (input clk, input clear, input d, output reg q);
          always @(posedge clk) begin
            if (clear) begin
              q <= 1'b0;
            end else begin
              q <= d;
            end
          end
        endmodule
        """
        sig = extract_signature(elaborate_source(text))
        assert sig.reset is not None
        assert sig.reset.name == "clear" and sig.reset.synchronous

    def test_zero_output_module_is_valid(self):
        design = elaborate_source("module sink (input a);\n wire w;\n assign w = a;\nendmodule")
        sig = extract_signature(design)
        assert sig.outputs == ()

    def test_deterministic(self, problems):
        design = problems["arbiter2"].design
        assert repr(extract_signature(design)) == repr(extract_signature(design))

    def test_ambiguous_clock(self):
        text = """
        module m (input clk1, input clk2, input d, output reg q1, output reg q2);
          always @(posedge clk1) q1 <= d;
          always @(posedge clk2) q2 <= d;
        endmodule
        """
        with pytest.raises(AmbiguousClock):
            extract_signature(elaborate_source(text))

    def test_ports_match_ast(self, problems):
        for problem in problems.values():
            ast = parse_design(problem.reference)
            sig = problem.signature
            assert [p.name for p in ast.ports] == [
                p.name for p in sig.inputs + sig.outputs
            ]
