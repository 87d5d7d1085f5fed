"""Pinned evaluation semantics: context widths, wrapping, shifts, and
the clock-edge discipline, each against hand-derived expectations."""

import pytest

from svloop.frontend.elaborate import elaborate_source
from svloop.frontend.signature import extract_signature
from svloop.sim.engine import run
from svloop.sim.stimulus import UnitTest


def simulate(text, rows):
    design = elaborate_source(text)
    signature = extract_signature(design)
    test = UnitTest("t", signature.stimulus_inputs, tuple(rows))
    return run(design, test, signature)


class TestExpressionWidths:
    def test_sum_widens_to_assignment_context(self):
        # three 1-bit operands into a 2-bit target carry properly
        text = """
        module widen_sum (input a, input b, input c, output [1:0] y);
          assign y = a + b + c;
        endmodule
        """
        trace = simulate(text, [(1, 1, 1), (1, 1, 0), (0, 0, 0)])
        assert trace.values["y"] == (3, 2, 0)

    def test_addition_wraps_at_target_width(self):
        text = """
        module wrap_add (input [1:0] a, input [1:0] b, output [1:0] y);
          assign y = a + b;
        endmodule
        """
        trace = simulate(text, [(3, 2), (3, 3), (2, 1)])
        assert trace.values["y"] == (1, 2, 3)

    def test_subtraction_wraps_two_complement(self):
        text = """
        module sub_wrap (input [1:0] a, input [1:0] b, output [1:0] y);
          assign y = a - b;
        endmodule
        """
        trace = simulate(text, [(0, 1), (1, 3), (3, 1)])
        assert trace.values["y"] == (3, 2, 2)

    def test_unary_minus(self):
        text = """
        module neg2 (input [1:0] a, output [1:0] y);
          assign y = -a;
        endmodule
        """
        trace = simulate(text, [(0,), (1,), (2,), (3,)])
        assert trace.values["y"] == (0, 3, 2, 1)

    def test_comparison_zero_extends_operands(self):
        # 2-bit x against a 4-bit literal: always below 10
        text = """
        module cmp_mixed (input [1:0] x, output y);
          assign y = x < 4'd10;
        endmodule
        """
        trace = simulate(text, [(0,), (3,)])
        assert trace.values["y"] == (1, 1)

    def test_bitwise_not_in_comparison_context(self):
        text = """
        module not_eq (input a, output y);
          assign y = ~a == 1'b0;
        endmodule
        """
        trace = simulate(text, [(0,), (1,)])
        assert trace.values["y"] == (0, 1)

    def test_right_shift_extracts_high_bit(self):
        text = """
        module high_bit (input [4:0] t, output y);
          assign y = t >> 4;
        endmodule
        """
        trace = simulate(text, [(0b10110,), (0b01111,)])
        assert trace.values["y"] == (1, 0)

    def test_oversized_shift_yields_zero(self):
        text = """
        module big_shift (input [2:0] a, output [2:0] y);
          assign y = a << 7;
        endmodule
        """
        trace = simulate(text, [(5,)])
        assert trace.values["y"] == (0,)

    def test_ternary_arms_share_context(self):
        text = """
        module pick (input s, input [2:0] a, input [2:0] b, output [2:0] y);
          assign y = s ? a + b : a - b;
        endmodule
        """
        trace = simulate(text, [(1, 5, 6), (0, 1, 3)])
        assert trace.values["y"] == (3, 6)

    def test_unsized_zero_parameter_is_one_bit_wide(self):
        # Z is 1 bit wide, so ~Z is taken at the comparison's 4 bits: 4'b1111
        text = """
        module zero_param (input [3:0] a, output y);
          parameter Z = 0;
          assign y = a == ~Z;
        endmodule
        """
        trace = simulate(text, [(15,), (1,), (0,)])
        assert trace.values["y"] == (1, 0, 0)

    def test_logical_operators_are_boolean(self):
        text = """
        module boolish (input [1:0] a, input [1:0] b, output y);
          assign y = a && !b;
        endmodule
        """
        trace = simulate(text, [(2, 0), (1, 3), (0, 0)])
        assert trace.values["y"] == (1, 0, 0)


class TestClockDiscipline:
    POS_DFF = """
    module dff_pos (input clk, input rst, input d, output reg q);
      always @(posedge clk or posedge rst) begin
        if (rst) begin
          q <= 1'b0;
        end else begin
          q <= d;
        end
      end
    endmodule
    """
    NEG_DFF = POS_DFF.replace("dff_pos", "dff_neg").replace("posedge clk", "negedge clk")

    ROWS = [(1, 0), (0, 1), (0, 1), (0, 0), (0, 1)]

    def test_posedge_dff_samples_current_row(self):
        trace = simulate(self.POS_DFF, self.ROWS)
        assert trace.values["q"] == (0, 1, 1, 0, 1)

    def test_negedge_dff_lags_one_row(self):
        # the harness lowers the clock at the start of the next cycle, so a
        # negedge-clocked register captures the previous row's data
        trace = simulate(self.NEG_DFF, self.ROWS)
        assert trace.values["q"] == (0, 0, 1, 1, 0)

    def test_async_reset_beats_the_pending_negedge(self):
        rows = [(0, 1), (0, 1), (1, 1), (0, 1)]
        trace = simulate(self.NEG_DFF, rows)
        # cycle 2 asserts rst: the reset edge fires after the negedge update
        assert trace.values["q"][2] == 0

    def test_blocking_read_after_write_in_clocked_block(self):
        # with nonblocking assignments, the second register sees the old
        # value; the sampled pair therefore disagrees for one cycle
        text = """
        module pipe (input clk, input d, output reg a, output reg b);
          always @(posedge clk) begin
            a <= d;
            b <= a;
          end
        endmodule
        """
        trace = simulate(text, [(1,), (1,), (0,), (0,)])
        assert trace.values["a"] == (1, 1, 0, 0)
        assert trace.values["b"] == (0, 1, 1, 0)


class TestSequentialGolden:
    def test_seq_detect_overlapping_hits(self, problems):
        p = problems["seq_detect"]
        rows = [(1, 0), (0, 1), (0, 0), (0, 1), (0, 0), (0, 1)]
        test = UnitTest("t", p.signature.stimulus_inputs, tuple(rows))
        trace = run(p.design, test, p.signature)
        assert trace.values["found"] == (0, 0, 0, 1, 0, 1)
        assert trace.values["state"] == (0, 1, 2, 3, 2, 3)

    def test_seq_detect_sync_reset_waits_for_edge(self, problems):
        p = problems["seq_detect"]
        rows = [(1, 0), (0, 1), (0, 0), (0, 1), (1, 1), (0, 1)]
        test = UnitTest("t", p.signature.stimulus_inputs, tuple(rows))
        trace = run(p.design, test, p.signature)
        assert trace.values["found"][3] == 1
        assert trace.values["state"][4] == 0  # reset applied at the edge
        assert trace.values["found"][4] == 0

    def test_counter_increments_and_wraps(self, problems):
        p = problems["counter3"]
        rows = [(1, 0)] + [(0, 1)] * 8 + [(0, 0), (0, 1)]
        test = UnitTest("t", p.signature.stimulus_inputs, tuple(rows))
        trace = run(p.design, test, p.signature)
        assert trace.values["count"] == (0, 1, 2, 3, 4, 5, 6, 7, 0, 0, 1)

    def test_adder4_exhaustive_coverage_is_total(self, problems):
        from svloop.sim.coverage import collect_coverage

        p = problems["adder4"]
        columns = p.signature.stimulus_inputs
        rows = []
        for a in range(16):
            for b in range(16):
                for cin in range(2):
                    rows.append((a, b, cin))
        test = UnitTest("exh", columns, tuple(rows))
        report = collect_coverage(p.design, [test], p.signature)
        assert report.scalar == 1
        assert report.branch is None  # ternaries are not branch arms


class TestParserFuzz:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_token_soup_never_crashes(self, seed):
        import random

        from svloop.errors import FrontendError
        from svloop.frontend.ast import DesignSource
        from svloop.frontend.parser import parse_design

        rng = random.Random(seed)
        vocabulary = [
            "module", "endmodule", "input", "output", "wire", "reg", "assign",
            "always", "begin", "end", "if", "else", "case", "endcase", "posedge",
            "(", ")", "[", "]", ";", ",", "=", "<=", "@", "*", "a", "b", "clk",
            "1'b0", "2'd3", "42", "&", "|", "^", "?", ":", "{", "}", "#", "$display",
        ]
        for _ in range(125):
            length = rng.randrange(1, 60)
            text = " ".join(rng.choice(vocabulary) for _ in range(length))
            try:
                parse_design(DesignSource(text or "x"))
            except FrontendError:
                pass

    def test_random_bytes_never_crash(self):
        import random

        from svloop.errors import FrontendError
        from svloop.frontend.ast import DesignSource
        from svloop.frontend.parser import parse_design

        rng = random.Random(7)
        for _ in range(200):
            blob = bytes(rng.randrange(32, 127) for _ in range(rng.randrange(1, 120)))
            try:
                parse_design(DesignSource(blob.decode("ascii")))
            except (FrontendError, ValueError):
                pass
