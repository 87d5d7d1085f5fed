"""Mutation sites from the two walkers against the enumeration they replace.

``reference_mutate`` keeps the older site enumeration: a loop per operator,
callback expression walks, a membership test per statement for BC08's
reset branch, and FSM state names recomputed from the AST. On one shared
parse, both must list the same sites in the same order, with the same
paths, lines, nodes, attributes and values, since ``inject`` draws its
seeded permutation over that list.
"""

import pytest

import reference_mutate
from svloop.frontend.elaborate import elaborate_source, fsm_state_names
from svloop.frontend.parser import parse_design
from svloop.frontend.signature import extract_signature
from svloop.mutate import OPERATORS, _collect_sites, make_corpus

MUTATE_SEEDS = range(1, 13)

# an asynchronous reset branch holding a nested if and a case whose labels
# include a ternary; a state register assigned through nested ternaries
# and from the reset branch; a second state register without a reset
# branch; a second clocked process with a synchronous reset
TWO_FSMS = """module two_fsms (
  input clk,
  input rst,
  input go,
  input [1:0] sel,
  output reg [1:0] y,
  output busy
);
  localparam A = 2'd0;
  localparam B = 2'd1;
  localparam C = 2'd2;
  localparam D = 2'd3;
  localparam P0 = 2'd0;
  localparam P1 = 2'd2;
  localparam P2 = 2'd3;
  reg [1:0] state;
  reg [1:0] phase;
  reg [1:0] mode;
  reg flag;
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      state <= B;
      if (go) begin
        mode <= 2'd1;
        state <= A;
      end else begin
        case (sel)
          2'd0: mode <= 2'd2;
          go ? 2'd1 : 2'd3: begin
            mode <= 2'd3;
            state <= C;
          end
          default: mode <= ~2'd0;
        endcase
      end
    end else begin
      state <= go ? (sel == 2'd1 ? C : D) : (sel == 2'd2 ? A : state);
      mode <= (state == B) ? sel & mode : sel | mode;
    end
  end
  always @(posedge clk) begin
    phase <= (phase == P0) ? P1 : (go ? P2 : P0);
  end
  always @(posedge clk) begin
    if (rst) begin
      flag <= 1'b1;
      y <= 2'd2;
    end else begin
      if (state != D && flag) begin
        flag <= phase >= P1;
      end
      y <= flag ? mode : ~mode;
    end
  end
  assign busy = (state != A) & flag | (go ? phase == P2 : 1'b0);
endmodule
"""

# a combinational design: parameters, a ternary in a case label, ifs
# nested in case arms, literals of every size
COMB_MIX = """module comb_mix (
  input [3:0] a,
  input [3:0] b,
  input s,
  output reg [3:0] y,
  output z
);
  parameter K = 4'd9;
  parameter L = K + 1;
  always @(*) begin
    y = 4'b0000;
    case (a)
      4'd0, K: y = b;
      s ? 4'd3 : L: begin
        if (b < a) begin
          y = a - b;
        end else if (b == 4'hf) begin
          y = s ? 4'd1 : 4'd15;
        end
      end
      default: y = a ^ b;
    endcase
  end
  assign z = !(a <= b) || (s ? a > K : b != 0);
endmodule
"""


@pytest.fixture(scope="module")
def designs(problems):
    """(name, source) for every desk reference, every mutant the desk
    corpus yields at mutate seeds 1-12, and the hand-written designs."""
    out = [(p.id, p.reference) for p in problems.values()]
    seen = set()
    for problem in problems.values():
        for seed in MUTATE_SEEDS:
            records, _ = make_corpus(problem, seed)
            for record in records:
                if record.source.text not in seen:
                    seen.add(record.source.text)
                    out.append((f"{problem.id}/{record.bc_id}@{seed}", record.source))
    return out + [("two_fsms", TWO_FSMS), ("comb_mix", COMB_MIX)]


def as_compared(sites):
    # node identity, not equality: the edit must land on the same parse node
    return [(path, line, id(node), attribute, value)
            for path, line, node, attribute, value in sites]


def test_sites_match_the_reference_enumeration(designs):
    compared = 0
    for name, source in designs:
        design = elaborate_source(source)
        signature = extract_signature(design)
        ast = parse_design(source)
        for op in OPERATORS:
            sites = _collect_sites(op, ast, design, signature)
            expected = reference_mutate._collect_sites(op, ast, design, signature)
            assert as_compared(sites) == as_compared(expected), (name, op.bc_id)
            compared += len(sites)
    assert len(designs) > 100 and compared > 4000


def test_state_names_match_the_reference(designs):
    with_states = 0
    for name, source in designs:
        design = elaborate_source(source)
        names = fsm_state_names(design.seq_processes, design.params)
        assert names == reference_mutate._state_constant_names(parse_design(source), design), name
        assert design.fsm_registers == reference_mutate._detect_fsm_registers(
            design.seq_processes, design.params), name
        with_states += bool(names)
    assert with_states > 20


def test_hand_written_designs_reach_every_walk():
    # what the desk corpus lacks: a reset branch with nested statements and
    # state sites, two state registers, a state assigned through nested
    # ternaries, ternary case labels and a second, synchronous reset branch
    design = elaborate_source(TWO_FSMS)
    assert fsm_state_names(design.seq_processes, design.params) == {
        "state": ["B", "A", "C", "D"], "phase": ["P1", "P2", "P0"]}
    ast = parse_design(TWO_FSMS)
    signature = extract_signature(design)
    paths = {op.bc_id: [path for path, *_ in _collect_sites(op, ast, design, signature)]
             for op in OPERATORS}
    assert paths["BC03"] == [
        "item[11].stmt[0].cond", "item[11].stmt[2].cond",
        "item[13].stmt[0].cond", "item[13].stmt[3].cond",
        "item[11].stmt[5].item[1].label[0].cond", "item[11].stmt[10].expr.cond",
        "item[11].stmt[10].expr.then.cond", "item[11].stmt[10].expr.other.cond",
        "item[11].stmt[11].expr.cond", "item[12].stmt[0].expr.cond",
        "item[12].stmt[0].expr.other.cond", "item[13].stmt[5].expr.cond",
        "item[14].expr.right.cond",
    ]
    assert paths["BC08"] == [
        "item[11].stmt[1].expr->A", "item[11].stmt[3].expr^1", "item[11].stmt[4].expr->B",
        "item[11].stmt[6].expr^1", "item[11].stmt[7].expr^1", "item[11].stmt[8].expr->B",
        "item[13].stmt[1].expr^1", "item[13].stmt[2].expr^1",
    ]
    comb_design = elaborate_source(COMB_MIX)
    comb_sites = _collect_sites(OPERATORS[2], parse_design(COMB_MIX), comb_design,
                                extract_signature(comb_design))
    assert "item[2].stmt[1].item[1].label[0].cond" in [path for path, *_ in comb_sites]
