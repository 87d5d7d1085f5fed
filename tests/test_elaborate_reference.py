"""Differential tests: elaboration's one walk per item against the
elaboration that walked each item up to five times (``reference_elaborate.py``).

Separate parses of one text are elaborated by each. Both must give equal
``ElaboratedDesign`` fields and write the same ``eval_width`` and
``stmt_id`` onto every node, or raise the same error type, message, line
and column: elaboration errors reach ``svloop parse`` and the debug loop's
patch rejections, which ``state.json`` records.
"""

import dataclasses
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import reference_elaborate
import svloop
from svloop import mutate
from svloop.errors import SvLoopError
from svloop.frontend.ast import DesignSource, NetDecl, ParamDecl
from svloop.frontend.elaborate import elaborate
from svloop.frontend.parser import parse_design
from svloop.mutate import OPERATORS, NoApplicableSite, NoDistinctMutant, inject


def dump(node):
    """A node as nested tuples, with every field, ``eval_width`` and
    ``stmt_id`` included (equality leaves them out)."""
    if dataclasses.is_dataclass(node):
        return (type(node).__name__,) + tuple(
            dump(getattr(node, f.name)) for f in dataclasses.fields(node))
    if isinstance(node, list):
        return [dump(item) for item in node]
    return node


def elaborated(elaborate_fn, text):
    """The dumped design an elaboration of a fresh parse gives, or its error."""
    source = DesignSource(text)
    try:
        return dump(elaborate_fn(parse_design(source), source))
    except SvLoopError as exc:
        return type(exc), exc.message, exc.line, exc.col


def assert_same(text):
    """Both elaborations agree on ``text``; the error class, or None."""
    new = elaborated(elaborate, text)
    assert elaborated(reference_elaborate.elaborate, text) == new, text
    return new[0].__name__ if isinstance(new[0], type) else None


def parses(text) -> bool:
    try:
        parse_design(text)
    except SvLoopError:
        return False
    return True


WORD = re.compile(r"\b[A-Za-z_]\w*\b")


def rewired(text):
    """Texts that still parse: ``text`` with one declared name used in place
    of another at one place, or with one line deleted or repeated."""
    ast = parse_design(text)
    names = sorted({p.name for p in ast.ports}
                   | {it.name for it in ast.items if isinstance(it, (NetDecl, ParamDecl))})
    for match in WORD.finditer(text):
        if match.group() in names:
            for name in names:
                if name != match.group():
                    yield text[:match.start()] + name + text[match.end():]
    lines = text.splitlines(keepends=True)
    for i in range(len(lines)):
        yield "".join(lines[:i] + lines[i + 1:])
        yield "".join(lines[:i + 1] + lines[i:])


# one design per rule, several of which the desk corpus cannot reach with
# one edit: a chain of self-reads in one block, a loop through two nodes,
# a loop behind a clean node and a clocked process reading its own output;
# the last three also break a rule checked later, which must not be named
HAND_WRITTEN = [
    """module chain (input a, output reg w);
  reg x, y, z;
  always @(*) begin
    x = a;
    y = x;
    z = y;
    w = z;
  end
endmodule
""",
    """module loop2 (input a, output p, output reg q);
  assign p = q & a;
  always @(*) q = p | a;
endmodule
""",
    """module behind (input a, output b, output c, output d);
  assign b = a;
  assign d = c ^ b;
  assign c = d | b;
endmodule
""",
    """module order (input [3:0] a, output [3:0] y, output reg [3:0] t, output [3:0] u);
  assign y = u + t;
  assign u = t - 4'd1;
  always @(*) case (a) 4'd1, 4'd2: t = a; 4'd3: t = 4'd0; default: t = ~a; endcase
endmodule
""",
    """module hold (input clk, input d, output reg q, output reg r);
  always @(posedge clk) begin q <= q ^ d; r <= q; end
endmodule
""",
    """module drive_in (input a, output y);
  assign a = 1'b0;
  assign y = a;
endmodule
""",
    """module twice (input clk, input d, output reg q);
  always @(posedge clk) q <= d;
  always @(*) q = d & q;
endmodule
""",
    """module edges (input clk, input d, output reg q);
  always @(posedge clk or negedge clk) q <= d;
  always @(*) q = d;
endmodule
""",
    """module wide (input a, output [3:0] y, output p);
  assign p = p;
  assign y = 3'd9;
endmodule
""",
]


@pytest.fixture(scope="module")
def references(problems):
    return [problem.reference.text for problem in problems.values()]


class TestElaborationMatchesReference:
    def test_references_and_hand_written_designs(self, references):
        outcomes = Counter(assert_same(text) for text in references + HAND_WRITTEN)
        assert outcomes[None] == len(references) + 2
        assert outcomes["CombinationalLoop"] == 3 and outcomes["MultipleDrivers"] == 2
        assert outcomes["ElaborationError"] == 1 and outcomes["WidthMismatch"] == 1

    def test_every_candidate_inject_elaborates(self, problems, monkeypatch):
        real = mutate.elaborate
        checked = []

        def checking(ast, source):
            checked.append(assert_same(source.text))
            return real(ast, source)

        monkeypatch.setattr(mutate, "elaborate", checking)
        monkeypatch.setattr(mutate, "find_witness", lambda *args: None)
        for seed in (1, 2):
            for problem in problems.values():
                shared = parse_design(problem.reference)
                for op in OPERATORS:
                    try:
                        inject(problem, shared, op, seed=seed)
                    except (NoApplicableSite, NoDistinctMutant):
                        pass
        assert len(checked) > 300

    def test_rewired_desk_texts(self, references):
        outcomes = Counter(assert_same(text)
                           for reference in references
                           for text in rewired(reference) if parses(text))
        for error in ("ElaborationError", "MultipleDrivers", "CombinationalLoop"):
            assert outcomes[error] > 40, outcomes
        assert sum(outcomes.values()) > 800


def test_self_read_message_is_the_same_under_every_hash_seed(tmp_path):
    design = tmp_path / "chain.sv"
    design.write_text(HAND_WRITTEN[0])
    script = ("import sys\n"
              "from svloop.cli import main\n"
              "from svloop.errors import PatchRejected\n"
              "from svloop.frontend.signature import extract_signature\n"
              "from svloop.frontend.elaborate import elaborate_source\n"
              "from svloop.gateway.extract import parse_patch\n"
              "expected = extract_signature(elaborate_source(\n"
              "    'module chain (input a, output reg w); always @(*) w = a; endmodule'))\n"
              "try:\n"
              "    parse_patch(open(sys.argv[1]).read(), expected)\n"
              "except PatchRejected as exc:\n"
              "    print(exc.detail)\n"
              "sys.exit(main(['parse', sys.argv[1]]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(svloop.__file__).parents[1]))
    message = "combinational construct depends on its own output 'x'"
    for seed in range(4):
        env["PYTHONHASHSEED"] = str(seed)
        proc = subprocess.run([sys.executable, "-c", script, str(design)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == f"<input>:3:0: {message}\n"
        assert proc.stderr == f"{design}:3:0: {message}\n"
