"""Differential tests: clock and reset inference in one pass over the
clocked processes against the inference that kept two reset lists and
took the manifest's reset as an argument (``reference_signature.py``).

Each comparison is the whole signature, or the error's type, message,
line and column: a signature reaches every prompt, harness and witness,
and an ``AmbiguousClock`` reaches ``svloop parse`` and patch rejections.
Where the reference is given a manifest reset, the new inference's
signature has that reset put in with ``dataclasses.replace``, as
``load_problem`` does.
"""

import dataclasses
import itertools
import json
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_signature
from svloop import manifest, mutate
from svloop.errors import SvLoopError
from svloop.frontend.elaborate import elaborate_source
from svloop.frontend.parser import parse_design
from svloop.frontend.signature import ResetSpec, extract_signature
from svloop.manifest import load_problem
from svloop.mutate import OPERATORS, NoApplicableSite, NoDistinctMutant, inject

FIXTURES = Path(__file__).parent / "fixtures"


def outcome(fn, *args):
    try:
        return fn(*args)
    except SvLoopError as exc:
        return type(exc), exc.message, exc.line, exc.col


def inferred(design, clock=None, reset=None):
    """The new inference's outcome, with ``reset`` put in as ``load_problem`` does."""
    result = outcome(extract_signature, design, clock)
    if reset is not None and not isinstance(result, tuple):
        result = dataclasses.replace(result, reset=reset)
    return result


def assert_same(design, clock=None, reset=None):
    """Both inferences agree; True when they agree on an error."""
    new = inferred(design, clock, reset)
    assert outcome(reference_signature.extract_signature, design, clock, reset) == new, (
        design.source.text, clock, reset)
    return isinstance(new, tuple)


def one_bit_inputs(design):
    return [name for name in design.input_ports if design.signals[name].width == 1]


def manifest_problems(problems):
    """(name, design, manifest clock, manifest reset) of every desk problem
    and of the fixture problems whose manifest fixes a role."""
    dirs = [problem.root for problem in problems.values()]
    dirs += [FIXTURES / name for name in ("two_clocks", "hidden_reset")]
    for problem_dir in dirs:
        raw = json.loads((problem_dir / "problem.json").read_text())
        design = elaborate_source((problem_dir / raw["reference"]).read_text())
        r = raw.get("reset")
        reset = ResetSpec(r["name"], r["active_high"], r["synchronous"]) if r else None
        yield problem_dir.name, design, raw.get("clock"), reset


class TestDeskAndFixtures:
    def test_every_clock_override_with_and_without_a_reset(self, problems):
        errors = compared = 0
        for _, design, _, manifest_reset in manifest_problems(problems):
            for clock in [None] + one_bit_inputs(design):
                for reset in (None, manifest_reset, ResetSpec("x", False, True)):
                    errors += assert_same(design, clock, reset)
                    compared += 1
        assert compared > 60 and errors > 20

    def test_the_loaded_signature_is_the_reference_with_the_manifest_reset(self, problems):
        loaded = {**problems, **{name: load_problem(FIXTURES / name)
                                 for name in ("two_clocks", "hidden_reset")}}
        for name, design, clock, reset in manifest_problems(problems):
            expected = reference_signature.extract_signature(design, clock, reset)
            assert loaded[name].signature == expected, name

    def test_every_candidate_inject_elaborates(self, problems, monkeypatch):
        checked = []

        def checking(design, clock=None):
            checked.append(assert_same(design, clock))
            return extract_signature(design, clock)

        # inject checks each candidate's interface through Problem.keeps_interface
        monkeypatch.setattr(manifest, "extract_signature", checking)
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


ONE_BIT = ("clk", "a", "b", "r", "en")
INPUTS = ONE_BIT + ("w",)
EDGES = ("posedge", "negedge")
# every sensitivity list of n distinct 1-bit inputs, and those whose first
# event is on clk, one strategy for each n and each kind: half the lists
# drawn start with clk, so that processes drawn apart often share a clock,
# and a fifth have three events, which only a condition on two names admits
SENSITIVITIES = [st.sampled_from([tuple(zip(edges, signals))
                                  for signals in itertools.permutations(ONE_BIT, n)
                                  for edges in itertools.product(EDGES, repeat=n)
                                  if first_clk <= (signals[0] == "clk")])
                 for first_clk in (False, True) for n in (1, 1, 2, 2, 3)]
# every leading-if form reset inference reads, on ``{r}`` (and ``{e}``)
CONDITIONS = ["{r}", "!{r}", "~{r}", "{r} == 0", "1'b1 != {r}", "P == {r}", "{r} != P",
              "{r} && {e}", "{r} || {e}"]
VALUES = ["4'd0", "4'd9", "P", "w", "w + 4'd1"]
# then-branch statements: constants, a parameter, data, and enable guards
STATEMENTS = [f"$q <= {v};" for v in VALUES] + [f"if ({g}) $q <= {v};"
                                                 for g in ONE_BIT for v in VALUES]


def process(events, cond, r, e, then):
    """(events, leading-if condition or None, then-branch) of one clocked
    process; the condition tests the inputs ``r`` and ``e``, where an
    integer stands for one of the events, counted from the last."""
    r, e = (events[-1 - x % len(events)][1] if isinstance(x, int) else x for x in (r, e))
    if cond is not None:
        cond = cond.format(r=r, e=e)
    return events, cond, " ".join(then)


processes = st.builds(process, st.one_of(SENSITIVITIES), st.sampled_from([None] + CONDITIONS),
                      st.one_of(st.integers(0, 2), st.sampled_from(INPUTS)),
                      st.one_of(st.integers(0, 2), st.sampled_from(ONE_BIT)),
                      st.lists(st.sampled_from(STATEMENTS), min_size=1, max_size=2))


def flipped(process):
    """The same resets held again: every edge and the condition's polarity swapped."""
    events, cond, then = process
    events = tuple((EDGES[edge == "posedge"], signal) for edge, signal in events)
    if cond is not None and "=" in cond:
        cond = re.sub("[=!]=", lambda m: "!=" if m.group() == "==" else "==", cond)
    elif cond is not None:
        cond = cond[1:] if cond[0] in "!~" else "!" + cond
    return events, cond, then


def render(ports, param, drawn):
    """A module over ``ports`` with one clocked process per drawn process,
    each after the first either as drawn or the one before it flipped."""
    procs = [drawn[0][0]]
    for proc, flip in drawn[1:]:
        procs.append(flipped(procs[-1]) if flip else proc)
    ports = ports + [f"output reg [3:0] q{i}" for i in range(len(procs))]
    lines = [f"module m ({', '.join(ports)});", f"  localparam P = {param};"]
    for i, (events, cond, then) in enumerate(procs):
        sens = " or ".join(f"{edge} {signal}" for edge, signal in events)
        if cond is None:
            stmt = f"begin q{i} <= w; {then} end"
        else:
            stmt = f"if ({cond}) begin {then} end else begin q{i} <= w ^ q{i}; end"
        lines.append(f"  always @({sens}) {stmt}".replace("$q", f"q{i}"))
    return "\n".join(lines + ["endmodule", ""])


designs = st.builds(render, st.permutations([f"input {name}" for name in ONE_BIT]
                                            + ["input [3:0] w"]),
                    st.sampled_from(["0", "1", "1'b0", "1'b1", "4'd2"]),
                    st.lists(st.tuples(processes, st.booleans()), min_size=1, max_size=3))


# no override, a clock that often drives a process and one that often
# drives none, and a manifest reset with and without a clock
OVERRIDES = [(None, None), ("clk", None), ("a", ResetSpec("b", False, True)),
             (None, ResetSpec("r"))]


@settings(max_examples=2700)
@given(text=designs)
def test_generated_designs(text):
    design = elaborate_source(text)
    for clock, reset in OVERRIDES:
        assert_same(design, clock, reset)
