"""Independent oracles and fixtures shared by the test suite.

Everything here deliberately avoids the engine's internals: golden
models are written from the problem descriptions, the trace differ is a
naive loop, and the arbiter stepper implements the documented FSM
recurrence directly.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import sys
from contextlib import ExitStack, contextmanager
from importlib import resources
from pathlib import Path

import jsonschema

from svloop import errors
from svloop.frontend.signature import DesignSignature, SignaturePort
from svloop.sim.engine import Trace
from svloop.sim.stimulus import UnitTest

# --- golden models for the combinational desk designs -------------------------

def golden_full_adder(a, b, c):
    return {"s": a ^ b ^ c, "cout": int(a + b + c >= 2)}


def golden_adder4(a, b, cin):
    total = a + b + cin
    return {"sum": total & 0xF, "cout": total >> 4}


GOLDEN_MODELS = {
    "full_adder": (("a", "b", "c"), golden_full_adder),
    "adder4": (("a", "b", "cin"), golden_adder4),
}


# --- independent arbiter FSM stepper ------------------------------------------

IDLE, GRANT1, GRANT2 = 0, 1, 2


def arbiter_transition(state, r1, r2):
    if state == IDLE:
        if r1:
            return GRANT1
        if r2:
            return GRANT2
        return IDLE
    if state == GRANT1:
        if r1:
            return GRANT1
        if r2:
            return GRANT2
        return IDLE
    if state == GRANT2:
        if r2:
            return GRANT2
        if r1:
            return GRANT1
        return IDLE
    return IDLE


def step_arbiter(rows):
    """Documented recurrence: async active-high reset; registered grants
    reflect the previous cycle's state."""
    prev = IDLE
    states, g1s, g2s = [], [], []
    for rst, r1, r2 in rows:
        if rst:
            state, g1, g2 = IDLE, 0, 0
        else:
            state = arbiter_transition(prev, r1, r2)
            g1 = int(prev == GRANT1)
            g2 = int(prev == GRANT2)
        states.append(state)
        g1s.append(g1)
        g2s.append(g2)
        prev = state
    return tuple(states), tuple(g1s), tuple(g2s)


# --- naive trace differ ---------------------------------------------------------

def naive_divergent_fraction(trace_a, trace_b, outputs):
    """Fraction of cycles with any differing output; independent of the
    metrics module."""
    n = trace_a.cycles
    assert trace_b.cycles == n
    divergent = 0
    for i in range(n):
        for name in outputs:
            if trace_a.values[name][i] != trace_b.values[name][i]:
                divergent += 1
                break
    return divergent, n


# --- VCD reader ------------------------------------------------------------------

def read_vcd(data: bytes) -> tuple[Trace, DesignSignature]:
    """Parse VCD produced by ``export_vcd`` back into a trace.

    The reconstructed signature has no clock/reset roles; it only carries
    names and widths, with every signal listed as an input-order port.
    """
    lines = data.decode("ascii").splitlines()
    widths: dict[str, int] = {}
    by_id: dict[str, str] = {}
    order: list[str] = []
    module = "unknown"
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if line.startswith("$scope"):
            parts = line.split()
            if len(parts) >= 3:
                module = parts[2]
        elif line.startswith("$var"):
            _, _, width_text, var_id, name = line.split()[:5]
            widths[name] = int(width_text)
            by_id[var_id] = name
            order.append(name)
        elif line.startswith("$enddefinitions"):
            break

    values: dict[str, list[int]] = {name: [] for name in order}
    current: dict[str, int] = {name: 0 for name in order}
    cycle = -1

    def close_cycle():
        if cycle >= 0:
            for name in order:
                values[name].append(current[name])

    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line in ("$dumpvars", "$end"):
            continue
        if line.startswith("#"):
            close_cycle()
            cycle = int(line[1:])
            continue
        if line.startswith("b"):
            value_text, var_id = line[1:].split()
            current[by_id[var_id]] = int(value_text, 2)
        else:
            current[by_id[line[1:]]] = int(line[0], 2)
    close_cycle()

    trace = Trace({name: tuple(vals) for name, vals in values.items()}, cycle + 1)
    ports = tuple(SignaturePort(name, widths[name]) for name in order)
    return trace, DesignSignature(module, ports, ())


# --- oracle traces for the debug loop ------------------------------------------

def oracle_traces(problem, tests):
    """The oracle's trace of every test of ``problem``, keyed by test id,
    as ``debug`` takes them."""
    from svloop.sim.engine import run

    return {t.id: run(problem.design, t, problem.signature) for t in tests}


# --- the reference check of whole reports ---------------------------------------

# jsonschema's draft-07 validator of the shipped report schema
REPORT_SCHEMA = jsonschema.Draft7Validator(json.loads(
    resources.files("svloop.schema").joinpath("report.schema.json").read_text("utf-8")))


# --- deterministic oracle-backed responder --------------------------------------

class OracleBackedResponder:
    """Fake LLM for end-to-end runs: answers generation prompts with
    seeded pseudo-random stimulus and debug prompts with the reference
    module text. Deterministic per prompt."""

    def __init__(self, problems, seed=0, chatter=True):
        self.by_module = {p.signature.module_name: p for p in problems}
        self.seed = seed
        self.chatter = chatter
        self.calls = 0

    def _problem_of(self, prompt):
        match = re.search(r"^module (\w+) \($", prompt, re.M)
        if match is None:
            match = re.search(r"^module (\w+)$", prompt, re.M)
        return self.by_module[match.group(1)]

    def complete(self, prompt, cfg):
        self.calls += 1
        problem = self._problem_of(prompt)
        if "corrected SystemVerilog module" in prompt:
            lead = "Here is the corrected module:\n\n" if self.chatter else ""
            return lead + problem.reference.text
        signature = problem.signature
        rng = random.Random(
            hashlib.sha256(f"{prompt}|{self.seed}".encode()).hexdigest()
        )
        cycles = 8 if signature.clock is None else 16
        reset = signature.reset
        rows = []
        for n in range(cycles):
            row = []
            for port in signature.stimulus_inputs:
                if reset is not None and port.name == reset.name:
                    asserted = n < 2 or rng.random() < 0.08
                    level = 1 if reset.active_high else 0
                    row.append(f"{level if asserted else 1 - level:01b}")
                else:
                    row.append(f"{rng.getrandbits(port.width):0{port.width}b}")
            rows.append(" ".join(row))
        lead = "A unit test that exercises the design:\n\n" if self.chatter else ""
        return lead + signature.stimulus_header() + "\n" + "\n".join(rows) + "\n"


def record_mock_script(problems, script_dir, scratch, config=None, seed=0):
    """Drive an API evaluation with the oracle-backed responder, recording
    prompt digests so the CLI can replay the identical run offline."""
    from svloop.gateway.providers import RecordingProvider
    from svloop.manifest import RunConfig
    from svloop.matrix import evaluate_problem

    recorder = RecordingProvider(OracleBackedResponder(list(problems), seed=seed))
    config = config or RunConfig(provider="mock", script_dir=str(script_dir), seed=1)
    for problem in sorted(problems, key=lambda p: p.id):
        evaluate_problem(problem, config, recorder, Path(scratch) / problem.id)
    recorder.save_script(script_dir)
    return script_dir


class ListProvider:
    """Serves a fixed response list in order; raises when exhausted."""

    def __init__(self, responses):
        from svloop.gateway.providers import ScriptedMockProvider

        self._inner = ScriptedMockProvider(list(responses))

    def complete(self, prompt, cfg):
        return self._inner.complete(prompt, cfg)

    @property
    def calls_made(self):
        return self._inner.calls_made


# --- file-system calls of a run ----------------------------------------------------

# The seam every file-system change of svloop goes through: the writer, the
# directory maker, the rename of a JSON file into place and the existence
# check of a checkpoint, each as (owner, attribute).
SEAM = {
    "write_bytes": (errors, "_write_bytes"),
    "mkdir": (errors, "_mkdir"),
    "replace": (os, "replace"),
    "exists": (os.path, "exists"),
}
WRITING_CALLS = ("write_bytes", "replace", "mkdir")


class SimulatedCrash(BaseException):
    """The process dying mid-call: not an ``Exception``, so no handler in
    svloop turns it into an error entry."""


@contextmanager
def rebound(owner, name, new):
    """Bind ``new`` wherever svloop reads ``owner.name``: on ``owner`` and on
    every loaded svloop module that imported the function by name."""
    original = getattr(owner, name)
    modules = [owner] + [m for n, m in list(sys.modules.items()) if n.startswith("svloop")]
    sites = dict.fromkeys((m, attr) for m in modules
                          for attr, value in list(vars(m).items()) if value is original)
    for module, attr in sites:
        setattr(module, attr, new)
    try:
        yield
    finally:
        for module, attr in sites:
            setattr(module, attr, original)


@contextmanager
def path_calls(crash_at=None):
    """Record every call of the ``SEAM`` as ``(name, Path(path))``. With
    ``crash_at=k`` the k-th call in ``WRITING_CALLS`` (1-based) stores the
    first half of its data if it is a write, and raises ``SimulatedCrash``
    instead of doing anything more."""
    calls = []
    writes = 0

    def recorded(name, real):
        def call(path, *args, **kwargs):
            nonlocal writes
            calls.append((name, Path(path)))
            writes += name != "exists"
            if name != "exists" and writes == crash_at:
                if name == "write_bytes":
                    real(path, args[0][: len(args[0]) // 2])
                raise SimulatedCrash(f"{name} {path}")
            return real(path, *args, **kwargs)
        return call

    with ExitStack() as stack:
        for name, (owner, attr) in SEAM.items():
            stack.enter_context(rebound(owner, attr, recorded(name, getattr(owner, attr))))
        yield calls


def tree_digest(root):
    """SHA-256 over every file under ``root``: relative path, length and
    bytes, the digest the benchmark pins its outputs with."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def tree_listing(root):
    """Every directory and file under ``root``, files with their bytes."""
    return {
        path.relative_to(root).as_posix(): None if path.is_dir() else path.read_bytes()
        for path in Path(root).rglob("*")
    }


# --- malformed response generator ------------------------------------------------

def valid_arbiter_stimulus():
    return (
        "inputs: rst[1], r1[1], r2[1]\n"
        "1 0 0\n0 1 0\n0 1 0\n0 0 1\n0 0 0\n"
    )


def malformed_stimulus_responses(rng, count):
    """Stimulus-shaped garbage: truncated rows, reordered columns, bad
    widths, non-binary values, missing headers, prose."""
    base_rows = ["1 0 0", "0 1 0", "0 0 1", "0 0 0"]
    out = []
    for _ in range(count):
        kind = rng.randrange(7)
        if kind == 0:
            out.append("I cannot produce a test for this design.\n")
        elif kind == 1:  # reordered columns
            out.append("inputs: r1[1], rst[1], r2[1]\n" + "\n".join(base_rows) + "\n")
        elif kind == 2:  # truncated row
            rows = list(base_rows)
            rows[rng.randrange(len(rows))] = "1 0"
            out.append("inputs: rst[1], r1[1], r2[1]\n" + "\n".join(rows) + "\n")
        elif kind == 3:  # non-binary value
            rows = list(base_rows)
            rows[rng.randrange(len(rows))] = "1 x 0"
            out.append("inputs: rst[1], r1[1], r2[1]\n" + "\n".join(rows) + "\n")
        elif kind == 4:  # wrong width
            rows = list(base_rows)
            rows[rng.randrange(len(rows))] = "01 0 1"
            out.append("inputs: rst[1], r1[1], r2[1]\n" + "\n".join(rows) + "\n")
        elif kind == 5:  # header only
            out.append("inputs: rst[1], r1[1], r2[1]\n\nthat is all\n")
        else:  # wrong column set
            out.append("inputs: rst[1], r1[1]\n1 0\n0 1\n")
    return out


def malformed_patch_responses(rng, count, buggy_text):
    """Patch-shaped garbage: missing module, syntax errors, renamed ports,
    renamed module, unsupported constructs, truncation."""
    out = []
    renamed_port = buggy_text.replace("input r1", "input req1").replace("(r1", "(req1")
    renamed_module = buggy_text.replace("module arbiter2", "module arbiter_fixed", 1)
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            out.append("The bug is on line 22; please fix it yourself.\n")
        elif kind == 1:  # truncated module
            out.append(buggy_text[: len(buggy_text) // 2])
        elif kind == 2:  # syntax garbage
            out.append("module broken (\n  input a,\n;;; endmodule\n")
        elif kind == 3:
            out.append(renamed_port)
        elif kind == 4:
            out.append(renamed_module)
        else:  # unsupported construct
            out.append(
                "module arbiter2 (input clk, input rst, input r1, input r2, "
                "output g1, output g2);\n  initial begin end\nendmodule\n"
            )
    return out


def exhaustive_single_cycle_tests(signature):
    """Every input pattern as a one-cycle unit test, lexicographic order."""
    columns = signature.stimulus_inputs
    widths = [p.width for p in columns]
    total = sum(widths)
    tests = []
    for pattern in range(1 << total):
        row = []
        shift = pattern
        for w in widths:
            row.append(shift & ((1 << w) - 1))
            shift >>= w
        tests.append(UnitTest(f"p{pattern}", columns, (tuple(row),)))
    return tests
