"""The three workloads. Each one prepares its inputs in ``setup`` and
runs one timed op per ``op`` call, through ``svloop.cli.main`` in this
process with stdout captured, from a fixed working directory and with
relative paths only, so that no artifact depends on where the checkout
lives.

An op returns the cost of each phase (wall, user and kernel seconds),
a digest of everything it wrote, and the errors its output checks found.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from svloop import cli
from svloop.manifest import load_corpus

from checks import corrupt_one_cell_vcd, recompute_cells, tree_digest, witness_errors
from cputime import Cost, Timer
from responder import record_mock_script

CORPUS_SEED = 1          # mutate seed of the corpus that evaluate-desk and sim-long use
SIM_CYCLES = 1000        # stimulus length per design on sim-long


@dataclass
class OpResult:
    inputs: str                       # ops with equal inputs must write equal bytes
    times: dict[str, Cost] = field(default_factory=dict)
    cycles: int = 0                   # stimulus cycles simulated, where the op counts them
    digest: str = ""
    errors: list[str] = field(default_factory=list)


def run_cli(argv, tracer=None) -> tuple[str, Cost]:
    """Run one svloop command in-process; (stdout, cost). A non-zero
    exit code raises."""
    out, err = io.StringIO(), io.StringIO()
    active = tracer.active() if tracer is not None else contextlib.nullcontext()
    with active, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with Timer() as timer:
            code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"svloop {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue(), timer.cost


def init_corpus(env: dict) -> None:
    """`svloop init-corpus corpus` in a fresh interpreter, as a user runs it."""
    proc = subprocess.run([sys.executable, "-m", "svloop.cli", "init-corpus", "corpus"],
                          env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"svloop init-corpus exited {proc.returncode}: {proc.stderr.strip()}")


def build_corpus(seed: int) -> Cost:
    """`svloop mutate all` on ./corpus; returns its cost."""
    return run_cli(["mutate", "all", "--problems", "corpus", "--seed", str(seed)])[1]


class Workload:
    min_ops = 1                                 # ops a run makes at least
    setups = 2                                  # set-ups a run times for setup_s

    def __init__(self, seed: int, env: dict):
        self.seed, self.env = seed, env
        self.fresh_dirs = itertools.count()     # every op writes to a new directory


class CorpusBuild(Workload):
    """`svloop mutate all` on a fresh copy of the desk corpus, cycling
    through a fixed pool of mutate seeds from a point the benchmark seed
    picks. How many candidates turn out equivalent, and so the cost of
    one op, swings by a fifth with the mutate seed; a run that covers the
    whole pool measures the same work whatever the benchmark seed."""

    name = "corpus-build"
    MUTATE_SEEDS = (1, 2)
    min_ops = len(MUTATE_SEEDS)
    setups = 7              # one fresh interpreter each, about 0.5 s: more samples, small cost

    def setup(self) -> dict:
        init_corpus(self.env)
        return {"inputs": tree_digest(Path("."))}

    def op(self, index: int, tracer=None, corrupt=False) -> OpResult:
        pool = self.MUTATE_SEEDS
        mutate_seed = pool[(self.seed + index) % len(pool)]
        corpus = Path(f"op{next(self.fresh_dirs)}") / "corpus"
        shutil.copytree("corpus", corpus)
        _, cost = run_cli(["mutate", "all", "--problems", corpus.as_posix(),
                           "--seed", str(mutate_seed)], tracer)
        result = OpResult(f"{self.name} mutate seed {mutate_seed}",
                          {"op_s": cost, "corpus_build_s": cost})
        result.digest = tree_digest(corpus)
        result.errors += witness_errors(corpus)
        return result


class EvaluateDesk(Workload):
    """Fresh `evaluate`, resumed `evaluate` and `report` over the seed-1
    desk corpus, replaying digest-keyed scripts that set-up records with
    the responder, cycling through a fixed pool of responder seeds from a
    point the benchmark seed picks. The responder seed moves the work of
    an op by up to a tenth, so a run covers the whole pool."""

    name = "evaluate-desk"
    RESPONDER_SEEDS = (1, 2)
    min_ops = len(RESPONDER_SEEDS)

    def setup(self) -> dict:
        init_corpus(self.env)
        corpus_build_s = build_corpus(CORPUS_SEED)
        problems = load_corpus(Path("corpus"))
        self.recorded = {}
        for seed in self.RESPONDER_SEEDS:
            record = Path(f"record{seed}")
            record_mock_script(problems, f"script{seed}", record, seed)
            self.recorded[seed] = {p.id: tree_digest(record / p.id) for p in problems}
        self.outputs = {p.id: [port.name for port in p.signature.outputs] for p in problems}
        self.witness_errors = witness_errors(Path("corpus"))
        return {"corpus_build_s": corpus_build_s, "corpus": tree_digest(Path("corpus")),
                "inputs": tree_digest(Path("."))}

    def op(self, index: int, tracer=None, corrupt=False) -> OpResult:
        pool = self.RESPONDER_SEEDS
        seed = pool[(self.seed + index) % len(pool)]
        run_dir = Path(f"run{next(self.fresh_dirs)}")
        evaluate = ["evaluate", "--out", run_dir.as_posix(), "--problems", "corpus",
                    "--provider", "mock", "--mock-script", f"script{seed}", "--strategy", "nlsc",
                    "--shots", "0"]
        result = OpResult(f"{self.name} responder seed {seed}", errors=list(self.witness_errors))
        _, result.times["evaluate_s"] = run_cli(evaluate, tracer)
        if corrupt:
            corrupt_one_cell_vcd(run_dir)
        fresh = tree_digest(run_dir)
        for pid, recorded in self.recorded[seed].items():
            if tree_digest(run_dir / "problems" / pid) != recorded:
                result.errors.append(f"{pid}: replayed run differs from the recorded one")
        _, result.times["resume_s"] = run_cli(evaluate, tracer)
        if tree_digest(run_dir) != fresh:
            result.errors.append("resume changed the run directory")
        _, result.times["report_s"] = run_cli(["report", run_dir.as_posix()], tracer)
        result.times["op_s"] = sum(result.times.values(), Cost())
        for pid, outputs in self.outputs.items():
            result.errors += recompute_cells(run_dir / "problems" / pid, outputs)
        result.digest = tree_digest(run_dir)
        return result


class SimLong(Workload):
    """`svloop simulate --vcd --coverage` on every reference and seed-1
    mutant, each with one long seeded stimulus; one op is one sweep."""

    name = "sim-long"

    def setup(self) -> dict:
        init_corpus(self.env)
        corpus_build_s = build_corpus(CORPUS_SEED)
        self.designs = []
        Path("stim").mkdir()
        for problem in load_corpus(Path("corpus")):
            files = ["ref.sv"] + sorted(p.name for p in problem.root.glob("bc*.sv"))
            for file in files:
                name = f"{problem.id}-{file[:-3]}"
                stim = Path("stim") / f"{name}.stim"
                stim.write_text(_long_stimulus(problem.signature, f"{self.seed}|{name}"), "utf-8")
                self.designs.append((name, (problem.root / file).as_posix(), stim.as_posix()))
        self.witness_errors = witness_errors(Path("corpus"))
        return {"corpus_build_s": corpus_build_s, "corpus": tree_digest(Path("corpus")),
                "inputs": tree_digest(Path("."))}

    def op(self, index: int, tracer=None, corrupt=False) -> OpResult:
        out = Path("out")
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        printed = hashlib.sha256()
        cost = Cost()
        for name, design, stim in self.designs:
            stdout, one = run_cli(["simulate", design, "--stim", stim, "--vcd",
                                   f"out/{name}.vcd", "--coverage"], tracer)
            cost += one
            printed.update(stdout.encode())
        result = OpResult(f"{self.name} seed {self.seed}", {"op_s": cost},
                          cycles=SIM_CYCLES * len(self.designs), errors=list(self.witness_errors))
        result.digest = hashlib.sha256(
            (tree_digest(out) + printed.hexdigest()).encode()).hexdigest()
        return result


def _long_stimulus(signature, seed: str) -> str:
    rng = random.Random(seed)
    reset = signature.reset
    rows = []
    for n in range(SIM_CYCLES):
        row = []
        for port in signature.stimulus_inputs:
            if reset is not None and port.name == reset.name:
                asserted = n < 2 or rng.random() < 0.02
                level = 1 if reset.active_high else 0
                row.append(f"{level if asserted else 1 - level:01b}")
            else:
                row.append(f"{rng.getrandbits(port.width):0{port.width}b}")
        rows.append(" ".join(row))
    return signature.stimulus_header() + "\n" + "\n".join(rows) + "\n"


WORKLOADS = {w.name: w for w in (CorpusBuild, EvaluateDesk, SimLong)}
