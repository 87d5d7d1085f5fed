"""Full source x target evaluation.

For every problem: generate one suite per source mutant, apply it to
every target mutant (verdicts against the oracle fill AR/DR/DA), then
debug each target with the suite seeded from that same mutant. Cells are
independent and isolate their failures as skipped-with-reason.

A source, a cell and a debug target are each a unit of the run directory,
which ``_unit`` reads or makes: its files, then its JSON checkpoint
(``genstate.json``, ``result.json``, ``state.json``), renamed into place.
A resume trusts a unit exactly when its checkpoint exists and rewrites it
otherwise: consistent across a process crash at any write, not across
power loss. A record read and one just made pass the same decoder. Only a
unit that must be rewritten elaborates a target, or reads and simulates a
checkpointed source's tests. A fresh source writes its oracle VCDs from
generation's traces. Artifacts carry no timestamp; a rerun is byte-identical.
"""

from __future__ import annotations

import fcntl
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path
from typing import Optional

from .errors import (
    CheckpointError,
    RunDirectoryError,
    SvLoopError,
    _mkdir,
    _read_json,
    _read_text,
    _required_keys,
    _write_bytes,
    _write_json,
)
from .frontend.elaborate import elaborate_source
from .gateway.providers import build_provider
from .loops import DebugState, TestGenState, debug, generate_tests, run_suite
from .manifest import Problem, RunConfig
from .metrics import PairResult, divergence_rate, divergent_attack, stored_ratio
from .sim.engine import Trace, run
from .sim.stimulus import UnitTest, parse_stimulus
from .sim.vcd import export_vcd


@dataclass
class EvalRun:
    problem_id: str
    kind: str
    mutants: list[str]
    cells: dict[tuple[str, str], PairResult] = field(default_factory=dict)
    skipped: dict[tuple[str, str], str] = field(default_factory=dict)
    debug_outcomes: dict[str, dict] = field(default_factory=dict)
    gen_summaries: dict[str, dict] = field(default_factory=dict)
    error: Optional[str] = None


def _fraction_pair(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def _write_exchanges(dirpath: str, prefix: str, exchanges) -> None:
    _mkdir(dirpath)
    for ex in exchanges:
        for kind, text in (("prompt", ex.prompt), ("response", ex.response)):
            if text is not None:
                _write_bytes(f"{dirpath}/{prefix}-{ex.iteration:02d}.{kind}.txt", text.encode())


def _gen_state_summary(state: TestGenState) -> dict:
    return {
        "tests": [t.id for t in state.tests],
        "best_coverage": _fraction_pair(state.best_coverage),
        "accepted_coverage": [_fraction_pair(c) for c in state.accepted_coverage],
        "iterations": state.iterations,
        "provider_calls": state.provider_calls,
        "rejections": [vars(r) for r in state.rejections],
    }


def _debug_state_summary(state: DebugState) -> dict:
    return {
        "initial_pass": _fraction_pair(state.initial_pass),
        "best_pass": _fraction_pair(state.best_pass),
        "solved": state.solved,
        "iterations": state.iterations,
        "provider_calls": state.provider_calls,
        "history": [
            {**vars(h), "pass_fraction": None if h.pass_fraction is None
             else _fraction_pair(h.pass_fraction)}
            for h in state.history
        ],
        "rejections": [vars(r) for r in state.rejections],
    }


def _unit(checkpoint: str, make, decode):
    """``decode`` of the unit's checkpoint record: the one on disk, or the one
    ``make(unit_dir)`` returns after writing the unit's files, saved last.
    A wrongly shaped record is a CheckpointError naming the checkpoint."""
    if os.path.exists(checkpoint):
        record = _read_json(Path(checkpoint), CheckpointError)
    else:
        unit_dir = os.path.dirname(checkpoint)
        _mkdir(unit_dir)
        record = make(unit_dir)
        _write_json(checkpoint, record)
    if not isinstance(record, dict):
        raise CheckpointError(f"{checkpoint} is malformed: not a JSON object")
    with _required_keys(checkpoint, CheckpointError):
        return decode(record)


def _gen_record(record: dict) -> dict:
    """genstate.json: the record, whose ``tests`` lists the source's test ids."""
    if not (type(record["tests"]) is list and all(type(t) is str for t in record["tests"])):
        raise ValueError("'tests' (not a list of ids)")
    return record


def _skipped(record: dict) -> bool:
    """Whether a result.json or state.json record is of a skipped unit,
    whose reason is a string."""
    if "skipped" in record and type(record["skipped"]) is not str:
        raise ValueError("'skipped' (not a string)")
    return "skipped" in record


def _cell_outcome(record: dict, src_id: str, tgt_id: str):
    """result.json: the cell's PairResult, or the reason it was skipped."""
    if _skipped(record):
        return record["skipped"]
    ar, dr, da = (stored_ratio(record[name], name) for name in ("ar", "dr", "da"))
    return PairResult(src_id, tgt_id, int(ar), dr, da)


def _debug_record(record: dict) -> dict:
    """state.json: the record of a skipped target or of one with a best pass."""
    if not _skipped(record):
        stored_ratio(record["best_pass"], "best_pass")
    return record


def evaluate_problem(problem: Problem, config: RunConfig, provider, out_dir: Path) -> EvalRun:
    """Evaluate one problem; artifacts land under ``out_dir``."""
    out = os.fspath(Path(out_dir))
    mutants = problem.mutants()
    result = EvalRun(problem.id, problem.kind, [m[0] for m in mutants])
    if not mutants:
        result.error = "no mutant corpus on disk (run `svloop mutate` first)"
        return result

    signature = problem.signature
    outputs = [p.name for p in signature.outputs]
    sources = {bc_id: source for bc_id, source, _ in mutants}
    suites: dict[str, tuple[list[UnitTest], dict[str, Trace]]] = {}  # tests, oracle traces

    # targets and suites are made the first time a unit without a checkpoint needs them
    @cache
    def target(tgt_id: str):
        """The target's design, or the reason it does not elaborate."""
        try:
            return elaborate_source(sources[tgt_id])
        except SvLoopError as exc:
            return f"target does not elaborate: {exc}"

    def suite(src_id: str) -> tuple[list[UnitTest], dict[str, Trace]]:
        if src_id not in suites:
            tests_dir = f"{out}/sources/{src_id.lower()}/tests"
            tests = [parse_stimulus(_read_text(Path(f"{tests_dir}/{tid}.stim"), CheckpointError),
                                    signature, tid)
                     for tid in result.gen_summaries[src_id]["tests"]]
            suites[src_id] = tests, {t.id: run(problem.design, t, signature) for t in tests}
        return suites[src_id]

    # each directory is made once, parent first; a crashed attempt may have made it.
    # A unit's make runs, if at all, inside the iteration that defines it.
    _mkdir(out, parents=True)
    _mkdir(f"{out}/sources")
    for src_id, src_source, _ in mutants:
        def generated(src_dir: str) -> dict:
            # generate_tests shows the source mutant only under NLSC
            state = generate_tests(problem, src_source, config, provider,
                                   test_prefix=f"{src_id.lower()}-t")
            tests, traces = suites[src_id] = state.tests, state.traces
            _mkdir(f"{src_dir}/tests")
            for test in tests:
                _write_bytes(f"{src_dir}/tests/{test.id}.stim", test.to_text().encode())
            if tests:
                # the first source with tests makes oracle/
                if not any(gen["tests"] for gen in result.gen_summaries.values()):
                    _mkdir(f"{out}/oracle")
                vcd_dir = f"{out}/oracle/{src_id.lower()}"
                _mkdir(vcd_dir)
                for tid, trace in traces.items():
                    _write_bytes(f"{vcd_dir}/{tid}.vcd", export_vcd(trace, signature))
            _write_exchanges(f"{src_dir}/prompts", "gen", state.exchanges)
            return _gen_state_summary(state)
        result.gen_summaries[src_id] = _unit(
            f"{out}/sources/{src_id.lower()}/genstate.json", generated, _gen_record)

    _mkdir(f"{out}/cells")
    for src_id, _, _ in mutants:
        _mkdir(f"{out}/cells/{src_id.lower()}")
        for tgt_id, _, _ in mutants:
            def evaluated(cell_dir: str) -> dict:
                cell = {"source": src_id, "target": tgt_id}
                design = target(tgt_id)
                if isinstance(design, str):
                    cell["skipped"] = design
                elif not result.gen_summaries[src_id]["tests"]:
                    cell["skipped"] = "no tests generated from this source"
                else:
                    tests, traces = suite(src_id)  # unreadable tests fail the whole problem
                    try:
                        cell.update(_evaluate_cell(tests, traces, design, signature, outputs,
                                                   cell_dir))
                    except SvLoopError as exc:
                        cell["skipped"] = f"{type(exc).__name__}: {exc}"
                return cell
            outcome = _unit(f"{out}/cells/{src_id.lower()}/{tgt_id.lower()}/result.json",
                            evaluated, lambda record: _cell_outcome(record, src_id, tgt_id))
            outcomes = result.cells if isinstance(outcome, PairResult) else result.skipped
            outcomes[(src_id, tgt_id)] = outcome

    _mkdir(f"{out}/debug")
    for tgt_id, _, _ in mutants:
        def debugged(debug_dir: str) -> dict:
            design = target(tgt_id)
            if isinstance(design, str):
                return {"skipped": design}
            if not result.gen_summaries[tgt_id]["tests"]:
                return {"skipped": "no tests generated for this target"}
            tests, traces = suite(tgt_id)
            state = debug(problem, design, tests, traces, config, provider)
            _write_bytes(f"{debug_dir}/final.sv", state.design.text.encode())
            _write_exchanges(f"{debug_dir}/prompts", "debug", state.exchanges)
            return _debug_state_summary(state)
        result.debug_outcomes[tgt_id] = _unit(f"{out}/debug/{tgt_id.lower()}/state.json",
                                              debugged, _debug_record)

    _write_matrix_files(result, out)
    return result


def _evaluate_cell(tests, oracle_traces, target, signature, outputs, cell_dir) -> dict:
    """Run a non-empty suite on the target, writing its VCDs under
    ``cell_dir``; the cell's AR/DR/DA and per-test verdicts."""
    traces_dir = f"{cell_dir}/traces"
    _mkdir(traces_dir)
    verdicts, traces = run_suite(target, tests, oracle_traces, outputs, signature)
    for test, trace in zip(tests, traces):
        _write_bytes(f"{traces_dir}/{test.id}.vcd", export_vcd(trace, signature))
    first = next((i for i, v in enumerate(verdicts) if not v.passed), None)
    ar = int(first is not None)
    dr = divergence_rate(verdicts[first]) if ar else Fraction(0)
    return {
        "ar": ar,
        "dr": _fraction_pair(dr),
        "da": _fraction_pair(divergent_attack(ar, dr)),
        "first_failing": tests[first].id if ar else None,
        "tests": [{"id": test.id, "outcome": v.outcome,
                   "mismatch_cycles": v.mismatch_count, "cycles": v.cycles}
                  for test, v in zip(tests, verdicts)],
    }


def _write_matrix_files(result: EvalRun, out: str) -> None:
    rows = ["source,target,ar,dr,da"]
    for src in result.mutants:
        for tgt in result.mutants:
            key = (src, tgt)
            if key in result.cells:
                cell = result.cells[key]
                rows.append(
                    f"{src},{tgt},{cell.ar},{float(cell.dr)!r},{float(cell.da)!r}"
                )
            elif key in result.skipped:
                rows.append(f"{src},{tgt},,,")
    _write_bytes(f"{out}/matrix.csv", ("\n".join(rows) + "\n").encode())
    cells_json = {
        f"{src}->{tgt}": {"ar": c.ar, "dr": _fraction_pair(c.dr), "da": _fraction_pair(c.da)}
        for (src, tgt), c in sorted(result.cells.items())
    }
    skipped_json = {f"{src}->{tgt}": reason for (src, tgt), reason in sorted(result.skipped.items())}
    _write_json(
        f"{out}/matrix.json",
        {
            "problem": result.problem_id,
            "kind": result.kind,
            "mutants": result.mutants,
            "cells": cells_json,
            "skipped": skipped_json,
            "debug": {k: result.debug_outcomes[k] for k in sorted(result.debug_outcomes)},
            "gen": {k: result.gen_summaries[k] for k in sorted(result.gen_summaries)},
        },
    )


def _problem_entry(problem: Problem, config: RunConfig, provider, out_dir: Path) -> dict:
    """Evaluate one problem; its summary entry, an error entry if it fails."""
    try:
        result = evaluate_problem(problem, config, provider, out_dir)
    except (SvLoopError, OSError) as exc:
        return _error_entry(exc)
    entry = {
        "mutants": len(result.mutants),
        "cells": len(result.cells),
        "skipped_cells": len(result.skipped),
        "debug_solved": sum(
            1 for d in result.debug_outcomes.values() if d.get("solved") is True
        ),
    }
    if result.error:
        entry["error"] = result.error
    return entry


def _error_entry(exc: Exception) -> dict:
    return {"mutants": 0, "cells": 0, "skipped_cells": 0, "debug_solved": 0,
            "error": f"{type(exc).__name__}: {exc}"}


def _evaluate_problem_task(problem: Problem, config: RunConfig, out_dir: Path) -> dict:
    # a worker's provider (and so its provider_log/) serves this problem only
    provider = build_provider(config, out_dir / "provider_log")
    return _problem_entry(problem, config, provider, out_dir)


@contextmanager
def _sole_writer(run_dir: Path):
    """Hold an exclusive lock on ``run_dir`` itself, which adds no file; a
    directory that another process holds is a RunDirectoryError."""
    fd = os.open(run_dir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RunDirectoryError(f"{run_dir} is being written by another evaluate") from None
        yield
    finally:
        os.close(fd)  # and with it the lock


def _claim(config_file: Path, config: dict) -> None:
    """Write ``config`` into a new run directory, or check that it is the
    one already there: a run directory holds one configuration."""
    if not os.path.exists(config_file):
        _write_json(config_file, config)
        return
    stored = _read_json(config_file, CheckpointError)
    if not isinstance(stored, dict):
        raise CheckpointError(f"{config_file} is malformed: not a JSON object")
    for name in [*config, *sorted(stored.keys() - config.keys())]:
        there, here = (repr(d[name]) if name in d else "absent" for d in (stored, config))
        if there != here:
            raise RunDirectoryError(f"{config_file} records another configuration: "
                                    f"{name} is {there} there, {here} for this run")


def evaluate_matrix(problems: list[Problem], config: RunConfig, out_root) -> dict:
    """Evaluate every problem, write the run directory, return the summary.

    A run directory holds one configuration and one writer: a run whose
    configuration differs in any field from the directory's
    ``run_config.json``, or whose directory another process is writing, is
    refused before it writes anything.

    With ``config.jobs > 1`` problems are evaluated in separate processes,
    each handed the already-loaded problem; a shared sequential mock script
    is only meaningful single-process, so parallel runs should use
    digest-keyed scripts. A worker process that dies breaks the pool, and
    every problem it leaves unfinished gets an error entry.
    """
    out_root = Path(out_root)
    # a provider that cannot be built fails the run before it makes a directory;
    # with --jobs N each worker builds its own, and this one is only the check
    provider = build_provider(config, out_root / "provider_log")
    _mkdir(out_root, parents=True)
    with _sole_writer(out_root):  # held by this process, also under --jobs N
        _claim(out_root / "run_config.json", config.as_dict())
        _mkdir(out_root / "problems")
        summary: dict = {"config": config.as_dict(), "problems": {}}
        ordered = sorted(problems, key=lambda p: p.id)
        if config.jobs > 1:
            from concurrent.futures import ProcessPoolExecutor
            from concurrent.futures.process import BrokenProcessPool

            with ProcessPoolExecutor(max_workers=config.jobs) as pool:
                futures = {
                    p.id: pool.submit(_evaluate_problem_task, p, config,
                                      out_root / "problems" / p.id)
                    for p in ordered
                }
                for pid, future in futures.items():
                    try:
                        summary["problems"][pid] = future.result()
                    except BrokenProcessPool as exc:
                        summary["problems"][pid] = _error_entry(exc)
        else:
            for problem in ordered:
                summary["problems"][problem.id] = _problem_entry(
                    problem, config, provider, out_root / "problems" / problem.id
                )
        _write_json(out_root / "summary.json", summary)
    return summary
