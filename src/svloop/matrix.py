"""Full source x target evaluation.

For every problem: generate one suite per source mutant, apply it to
every target mutant (verdicts against the oracle fill AR/DR/DA), then
debug each target with the suite seeded from that same mutant. Cells are
independent and isolate their failures as skipped-with-reason.

A source, a cell and a debug target are each a unit of the run directory
that writes its files, then its JSON checkpoint (``genstate.json``,
``result.json``, ``state.json``), the one file renamed into place. A
resume trusts a unit exactly when its checkpoint exists and rewrites it
otherwise: consistent across a process crash at any write, not across
power loss. It reads every checkpoint, but elaborates a target, or reads
and simulates a checkpointed source's tests, only for a unit that must be
rewritten. A fresh source writes its oracle VCDs from the traces that
generation made. Artifacts carry no timestamp; a rerun is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import (
    CheckpointError,
    SvLoopError,
    _read_json,
    _read_text,
    _required_keys,
    _write_json,
)
from .frontend.elaborate import ElaboratedDesign, elaborate_source
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


def _read_checkpoint(path: Path) -> dict:
    data = _read_json(path, CheckpointError)
    if not isinstance(data, dict):
        raise CheckpointError(f"{path} is malformed: not a JSON object")
    return data


def _write_exchanges(dirpath: Path, prefix: str, exchanges) -> None:
    dirpath.mkdir(exist_ok=True)
    for ex in exchanges:
        for kind, text in (("prompt", ex.prompt), ("response", ex.response)):
            if text is not None:
                (dirpath / f"{prefix}-{ex.iteration:02d}.{kind}.txt").write_text(text, "utf-8")


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


def evaluate_problem(problem: Problem, config: RunConfig, provider, out_dir: Path) -> EvalRun:
    """Evaluate one problem; artifacts land under ``out_dir``."""
    mutants = problem.mutants()
    result = EvalRun(problem.id, problem.kind, [m[0] for m in mutants])
    if not mutants:
        result.error = "no mutant corpus on disk (run `svloop mutate` first)"
        return result

    signature = problem.signature
    outputs = [p.name for p in signature.outputs]
    oracle = problem.design
    sources = {bc_id: source for bc_id, source, _ in mutants}

    # targets and suites are filled the first time a unit without a checkpoint needs them
    targets: dict[str, ElaboratedDesign] = {}
    target_errors: dict[str, str] = {}
    test_ids: dict[str, list[str]] = {}                              # of every source
    suites: dict[str, tuple[list[UnitTest], dict[str, Trace]]] = {}  # tests, oracle traces

    def target_error(tgt_id: str) -> Optional[str]:
        if tgt_id not in targets and tgt_id not in target_errors:
            try:
                targets[tgt_id] = elaborate_source(sources[tgt_id])
            except SvLoopError as exc:
                target_errors[tgt_id] = f"target does not elaborate: {exc}"
        return target_errors.get(tgt_id)

    def suite(src_id: str) -> tuple[list[UnitTest], dict[str, Trace]]:
        if src_id not in suites:
            tests_dir = out_dir / "sources" / src_id.lower() / "tests"
            tests = [parse_stimulus(_read_text(tests_dir / f"{tid}.stim", CheckpointError),
                                    signature, tid)
                     for tid in test_ids[src_id]]
            suites[src_id] = tests, {test.id: run(oracle, test, signature) for test in tests}
        return suites[src_id]

    # each directory is made once, parent first; a crashed attempt may have made it
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sources").mkdir(exist_ok=True)
    for src_id, src_source, _ in mutants:
        src_dir = out_dir / "sources" / src_id.lower()
        state_file = src_dir / "genstate.json"
        if state_file.exists():
            summary = _read_checkpoint(state_file)
            listed = summary.get("tests")
            if not (isinstance(listed, list) and all(isinstance(tid, str) for tid in listed)):
                raise CheckpointError(f"{state_file} is malformed: 'tests' is not a list of ids")
        else:
            # generate_tests shows the source mutant only under NLSC
            state = generate_tests(problem, src_source, config, provider,
                                   test_prefix=f"{src_id.lower()}-t")
            tests, traces = state.tests, state.traces
            suites[src_id] = tests, traces
            summary = _gen_state_summary(state)
            src_dir.mkdir(exist_ok=True)
            (src_dir / "tests").mkdir(exist_ok=True)
            for test in tests:
                (src_dir / "tests" / f"{test.id}.stim").write_text(test.to_text(), "utf-8")
            if tests:
                if not any(test_ids.values()):  # the first source with tests makes oracle/
                    (out_dir / "oracle").mkdir(exist_ok=True)
                vcd_dir = out_dir / "oracle" / src_id.lower()
                vcd_dir.mkdir(exist_ok=True)
                for test in tests:
                    (vcd_dir / f"{test.id}.vcd").write_bytes(export_vcd(traces[test.id], signature))
            _write_exchanges(src_dir / "prompts", "gen", state.exchanges)
            _write_json(state_file, summary)
        test_ids[src_id] = summary["tests"]
        result.gen_summaries[src_id] = summary

    (out_dir / "cells").mkdir(exist_ok=True)
    for src_id, _, _ in mutants:
        (out_dir / "cells" / src_id.lower()).mkdir(exist_ok=True)
        for tgt_id, _, _ in mutants:
            cell_dir = out_dir / "cells" / src_id.lower() / tgt_id.lower()
            result_file = cell_dir / "result.json"
            if result_file.exists():
                cell = _read_checkpoint(result_file)
            else:
                cell_dir.mkdir(exist_ok=True)
                cell = {"source": src_id, "target": tgt_id}
                error = target_error(tgt_id)
                if error is not None:
                    cell["skipped"] = error
                elif not test_ids[src_id]:
                    cell["skipped"] = "no tests generated from this source"
                else:
                    tests, traces = suite(src_id)
                    try:
                        cell.update(_evaluate_cell(tests, traces, targets[tgt_id], signature,
                                                   outputs, cell_dir))
                    except SvLoopError as exc:
                        cell["skipped"] = f"{type(exc).__name__}: {exc}"
                _write_json(result_file, cell)
            if "skipped" in cell:
                result.skipped[(src_id, tgt_id)] = cell["skipped"]
                continue
            with _required_keys(result_file, CheckpointError):
                ar, dr, da = (stored_ratio(cell[name], name) for name in ("ar", "dr", "da"))
                result.cells[(src_id, tgt_id)] = PairResult(src_id, tgt_id, int(ar), dr, da)

    (out_dir / "debug").mkdir(exist_ok=True)
    for tgt_id, _, _ in mutants:
        debug_dir = out_dir / "debug" / tgt_id.lower()
        state_file = debug_dir / "state.json"
        if state_file.exists():
            result.debug_outcomes[tgt_id] = _read_checkpoint(state_file)
            continue
        debug_dir.mkdir(exist_ok=True)
        error = target_error(tgt_id)
        if error is not None:
            outcome = {"skipped": error}
        elif not test_ids[tgt_id]:
            outcome = {"skipped": "no tests generated for this target"}
        else:
            tests, traces = suite(tgt_id)
            state = debug(problem, targets[tgt_id], tests, traces, config, provider)
            outcome = _debug_state_summary(state)
            (debug_dir / "final.sv").write_text(state.design.text, "utf-8")
            _write_exchanges(debug_dir / "prompts", "debug", state.exchanges)
        result.debug_outcomes[tgt_id] = outcome
        _write_json(state_file, outcome)

    _write_matrix_files(result, out_dir)
    return result


def _evaluate_cell(tests, oracle_traces, target, signature, outputs, cell_dir) -> dict:
    """Run a non-empty suite on the target, writing its VCDs under
    ``cell_dir``; the cell's AR/DR/DA and per-test verdicts."""
    traces_dir = cell_dir / "traces"
    traces_dir.mkdir(exist_ok=True)
    verdicts, traces = run_suite(target, tests, oracle_traces, outputs, signature)
    for test, trace in zip(tests, traces):
        (traces_dir / f"{test.id}.vcd").write_bytes(export_vcd(trace, signature))
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


def _write_matrix_files(result: EvalRun, out_dir: Path) -> None:
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
    (out_dir / "matrix.csv").write_text("\n".join(rows) + "\n", "utf-8")
    cells_json = {
        f"{src}->{tgt}": {"ar": c.ar, "dr": _fraction_pair(c.dr), "da": _fraction_pair(c.da)}
        for (src, tgt), c in sorted(result.cells.items())
    }
    skipped_json = {f"{src}->{tgt}": reason for (src, tgt), reason in sorted(result.skipped.items())}
    _write_json(
        out_dir / "matrix.json",
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


def evaluate_matrix(problems: list[Problem], config: RunConfig, out_root) -> dict:
    """Evaluate every problem, write the run directory, return the summary.

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
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "problems").mkdir(exist_ok=True)
    _write_json(out_root / "run_config.json", config.as_dict())

    summary: dict = {"config": config.as_dict(), "problems": {}}
    ordered = sorted(problems, key=lambda p: p.id)
    if config.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = {
                p.id: pool.submit(_evaluate_problem_task, p, config, out_root / "problems" / p.id)
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
