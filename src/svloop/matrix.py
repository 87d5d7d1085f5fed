"""Full source x target evaluation.

For every problem: generate one suite per source mutant, apply it to
every target mutant (verdicts against the oracle fill AR/DR/DA), then
debug each target with the suite seeded from that same mutant. Cells are
independent, isolate their failures as skipped-with-reason, and are
checkpointed on disk so an interrupted run resumes without recomputation.
All artifacts are timestamp-free; a rerun with the same inputs is
byte-identical.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import SvLoopError
from .frontend.elaborate import elaborate_source
from .gateway.config import NLSC, ProviderBinding
from .gateway.providers import build_provider
from .loops import DebugState, TestGenState, debug, generate_tests
from .manifest import Problem, RunConfig, load_problem
from .metrics import PairResult, divergence_rate, divergent_attack
from .sim.engine import run
from .sim.stimulus import UnitTest, parse_stimulus
from .sim.vcd import export_vcd
from .verdict import compare


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


def _write_json(path: Path, data) -> None:
    # checkpoint files gate resume decisions, so land them atomically
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", "utf-8")
    tmp.replace(path)


def _write_exchanges(dirpath: Path, prefix: str, exchanges) -> None:
    dirpath.mkdir(parents=True, exist_ok=True)
    for ex in exchanges:
        (dirpath / f"{prefix}-{ex.iteration:02d}.prompt.txt").write_text(ex.prompt, "utf-8")
        if ex.response is not None:
            (dirpath / f"{prefix}-{ex.iteration:02d}.response.txt").write_text(
                ex.response, "utf-8"
            )


def _gen_state_summary(state: TestGenState) -> dict:
    return {
        "tests": [t.id for t in state.tests],
        "best_coverage": _fraction_pair(state.best_coverage),
        "accepted_coverage": [_fraction_pair(c) for c in state.accepted_coverage],
        "iterations": state.iterations,
        "provider_calls": state.provider_calls,
        "rejections": [
            {"iteration": r.iteration, "reason": r.reason, "detail": r.detail}
            for r in state.rejections
        ],
    }


def _debug_state_summary(state: DebugState) -> dict:
    return {
        "initial_pass": _fraction_pair(state.initial_pass),
        "best_pass": _fraction_pair(state.best_pass),
        "solved": state.solved,
        "iterations": state.iterations,
        "provider_calls": state.provider_calls,
        "history": [
            {
                "iteration": h.iteration,
                "accepted": h.accepted,
                "pass_fraction": None if h.pass_fraction is None else _fraction_pair(h.pass_fraction),
                "reason": h.reason,
            }
            for h in state.history
        ],
        "rejections": [
            {"iteration": r.iteration, "reason": r.reason, "detail": r.detail}
            for r in state.rejections
        ],
    }


def evaluate_problem(problem: Problem, config: RunConfig, provider, out_dir: Path) -> EvalRun:
    """Evaluate one problem; artifacts land under ``out_dir``."""
    mutants = problem.mutants()
    result = EvalRun(problem.id, problem.manifest.kind, [m[0] for m in mutants])
    if not mutants:
        result.error = "no mutant corpus on disk (run `svloop mutate` first)"
        return result

    spec = problem.spec()
    signature = problem.signature
    outputs = [p.name for p in signature.outputs]
    gen_cfg = config.gen_config()
    oracle = problem.design

    target_designs = {}
    target_errors = {}
    for bc_id, source, _ in mutants:
        try:
            target_designs[bc_id] = elaborate_source(source)
        except SvLoopError as exc:
            target_errors[bc_id] = f"target does not elaborate: {exc}"

    suites: dict[str, list[UnitTest]] = {}
    oracle_traces: dict[str, dict] = {}

    for src_id, src_source, _ in mutants:
        src_dir = out_dir / "sources" / src_id.lower()
        state_file = src_dir / "genstate.json"
        if state_file.exists():
            summary = json.loads(state_file.read_text("utf-8"))
            tests = []
            for tid in summary["tests"]:
                text = (src_dir / "tests" / f"{tid}.stim").read_text("utf-8")
                tests.append(parse_stimulus(text, signature, tid))
        else:
            state = generate_tests(
                spec,
                src_source if gen_cfg.strategy == NLSC else None,
                gen_cfg,
                provider,
                iteration_cap=config.iteration_cap,
                test_prefix=f"{src_id.lower()}-t",
            )
            tests = state.tests
            summary = _gen_state_summary(state)
            (src_dir / "tests").mkdir(parents=True, exist_ok=True)
            for test in tests:
                (src_dir / "tests" / f"{test.id}.stim").write_text(test.to_text(), "utf-8")
            _write_exchanges(src_dir / "prompts", "gen", state.exchanges)
            _write_json(state_file, summary)
        suites[src_id] = tests
        result.gen_summaries[src_id] = summary

        traces = {}
        for test in tests:
            trace = run(oracle, test, signature)
            traces[test.id] = trace
            vcd_file = out_dir / "oracle" / src_id.lower() / f"{test.id}.vcd"
            if not vcd_file.exists():
                vcd_file.parent.mkdir(parents=True, exist_ok=True)
                vcd_file.write_bytes(export_vcd(trace, signature))
        oracle_traces[src_id] = traces

    for src_id, _, _ in mutants:
        for tgt_id, _, _ in mutants:
            cell_dir = out_dir / "cells" / src_id.lower() / tgt_id.lower()
            result_file = cell_dir / "result.json"
            if result_file.exists():
                cell = json.loads(result_file.read_text("utf-8"))
                if "skipped" in cell:
                    result.skipped[(src_id, tgt_id)] = cell["skipped"]
                else:
                    result.cells[(src_id, tgt_id)] = PairResult(
                        src_id,
                        tgt_id,
                        cell["ar"],
                        Fraction(*cell["dr"]),
                        Fraction(*cell["da"]),
                    )
                continue
            if tgt_id in target_errors:
                reason = target_errors[tgt_id]
                result.skipped[(src_id, tgt_id)] = reason
                _write_json(result_file, {"source": src_id, "target": tgt_id, "skipped": reason})
                continue
            try:
                cell = _evaluate_cell(
                    suites[src_id],
                    oracle_traces[src_id],
                    target_designs[tgt_id],
                    signature,
                    outputs,
                    src_id,
                    tgt_id,
                    cell_dir,
                )
            except SvLoopError as exc:
                reason = f"{type(exc).__name__}: {exc}"
                result.skipped[(src_id, tgt_id)] = reason
                _write_json(result_file, {"source": src_id, "target": tgt_id, "skipped": reason})
                continue
            if isinstance(cell, str):
                result.skipped[(src_id, tgt_id)] = cell
                _write_json(result_file, {"source": src_id, "target": tgt_id, "skipped": cell})
            else:
                result.cells[(src_id, tgt_id)] = cell

    for tgt_id, _, _ in mutants:
        debug_dir = out_dir / "debug" / tgt_id.lower()
        state_file = debug_dir / "state.json"
        if state_file.exists():
            result.debug_outcomes[tgt_id] = json.loads(state_file.read_text("utf-8"))
            continue
        tests = suites.get(tgt_id, [])
        if tgt_id in target_errors:
            outcome = {"skipped": target_errors[tgt_id]}
        elif not tests:
            outcome = {"skipped": "no tests generated for this target"}
        else:
            state = debug(
                spec,
                target_designs[tgt_id],
                tests,
                gen_cfg,
                provider,
                iteration_cap=config.iteration_cap,
                mismatch_limit=config.mismatch_limit,
            )
            outcome = _debug_state_summary(state)
            debug_dir.mkdir(parents=True, exist_ok=True)
            (debug_dir / "final.sv").write_text(state.design.text, "utf-8")
            _write_exchanges(debug_dir / "prompts", "debug", state.exchanges)
        result.debug_outcomes[tgt_id] = outcome
        _write_json(state_file, outcome)

    _write_matrix_files(result, out_dir)
    return result


def _evaluate_cell(tests, oracle_traces, target, signature, outputs, src_id, tgt_id, cell_dir):
    if not tests:
        return "no tests generated from this source"
    verdict_rows = []
    first_failing = None
    dr = Fraction(0)
    traces_dir = cell_dir / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    for test in tests:
        trace = run(target, test, signature)
        (traces_dir / f"{test.id}.vcd").write_bytes(export_vcd(trace, signature))
        verdict = compare(trace, oracle_traces[test.id], outputs)
        verdict_rows.append(
            {
                "id": test.id,
                "outcome": verdict.outcome,
                "mismatch_cycles": verdict.mismatch_count,
                "cycles": test.cycles,
            }
        )
        if not verdict.passed and first_failing is None:
            first_failing = test.id
            dr = divergence_rate(oracle_traces[test.id], trace, outputs)
    ar = 1 if first_failing is not None else 0
    da = divergent_attack(ar, dr)
    cell = PairResult(src_id, tgt_id, ar, dr, da)
    _write_json(
        cell_dir / "result.json",
        {
            "source": src_id,
            "target": tgt_id,
            "ar": ar,
            "dr": _fraction_pair(dr),
            "da": _fraction_pair(da),
            "first_failing": first_failing,
            "tests": verdict_rows,
        },
    )
    return cell


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
    cells_json = {}
    for (src, tgt), cell in sorted(result.cells.items()):
        cells_json[f"{src}->{tgt}"] = {
            "ar": cell.ar,
            "dr": _fraction_pair(cell.dr),
            "da": _fraction_pair(cell.da),
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


def _evaluate_problem_task(problem_dir: str, config_dict: dict, out_dir: str) -> dict:
    config = RunConfig.from_dict(config_dict)
    problem = load_problem(problem_dir)
    binding = _binding_from_config(config)
    log_dir = Path(out_dir) / "provider_log" if config.provider == "live" else None
    provider = build_provider(binding, log_dir)
    result = evaluate_problem(problem, config, provider, Path(out_dir))
    return _run_summary_entry(result)


def _binding_from_config(config: RunConfig) -> ProviderBinding:
    if config.provider == "mock":
        return ProviderBinding.mock(config.script_dir)
    return ProviderBinding.live_from_env()


def _run_summary_entry(result: EvalRun) -> dict:
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


def evaluate_matrix(problems: list[Problem], config: RunConfig, out_root) -> dict:
    """Evaluate every problem, write the run directory, return the summary.

    With ``config.jobs > 1`` problems are evaluated in separate processes;
    a shared sequential mock script is only meaningful single-process, so
    parallel runs should use digest-keyed scripts. A worker process that
    dies breaks the pool, and every problem it leaves unfinished gets an
    error entry.
    """
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    _write_json(out_root / "run_config.json", config.as_dict())

    summary: dict = {"config": config.as_dict(), "problems": {}}
    ordered = sorted(problems, key=lambda p: p.id)
    log_dir = out_root / "provider_log" if config.provider == "live" else None
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futures = {
                p.id: pool.submit(
                    _evaluate_problem_task,
                    str(p.root),
                    config.as_dict(),
                    str(out_root / "problems" / p.id),
                )
                for p in ordered
            }
            for pid, future in futures.items():
                try:
                    summary["problems"][pid] = future.result()
                except (SvLoopError, OSError, BrokenProcessPool) as exc:
                    summary["problems"][pid] = _error_entry(exc)
    else:
        binding = _binding_from_config(config)
        provider = build_provider(binding, log_dir)
        for problem in ordered:
            try:
                result = evaluate_problem(
                    problem, config, provider, out_root / "problems" / problem.id
                )
            except (SvLoopError, OSError) as exc:
                summary["problems"][problem.id] = _error_entry(exc)
                continue
            summary["problems"][problem.id] = _run_summary_entry(result)
    _write_json(out_root / "summary.json", summary)
    return summary


def _error_entry(exc: Exception) -> dict:
    return {
        "mutants": 0,
        "cells": 0,
        "skipped_cells": 0,
        "debug_solved": 0,
        "error": f"{type(exc).__name__}: {exc}",
    }
