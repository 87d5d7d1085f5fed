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
power loss. A record is made by its encoder in ``metrics``, and one read
is accepted exactly when that encoder gives it back. Only a
unit that must be rewritten elaborates a target, or reads and simulates a
checkpointed source's tests. A fresh source writes its oracle VCDs from
generation's traces. Artifacts carry no timestamp; a rerun is byte-identical.
"""

from __future__ import annotations

import fcntl
import os
from contextlib import contextmanager
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
from .loops import debug, generate_tests, run_suite
from .manifest import Problem, RunConfig
from .metrics import (
    METRICS,
    cell_record,
    debug_record,
    gen_record,
    read_cell_record,
    read_debug_record,
    read_gen_record,
)
from .sim.engine import Trace, run
from .sim.stimulus import UnitTest, parse_stimulus
from .sim.vcd import export_vcd


def _write_exchanges(dirpath: str, prefix: str, exchanges) -> None:
    _mkdir(dirpath)
    for ex in exchanges:
        for kind, text in (("prompt", ex.prompt), ("response", ex.response)):
            if text is not None:
                _write_bytes(f"{dirpath}/{prefix}-{ex.iteration:02d}.{kind}.txt", text.encode())


def _unit(checkpoint: str, make, read) -> dict:
    """The unit's checkpoint record: the one on disk, which ``read`` must
    accept, or the one ``make(unit_dir)`` returns after writing the unit's
    files, saved last. A record that ``read`` refuses is a CheckpointError
    naming the checkpoint."""
    if not os.path.exists(checkpoint):
        unit_dir = os.path.dirname(checkpoint)
        _mkdir(unit_dir)
        record = make(unit_dir)
        _write_json(checkpoint, record)
        return record
    record = _read_json(Path(checkpoint), CheckpointError)
    if not isinstance(record, dict):
        raise CheckpointError(f"{checkpoint} is malformed: not a JSON object")
    with _required_keys(checkpoint, CheckpointError):
        return read(record)


def evaluate_problem(problem: Problem, config: RunConfig, provider,
                     out_dir: Path) -> Optional[dict]:
    """Evaluate one problem; artifacts land under ``out_dir``. The problem's
    matrix.json document, which its units fill as each is read or made;
    None for a problem with no mutant corpus."""
    out = os.fspath(Path(out_dir))
    mutants = problem.mutants()
    if not mutants:
        return None
    document = {"problem": problem.id, "kind": problem.kind,
                "mutants": [bc_id for bc_id, _, _ in mutants],
                "cells": {}, "skipped": {}, "debug": {}, "gen": {}}
    gen = document["gen"]

    signature = problem.signature
    outputs = [p.name for p in signature.outputs]
    sources = {bc_id: source for bc_id, source, _ in mutants}
    suites: dict[str, tuple[list[UnitTest], dict[str, Trace]]] = {}  # tests, oracle traces

    # targets and suites are made the first time a unit without a checkpoint needs them
    @cache
    def target(tgt_id: str):
        """The target's design, or the reason it cannot be evaluated."""
        try:
            design = elaborate_source(sources[tgt_id])
            if problem.keeps_interface(design):
                return design
        except SvLoopError as exc:
            return f"target does not elaborate: {exc}"
        return "target does not keep the problem's interface"

    def suite(src_id: str) -> tuple[list[UnitTest], dict[str, Trace]]:
        if src_id not in suites:
            tests_dir = f"{out}/sources/{src_id.lower()}/tests"
            tests = [parse_stimulus(_read_text(Path(f"{tests_dir}/{tid}.stim"), CheckpointError),
                                    signature, tid)
                     for tid in gen[src_id]["tests"]]
            suites[src_id] = tests, {t.id: run(problem.design, t, signature) for t in tests}
        return suites[src_id]

    # each directory is made once, parent first; a crashed attempt may have made it.
    # A unit's make runs, if at all, inside the iteration that defines it.
    _mkdir(out, parents=True)
    _mkdir(f"{out}/sources")
    for src_id, src_source, _ in mutants:
        prefix = f"{src_id.lower()}-t"

        def generated(src_dir: str) -> dict:
            # generate_tests shows the source mutant only under NLSC
            state = generate_tests(problem, src_source, config, provider, test_prefix=prefix)
            tests, traces = suites[src_id] = state.tests, state.traces
            _mkdir(f"{src_dir}/tests")
            for test in tests:
                _write_bytes(f"{src_dir}/tests/{test.id}.stim", test.to_text().encode())
            if tests:
                # the first source with tests makes oracle/
                if not any(record["tests"] for record in gen.values()):
                    _mkdir(f"{out}/oracle")
                vcd_dir = f"{out}/oracle/{src_id.lower()}"
                _mkdir(vcd_dir)
                for tid, trace in traces.items():
                    _write_bytes(f"{vcd_dir}/{tid}.vcd", export_vcd(trace, signature))
            _write_exchanges(f"{src_dir}/prompts", "gen", state.exchanges)
            return gen_record(prefix, state.accepted_coverage, state.rejections)
        gen[src_id] = _unit(f"{out}/sources/{src_id.lower()}/genstate.json", generated,
                            lambda record: read_gen_record(record, prefix))

    _mkdir(f"{out}/cells")
    for src_id, _, _ in mutants:
        _mkdir(f"{out}/cells/{src_id.lower()}")
        for tgt_id, _, _ in mutants:
            def evaluated(cell_dir: str) -> dict:
                design = target(tgt_id)
                if isinstance(design, str):
                    outcome = design
                elif not gen[src_id]["tests"]:
                    outcome = "no tests generated from this source"
                else:
                    tests, traces = suite(src_id)  # unreadable tests fail the whole problem
                    try:
                        outcome = _evaluate_cell(tests, traces, design, signature, outputs,
                                                 cell_dir)
                    except SvLoopError as exc:
                        outcome = f"{type(exc).__name__}: {exc}"
                return cell_record(src_id, tgt_id, outcome)
            cell = _unit(f"{out}/cells/{src_id.lower()}/{tgt_id.lower()}/result.json",
                         evaluated,
                         lambda record: read_cell_record(record, src_id, tgt_id,
                                                         gen[src_id]["tests"]))
            key = f"{src_id}->{tgt_id}"
            if "skipped" in cell:
                document["skipped"][key] = cell["skipped"]
            else:
                document["cells"][key] = {name: cell[name] for name in METRICS}

    _mkdir(f"{out}/debug")
    for tgt_id, _, _ in mutants:
        def debugged(debug_dir: str) -> dict:
            design = target(tgt_id)
            if isinstance(design, str):
                return debug_record(design)
            if not gen[tgt_id]["tests"]:
                return debug_record("no tests generated for this target")
            tests, traces = suite(tgt_id)
            state = debug(problem, design, tests, traces, config, provider)
            _write_bytes(f"{debug_dir}/final.sv", state.design.text.encode())
            _write_exchanges(f"{debug_dir}/prompts", "debug", state.exchanges)
            return debug_record(state.initial_pass, state.history)
        document["debug"][tgt_id] = _unit(f"{out}/debug/{tgt_id.lower()}/state.json",
                                          debugged, read_debug_record)

    _write_matrix_files(document, out)
    return document


def _evaluate_cell(tests, oracle_traces, target, signature, outputs, cell_dir) -> list:
    """Run a non-empty suite on the target, writing its VCDs under
    ``cell_dir``; each test's id and verdict."""
    traces_dir = f"{cell_dir}/traces"
    _mkdir(traces_dir)
    verdicts, traces = run_suite(target, tests, oracle_traces, outputs, signature)
    for test, trace in zip(tests, traces):
        _write_bytes(f"{traces_dir}/{test.id}.vcd", export_vcd(trace, signature))
    return [(test.id, v) for test, v in zip(tests, verdicts)]


def _write_matrix_files(document: dict, out: str) -> None:
    """matrix.csv, a row per cell with a skipped cell's ratios empty, then
    matrix.json, the document itself."""
    rows = ["source,target,ar,dr,da"]
    for src in document["mutants"]:
        for tgt in document["mutants"]:
            cell = document["cells"].get(f"{src}->{tgt}")
            if cell is None:
                rows.append(f"{src},{tgt},,,")
            else:
                (dr_n, dr_d), (da_n, da_d) = cell["dr"], cell["da"]
                rows.append(f"{src},{tgt},{cell['ar']},{dr_n / dr_d!r},{da_n / da_d!r}")
    _write_bytes(f"{out}/matrix.csv", ("\n".join(rows) + "\n").encode())
    _write_json(f"{out}/matrix.json", document)


def _problem_entry(problem: Problem, config: RunConfig, provider, out_dir: Path) -> dict:
    """Evaluate one problem; its summary entry, an error entry if it fails."""
    try:
        document = evaluate_problem(problem, config, provider, out_dir)
    except (SvLoopError, OSError) as exc:
        return _error_entry(f"{type(exc).__name__}: {exc}")
    if document is None:
        return _error_entry("no mutant corpus on disk (run `svloop mutate` first)")
    return {
        "mutants": len(document["mutants"]),
        "cells": len(document["cells"]),
        "skipped_cells": len(document["skipped"]),
        "debug_solved": sum(d.get("solved") is True for d in document["debug"].values()),
    }


def _error_entry(error: str) -> dict:
    return {"mutants": 0, "cells": 0, "skipped_cells": 0, "debug_solved": 0, "error": error}


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
                        summary["problems"][pid] = _error_entry(f"{type(exc).__name__}: {exc}")
        else:
            for problem in ordered:
                summary["problems"][problem.id] = _problem_entry(
                    problem, config, provider, out_root / "problems" / problem.id
                )
        _write_json(out_root / "summary.json", summary)
    return summary
