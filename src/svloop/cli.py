"""Command-line driver.

Exit codes: 0 success, 1 usage error, 2 data error (bad source, bad
dataset, missing artifacts), 3 provider failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import (
    FrontendError,
    GatewayError,
    MalformedStimulus,
    NoStimulusFound,
    ProviderRejection,
    ProviderTimeout,
    ScriptExhausted,
    SvLoopError,
    _mkdir,
    _read_text,
    _write_bytes,
)

# Each command imports the modules it runs inside its own function, and
# main builds the sub-parser of the command it runs alone, so that a
# command pays start-up time only for its own layers and arguments.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROVIDER = 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_provider_flags(parser):
    parser.add_argument("--strategy", choices=["nls", "nlsc"], default="nlsc")
    parser.add_argument("--shots", type=int, choices=[0, 5], default=0)
    parser.add_argument("--provider", choices=["mock", "live"], default="mock")
    parser.add_argument("--mock-script", help="directory with scripted mock responses")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--iters", type=_positive_int, default=5,
                        help="iteration cap for both generation and debugging")
    parser.add_argument("--mismatch-k", type=_positive_int, default=20,
                        help="mismatch rows shown to the debugger")


def _read_stimulus(path: Path, signature):
    """The unit test in a stimulus file, named by its stem; a malformed
    file is an error that names the file and, where known, the line."""
    from .sim.stimulus import parse_stimulus

    text = _read_text(path, MalformedStimulus)
    try:
        return parse_stimulus(text, signature, path.stem)
    except (MalformedStimulus, NoStimulusFound) as exc:
        line = getattr(exc, "line", None)
        raise type(exc)(f"{path}{'' if line is None else f':{line}'}: {exc}") from None


def _problem_by_name(problems_dir: str, name: str):
    from .manifest import load_problem

    return load_problem(Path(problems_dir) / "problems" / name)


def make_parser(command=None) -> argparse.ArgumentParser:
    """The parser for every command, or for ``command`` alone."""
    parser = _ArgumentParser(prog="svloop", description=__doc__)
    parser.add_argument("--version", action="version", version=f"svloop {__version__}")
    # with one command registered, the usage line still lists them all, as
    # argparse would; its errors name the commands only when none was given
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (_, help_text, add_arguments) in _COMMANDS.items():
        if command is None or name == command:
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


def _run_config(args, jobs: int = 1):
    from .manifest import RunConfig

    return RunConfig(strategy=args.strategy, shots=args.shots, provider=args.provider,
                     script_dir=args.mock_script, seed=args.seed,
                     iteration_cap=args.iters, mismatch_limit=args.mismatch_k, jobs=jobs)


def _parse_arguments(p):
    p.add_argument("file")
    p.add_argument("--json", action="store_true")


def cmd_parse(args) -> int:
    from .frontend.ast import DesignSource
    from .frontend.elaborate import elaborate_source
    from .frontend.signature import extract_signature

    path = Path(args.file)
    text = _read_text(path)
    try:
        design = elaborate_source(DesignSource(text))
        signature = extract_signature(design)
    except (FrontendError, ValueError) as exc:
        diag = exc.diagnostic(str(path)) if isinstance(exc, FrontendError) else str(exc)
        print(diag, file=sys.stderr)
        return EXIT_DATA
    if args.json:
        print(json.dumps({
            "module": signature.module_name,
            "inputs": [{"name": p.name, "width": p.width} for p in signature.inputs],
            "outputs": [{"name": p.name, "width": p.width} for p in signature.outputs],
            "clock": signature.clock,
            "reset": None if signature.reset is None else {
                "name": signature.reset.name,
                "active_high": signature.reset.active_high,
                "synchronous": signature.reset.synchronous,
            },
            "sequential": design.is_sequential,
            "fsm_registers": design.fsm_registers,
        }, indent=2, sort_keys=True))
    else:
        print(signature.to_text())
        print(f"processes: {len(design.comb_processes)} combinational, "
              f"{len(design.seq_processes)} clocked; "
              f"{len(design.cont_assigns)} continuous assigns")
    return EXIT_OK


def _simulate_arguments(p):
    p.add_argument("file")
    p.add_argument("--stim", required=True, help="stimulus file")
    p.add_argument("--vcd", help="write the trace as VCD to this path")
    p.add_argument("--coverage", action="store_true", help="print a coverage report")


def cmd_simulate(args) -> int:
    from .frontend.ast import DesignSource
    from .frontend.elaborate import elaborate_source
    from .frontend.signature import extract_signature
    from .sim.coverage import CoverageCollector, collect_coverage
    from .sim.engine import run as run_sim
    from .sim.vcd import export_vcd

    try:
        design = elaborate_source(DesignSource(_read_text(Path(args.file))))
        signature = extract_signature(design)
        test = _read_stimulus(Path(args.stim), signature)
    except (OSError, FrontendError, GatewayError, ValueError) as exc:
        message = exc.diagnostic(args.file) if isinstance(exc, FrontendError) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_DATA
    # the instrumented run yields the plain trace, so coverage costs no second run
    collector = CoverageCollector(design, signature) if args.coverage else None
    trace = run_sim(design, test, signature, collector)
    # the table: a header, then the cycle label and each port's value per row
    ports = signature.inputs + signature.outputs
    row = "%5d" + "  %d" * len(ports)
    rows = zip(range(trace.cycles), *(trace.values[p.name] for p in ports))
    sys.stdout.write("  ".join(["cycle"] + [p.name for p in ports]) + "\n"
                     + "\n".join([row % r for r in rows]) + "\n")
    if args.vcd:
        _write_bytes(args.vcd, export_vcd(trace, signature))
        print(f"wrote {args.vcd}")
    if args.coverage:
        report = collect_coverage(design, (), signature, collector)
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _mutate_arguments(p):
    p.add_argument("problem", help="problem name, or 'all'")
    p.add_argument("--problems", required=True, help="corpus root directory")
    p.add_argument("--seed", type=int, default=1)


def cmd_mutate(args) -> int:
    from .manifest import load_corpus, write_mutation_corpus
    from .mutate import make_corpus

    root = Path(args.problems)
    if args.problem == "all":
        problems = load_corpus(root)
    else:
        problems = [_problem_by_name(args.problems, args.problem)]
    for problem in problems:
        records, skipped = make_corpus(problem, args.seed)
        write_mutation_corpus(problem, records, skipped, args.seed)
        print(f"{problem.id}: {len(records)} mutants "
              f"({', '.join(r.bc_id for r in records) or 'none'})")
        for s in skipped:
            print(f"  skipped {s.bc_id} ({s.kind}): {s.reason}")
    return EXIT_OK


def _gen_tests_arguments(p):
    p.add_argument("problem")
    p.add_argument("--problems", required=True)
    p.add_argument("--source", required=True, help="source mutant id, e.g. BC03")
    p.add_argument("--out", required=True,
                   help="directory for the accepted tests, one <test>.stim each, "
                   "and a live provider's provider_log/")
    _add_provider_flags(p)


def cmd_gen_tests(args) -> int:
    from .gateway.providers import build_provider
    from .loops import generate_tests

    problem = _problem_by_name(args.problems, args.problem)
    mutants = {bc: src for bc, src, _ in problem.mutants()}
    if args.source not in mutants:
        print(f"error: no mutant {args.source} for {problem.id} "
              f"(have: {', '.join(sorted(mutants)) or 'none'})", file=sys.stderr)
        return EXIT_DATA
    config = _run_config(args)
    provider = build_provider(config, Path(args.out) / "provider_log")
    state = generate_tests(problem, mutants[args.source], config, provider)
    out = Path(args.out)
    _mkdir(out, parents=True)
    for test in state.tests:
        _write_bytes(out / f"{test.id}.stim", test.to_text().encode())
    print(f"{problem.id}/{args.source}: accepted {len(state.tests)} tests in "
          f"{state.iterations} iterations (bCov {float(state.best_coverage):.4f})")
    for r in state.rejections:
        print(f"  rejected iteration {r.iteration} [{r.reason}]: {r.detail}")
    return EXIT_OK


def _debug_arguments(p):
    p.add_argument("problem")
    p.add_argument("--problems", required=True)
    p.add_argument("--target", required=True, help="target mutant id, e.g. BC03")
    p.add_argument("--tests", required=True, help="directory of .stim unit tests")
    p.add_argument("--out", required=True)
    _add_provider_flags(p)


def cmd_debug(args) -> int:
    from .frontend.elaborate import elaborate_source
    from .gateway.providers import build_provider
    from .loops import debug as debug_loop
    from .sim.engine import run as run_sim

    problem = _problem_by_name(args.problems, args.problem)
    mutants = {bc: src for bc, src, _ in problem.mutants()}
    if args.target not in mutants:
        print(f"error: no mutant {args.target} for {problem.id}", file=sys.stderr)
        return EXIT_DATA
    tests_dir = Path(args.tests)
    tests = [_read_stimulus(stim, problem.signature) for stim in sorted(tests_dir.glob("*.stim"))]
    if not tests:
        print(f"error: no .stim files in {tests_dir}", file=sys.stderr)
        return EXIT_DATA
    target = elaborate_source(mutants[args.target])
    if not problem.keeps_interface(target):
        print(f"error: mutant {args.target} does not keep the interface of {problem.id}",
              file=sys.stderr)
        return EXIT_DATA
    config = _run_config(args)
    provider = build_provider(config, Path(args.out) / "provider_log")
    oracle_traces = {t.id: run_sim(problem.design, t, problem.signature) for t in tests}
    state = debug_loop(problem, target, tests, oracle_traces, config, provider)
    out = Path(args.out)
    _mkdir(out, parents=True)
    _write_bytes(out / "final.sv", state.design.text.encode())
    print(f"{problem.id}/{args.target}: pass fraction "
          f"{float(state.initial_pass):.3f} -> {float(state.best_pass):.3f} "
          f"in {state.iterations} iterations "
          f"({'repaired' if state.solved else 'not fully repaired'})")
    return EXIT_OK


def _evaluate_arguments(p):
    p.add_argument("--problems", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_provider_flags(p)


def cmd_evaluate(args) -> int:
    from .manifest import load_corpus
    from .matrix import evaluate_matrix

    problems = load_corpus(Path(args.problems))
    config = _run_config(args, jobs=args.jobs)
    summary = evaluate_matrix(problems, config, args.out)
    failures = 0
    for pid, entry in sorted(summary["problems"].items()):
        status = f"{entry['cells']} cells, {entry['skipped_cells']} skipped, " \
                 f"{entry['debug_solved']} debugged"
        if "error" in entry:
            failures += 1
            status += f" [ERROR: {entry['error']}]"
        print(f"{pid}: {status}")
    print(f"run directory: {args.out}")
    return EXIT_DATA if failures else EXIT_OK


def _report_arguments(p):
    p.add_argument("run_dir")
    p.add_argument("--out", help="report directory (default: <run_dir>/report)")


def cmd_report(args) -> int:
    from .report import write_report

    out = write_report(args.run_dir, args.out)
    print(f"report written to {out}")
    return EXIT_OK


def _init_corpus_arguments(p):
    p.add_argument("dest")


def cmd_init_corpus(args) -> int:
    from .data import copy_corpus

    dest = copy_corpus(args.dest)
    print(f"desk corpus copied to {dest}")
    return EXIT_OK


# name -> (handler, help, the function that adds its arguments)
_COMMANDS = {
    "parse": (cmd_parse, "parse and elaborate a design, print its signature",
              _parse_arguments),
    "simulate": (cmd_simulate, "run a stimulus file against a design", _simulate_arguments),
    "mutate": (cmd_mutate, "build the buggy corpus for a problem", _mutate_arguments),
    "gen-tests": (cmd_gen_tests, "run the coverage-gated generation loop",
                  _gen_tests_arguments),
    "debug": (cmd_debug, "run the pass-fraction-gated repair loop", _debug_arguments),
    "evaluate": (cmd_evaluate, "full source x target matrix over a corpus",
                 _evaluate_arguments),
    "report": (cmd_report, "emit binned matrices and debug distributions",
               _report_arguments),
    "init-corpus": (cmd_init_corpus, "copy the built-in desk corpus to a directory",
                    _init_corpus_arguments),
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command parses with its own sub-parser only; anything else sees them all
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = make_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (ProviderRejection, ProviderTimeout, ScriptExhausted) as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (SvLoopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
