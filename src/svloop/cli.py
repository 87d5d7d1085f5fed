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
    ProviderRejection,
    ProviderTimeout,
    ScriptExhausted,
    SvLoopError,
)

# Each command imports the modules it runs inside its own function, so
# that it pays start-up time only for its own layers.

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
    parser.add_argument("--mismatch-k", type=int, default=20,
                        help="mismatch rows shown to the debugger")


def _binding(args):
    from .gateway.config import ProviderBinding

    if args.provider == "mock":
        if not args.mock_script:
            raise ProviderRejection("--provider mock requires --mock-script DIR")
        return ProviderBinding.mock(args.mock_script)
    return ProviderBinding.live_from_env()


def _problem_by_name(problems_dir: str, name: str):
    from .manifest import load_problem

    return load_problem(Path(problems_dir) / "problems" / name)


def make_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="svloop", description=__doc__)
    parser.add_argument("--version", action="version", version=f"svloop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and elaborate a design, print its signature")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("simulate", help="run a stimulus file against a design")
    p.add_argument("file")
    p.add_argument("--stim", required=True, help="stimulus file")
    p.add_argument("--vcd", help="write the trace as VCD to this path")
    p.add_argument("--coverage", action="store_true", help="print a coverage report")

    p = sub.add_parser("mutate", help="build the buggy corpus for a problem")
    p.add_argument("problem", help="problem name, or 'all'")
    p.add_argument("--problems", required=True, help="corpus root directory")
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("gen-tests", help="run the coverage-gated generation loop")
    p.add_argument("problem")
    p.add_argument("--problems", required=True)
    p.add_argument("--source", required=True, help="source mutant id, e.g. BC03")
    p.add_argument("--out", required=True, help="output directory for tests and state")
    _add_provider_flags(p)

    p = sub.add_parser("debug", help="run the pass-fraction-gated repair loop")
    p.add_argument("problem")
    p.add_argument("--problems", required=True)
    p.add_argument("--target", required=True, help="target mutant id, e.g. BC03")
    p.add_argument("--tests", required=True, help="directory of .stim unit tests")
    p.add_argument("--out", required=True)
    _add_provider_flags(p)

    p = sub.add_parser("evaluate", help="full source x target matrix over a corpus")
    p.add_argument("--problems", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_provider_flags(p)

    p = sub.add_parser("report", help="emit binned matrices and debug distributions")
    p.add_argument("run_dir")
    p.add_argument("--out", help="report directory (default: <run_dir>/report)")

    p = sub.add_parser("init-corpus", help="copy the built-in desk corpus to a directory")
    p.add_argument("dest")
    return parser


def _run_config(args, jobs: int = 1):
    from .manifest import RunConfig

    return RunConfig(strategy=args.strategy, shots=args.shots, provider=args.provider,
                     script_dir=args.mock_script, seed=args.seed,
                     iteration_cap=args.iters, mismatch_limit=args.mismatch_k, jobs=jobs)


def cmd_parse(args) -> int:
    from .frontend.ast import DesignSource
    from .frontend.elaborate import elaborate_source
    from .frontend.signature import extract_signature

    path = Path(args.file)
    try:
        text = path.read_text("utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
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


def cmd_simulate(args) -> int:
    from .frontend.ast import DesignSource
    from .frontend.elaborate import elaborate_source
    from .frontend.signature import extract_signature
    from .sim.coverage import CoverageCollector, collect_coverage
    from .sim.engine import run as run_sim
    from .sim.stimulus import parse_stimulus
    from .sim.vcd import export_vcd

    try:
        design = elaborate_source(DesignSource(Path(args.file).read_text("utf-8")))
        signature = extract_signature(design)
        test = parse_stimulus(Path(args.stim).read_text("utf-8"), signature,
                              Path(args.stim).stem)
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
        Path(args.vcd).write_bytes(export_vcd(trace, signature))
        print(f"wrote {args.vcd}")
    if args.coverage:
        report = collect_coverage(design, (), signature, collector)
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_mutate(args) -> int:
    from .manifest import load_corpus, write_mutation_corpus
    from .mutate import make_corpus

    root = Path(args.problems)
    if args.problem == "all":
        problems = load_corpus(root)
    else:
        problems = [_problem_by_name(args.problems, args.problem)]
    for problem in problems:
        records, skipped = make_corpus(problem.design, args.seed)
        write_mutation_corpus(problem, records, skipped, args.seed)
        print(f"{problem.id}: {len(records)} mutants "
              f"({', '.join(r.bc_id for r in records) or 'none'})")
        for s in skipped:
            print(f"  skipped {s.bc_id} ({s.kind}): {s.reason}")
    return EXIT_OK


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
    provider = build_provider(_binding(args), Path(args.out) / "provider_log")
    state = generate_tests(problem.spec(), mutants[args.source], config.gen_config(),
                           provider, iteration_cap=args.iters)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for test in state.tests:
        (out / f"{test.id}.stim").write_text(test.to_text(), "utf-8")
    print(f"{problem.id}/{args.source}: accepted {len(state.tests)} tests in "
          f"{state.iterations} iterations (bCov {float(state.best_coverage):.4f})")
    for r in state.rejections:
        print(f"  rejected iteration {r.iteration} [{r.reason}]: {r.detail}")
    return EXIT_OK


def cmd_debug(args) -> int:
    from .frontend.elaborate import elaborate_source
    from .gateway.providers import build_provider
    from .loops import debug as debug_loop
    from .sim.engine import run as run_sim
    from .sim.stimulus import parse_stimulus

    problem = _problem_by_name(args.problems, args.problem)
    mutants = {bc: src for bc, src, _ in problem.mutants()}
    if args.target not in mutants:
        print(f"error: no mutant {args.target} for {problem.id}", file=sys.stderr)
        return EXIT_DATA
    tests_dir = Path(args.tests)
    tests = []
    for stim in sorted(tests_dir.glob("*.stim")):
        tests.append(parse_stimulus(stim.read_text("utf-8"), problem.signature, stim.stem))
    if not tests:
        print(f"error: no .stim files in {tests_dir}", file=sys.stderr)
        return EXIT_DATA
    config = _run_config(args)
    provider = build_provider(_binding(args), Path(args.out) / "provider_log")
    oracle_traces = {t.id: run_sim(problem.design, t, problem.signature) for t in tests}
    state = debug_loop(problem.spec(), elaborate_source(mutants[args.target]), tests,
                       oracle_traces, config.gen_config(), provider,
                       iteration_cap=args.iters, mismatch_limit=args.mismatch_k)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "final.sv").write_text(state.design.text, "utf-8")
    print(f"{problem.id}/{args.target}: pass fraction "
          f"{float(state.initial_pass):.3f} -> {float(state.best_pass):.3f} "
          f"in {state.iterations} iterations "
          f"({'repaired' if state.solved else 'not fully repaired'})")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from .manifest import load_corpus
    from .matrix import evaluate_matrix

    problems = load_corpus(Path(args.problems))
    config = _run_config(args, jobs=args.jobs)
    if args.provider == "mock":
        _binding(args)  # validate early
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


def cmd_report(args) -> int:
    from .report import write_report

    out = write_report(args.run_dir, args.out)
    print(f"report written to {out}")
    return EXIT_OK


def cmd_init_corpus(args) -> int:
    from .data import copy_corpus

    dest = copy_corpus(args.dest)
    print(f"desk corpus copied to {dest}")
    return EXIT_OK


_COMMANDS = {
    "parse": cmd_parse,
    "simulate": cmd_simulate,
    "mutate": cmd_mutate,
    "gen-tests": cmd_gen_tests,
    "debug": cmd_debug,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
    "init-corpus": cmd_init_corpus,
}


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ProviderRejection, ProviderTimeout, ScriptExhausted) as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except (SvLoopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
