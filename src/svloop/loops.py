"""The two closed loops.

Test generation: combinational designs get a single round; sequential
designs iterate with coverage feedback and accept a new test only when
the scalar coverage strictly increases. Debugging: a patch is accepted
only when it strictly increases the fraction of passing unit tests. Both
loops read their settings from the run's ``RunConfig``. Malformed
provider output is a logged, budget-consuming rejection, never a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import GatewayError, SvLoopError
from .frontend.ast import DesignSource
from .frontend.elaborate import ElaboratedDesign
from .gateway.config import NLSC
from .gateway.extract import parse_patch, parse_unit_test
from .gateway.prompts import build_debug_prompt, build_testgen_prompt
from .manifest import Problem, RunConfig
from .sim.coverage import CoverageCollector, collect_coverage
from .sim.engine import Trace, run
from .sim.stimulus import UnitTest
from .verdict import compare, pass_fraction, summarize


@dataclass(frozen=True)
class Rejection:
    iteration: int
    reason: str
    detail: str


@dataclass(frozen=True)
class Exchange:
    iteration: int
    prompt: str
    response: Optional[str]


@dataclass
class TestGenState:
    tests: list[UnitTest] = field(default_factory=list)
    traces: dict[str, Trace] = field(default_factory=dict)  # oracle trace per accepted test id
    best_coverage: Fraction = Fraction(0)
    accepted_coverage: list[Fraction] = field(default_factory=list)
    iterations: int = 0
    provider_calls: int = 0
    rejections: list[Rejection] = field(default_factory=list)
    exchanges: list[Exchange] = field(default_factory=list)


@dataclass(frozen=True)
class PatchAttempt:
    iteration: int
    accepted: bool
    pass_fraction: Optional[Fraction]
    reason: str


@dataclass
class DebugState:
    design: DesignSource
    best_pass: Fraction
    initial_pass: Fraction
    iterations: int = 0
    provider_calls: int = 0
    history: list[PatchAttempt] = field(default_factory=list)
    rejections: list[Rejection] = field(default_factory=list)
    exchanges: list[Exchange] = field(default_factory=list)

    @property
    def solved(self) -> bool:
        return self.best_pass == 1


def _complete(state, provider, prompt: str, cfg: RunConfig, iteration: int) -> Optional[str]:
    """One provider call, counted and recorded in ``state.exchanges``; a
    failed call is a ``provider`` rejection and returns None."""
    try:
        response = provider.complete(prompt, cfg)
    except GatewayError as exc:
        state.exchanges.append(Exchange(iteration, prompt, None))
        state.rejections.append(Rejection(iteration, "provider", str(exc)))
        return None
    state.provider_calls += 1
    state.exchanges.append(Exchange(iteration, prompt, response))
    return response


def generate_tests(
    problem: Problem,
    source_mutant: Optional[DesignSource],
    cfg: RunConfig,
    provider,
    test_prefix: str = "t",
) -> TestGenState:
    """Run the coverage-gated generation loop against the oracle, for at
    most ``cfg.iteration_cap`` iterations.

    Tests are valid when they are well-formed for the signature and
    simulatable on the oracle; passing the (unknown) candidate design is
    not required. Each candidate is simulated once, folded into a copy of
    the accepted suite's coverage; the copy replaces it only on acceptance,
    and ``state.traces`` keeps that run's oracle trace.
    """
    oracle = problem.design
    signature = problem.signature
    buggy = source_mutant if cfg.strategy == NLSC else None

    state = TestGenState()
    covered = CoverageCollector(oracle, signature)
    one_shot = not oracle.is_sequential
    rounds = 1 if one_shot else cfg.iteration_cap
    feedback = None

    for iteration in range(1, rounds + 1):
        state.iterations = iteration
        try:
            prompt = build_testgen_prompt(cfg, problem, buggy, feedback)
        except GatewayError as exc:
            state.rejections.append(Rejection(iteration, "prompt", str(exc)))
            continue
        response = _complete(state, provider, prompt, cfg, iteration)
        if response is None:
            continue
        try:
            test = parse_unit_test(
                response, signature, f"{test_prefix}{iteration:02d}"
            )
        except GatewayError as exc:
            state.rejections.append(Rejection(iteration, "parse", str(exc)))
            continue
        trial = covered.copy()
        try:
            # the instrumented run yields the plain trace the matrix stores
            trace = run(oracle, test, signature, trial)
        except SvLoopError as exc:
            state.rejections.append(Rejection(iteration, "simulate", str(exc)))
            continue
        report = collect_coverage(oracle, (), signature, trial)
        if one_shot or report.scalar > state.best_coverage:
            covered = trial
            state.tests.append(test)
            state.traces[test.id] = trace
            state.best_coverage = report.scalar
            state.accepted_coverage.append(report.scalar)
        else:
            state.rejections.append(
                Rejection(
                    iteration,
                    "coverage",
                    f"scalar {float(report.scalar):.4f} did not improve on "
                    f"{float(state.best_coverage):.4f}",
                )
            )
        feedback = (report, test)
        if one_shot or state.best_coverage == 1:
            break
    return state


def run_suite(design: ElaboratedDesign, tests, oracle_traces, outputs, signature):
    """Run every test on ``design``; its verdicts against ``oracle_traces``
    (keyed by test id) and its traces, both in test order."""
    traces = [run(design, test, signature) for test in tests]
    verdicts = [compare(trace, oracle_traces[test.id], outputs)
                for test, trace in zip(tests, traces)]
    return verdicts, traces


def debug(
    problem: Problem,
    buggy: ElaboratedDesign,
    tests,
    oracle_traces: dict[str, Trace],
    cfg: RunConfig,
    provider,
) -> DebugState:
    """Run the pass-fraction-gated repair loop.

    Expected values come from ``oracle_traces``, the oracle's trace of
    every test keyed by test id; the loop simulates only the target and
    its patches. It makes at most ``cfg.iteration_cap`` provider calls,
    shows at most ``cfg.mismatch_limit`` mismatch rows per prompt, and
    never returns a design with a lower pass fraction than its input.
    """
    tests = list(tests)
    if not tests:
        raise ValueError("debug requires at least one unit test")
    signature = problem.signature
    outputs = [p.name for p in signature.outputs]

    verdicts, traces = run_suite(buggy, tests, oracle_traces, outputs, signature)
    best = pass_fraction(verdicts)
    state = DebugState(design=buggy.source, best_pass=best, initial_pass=best)

    for iteration in range(1, cfg.iteration_cap + 1):
        if state.best_pass == 1:
            break
        state.iterations = iteration
        failing_at = next(i for i, v in enumerate(verdicts) if not v.passed)
        summary = summarize(traces[failing_at], oracle_traces[tests[failing_at].id],
                            verdicts[failing_at], outputs, cfg.mismatch_limit)
        try:
            prompt = build_debug_prompt(problem, state.design, tests[failing_at], summary)
        except GatewayError as exc:
            state.rejections.append(Rejection(iteration, "prompt", str(exc)))
            state.history.append(PatchAttempt(iteration, False, None, f"prompt: {exc}"))
            continue
        response = _complete(state, provider, prompt, cfg, iteration)
        if response is None:
            reason = f"provider: {state.rejections[-1].detail}"
            state.history.append(PatchAttempt(iteration, False, None, reason))
            continue
        try:
            patched = parse_patch(response, problem.interface)
            new_verdicts, new_traces = run_suite(
                patched, tests, oracle_traces, outputs, signature
            )
        except SvLoopError as exc:
            state.rejections.append(Rejection(iteration, "patch", str(exc)))
            state.history.append(PatchAttempt(iteration, False, None, f"patch: {exc}"))
            continue
        fraction = pass_fraction(new_verdicts)
        if fraction > state.best_pass:
            verdicts, traces = new_verdicts, new_traces
            state.best_pass = fraction
            state.design = patched.source
            state.history.append(
                PatchAttempt(iteration, True, fraction, "pass fraction increased")
            )
        else:
            state.history.append(
                PatchAttempt(
                    iteration,
                    False,
                    fraction,
                    f"pass fraction {float(fraction):.3f} did not improve on "
                    f"{float(state.best_pass):.3f}",
                )
            )
            state.rejections.append(
                Rejection(iteration, "pass-fraction", "patch did not improve pass fraction")
            )
    return state
