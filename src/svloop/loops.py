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
from typing import NamedTuple, Optional

from .errors import GatewayError, SvLoopError
from .frontend.ast import DesignSource
from .frontend.elaborate import ElaboratedDesign
from .gateway.config import NLSC
from .gateway.extract import parse_patch, parse_unit_test
from .gateway.prompts import build_debug_prompt, build_testgen_prompt
from .manifest import Problem, RunConfig
from .metrics import unit_test_id
from .sim.coverage import CoverageCollector, collect_coverage
from .sim.engine import Trace, run
from .sim.stimulus import UnitTest
from .verdict import compare, pass_fraction, summarize


class Rejection(NamedTuple):
    """Why an iteration was rejected: its ``reason`` and the ``detail``."""
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
    accepted_coverage: list[Fraction] = field(default_factory=list)
    provider_calls: int = 0
    rejections: dict[int, Rejection] = field(default_factory=dict)  # by iteration
    exchanges: list[Exchange] = field(default_factory=list)


class PatchAttempt(NamedTuple):
    """One repair iteration: whether its patch was accepted, the patch's
    pass fraction, and the rejection of an iteration that had no patch to
    simulate, whose pass fraction is None."""
    accepted: bool
    pass_fraction: Optional[Fraction]
    rejection: Optional[Rejection] = None


@dataclass
class DebugState:
    design: DesignSource
    initial_pass: Fraction
    provider_calls: int = 0
    history: list[PatchAttempt] = field(default_factory=list)  # one per iteration
    exchanges: list[Exchange] = field(default_factory=list)


def _complete(state, provider, prompt: str, cfg: RunConfig, iteration: int) -> str:
    """One provider call, counted and recorded in ``state.exchanges``; a
    failed call is recorded too, and its GatewayError raised."""
    try:
        response = provider.complete(prompt, cfg)
    except GatewayError:
        state.exchanges.append(Exchange(iteration, prompt, None))
        raise
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
    best = Fraction(0)
    one_shot = not oracle.is_sequential
    rounds = 1 if one_shot else cfg.iteration_cap
    feedback = None

    for iteration in range(1, rounds + 1):
        try:
            prompt = build_testgen_prompt(cfg, problem, buggy, feedback)
        except GatewayError as exc:
            state.rejections[iteration] = Rejection("prompt", str(exc))
            continue
        try:
            response = _complete(state, provider, prompt, cfg, iteration)
        except GatewayError as exc:
            state.rejections[iteration] = Rejection("provider", str(exc))
            continue
        try:
            test = parse_unit_test(response, signature, unit_test_id(test_prefix, iteration))
        except GatewayError as exc:
            state.rejections[iteration] = Rejection("parse", str(exc))
            continue
        trial = covered.copy()
        try:
            # the instrumented run yields the plain trace the matrix stores
            trace = run(oracle, test, signature, trial)
        except SvLoopError as exc:
            state.rejections[iteration] = Rejection("simulate", str(exc))
            continue
        report = collect_coverage(oracle, (), signature, trial)
        if one_shot or report.scalar > best:
            covered = trial
            state.tests.append(test)
            state.traces[test.id] = trace
            best = report.scalar
            state.accepted_coverage.append(best)
        else:
            state.rejections[iteration] = Rejection(
                "coverage",
                f"scalar {float(report.scalar):.4f} did not improve on {float(best):.4f}",
            )
        feedback = (report, test)
        if one_shot or best == 1:
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
    state = DebugState(design=buggy.source, initial_pass=best)

    for iteration in range(1, cfg.iteration_cap + 1):
        if best == 1:
            break
        failing_at = next(i for i, v in enumerate(verdicts) if not v.passed)
        summary = summarize(traces[failing_at], oracle_traces[tests[failing_at].id],
                            verdicts[failing_at], outputs, cfg.mismatch_limit)
        try:
            prompt = build_debug_prompt(problem, state.design, tests[failing_at], summary)
        except GatewayError as exc:
            state.history.append(PatchAttempt(False, None, Rejection("prompt", str(exc))))
            continue
        try:
            response = _complete(state, provider, prompt, cfg, iteration)
        except GatewayError as exc:
            state.history.append(PatchAttempt(False, None, Rejection("provider", str(exc))))
            continue
        try:
            patched = parse_patch(response, problem.interface)
            new_verdicts, new_traces = run_suite(
                patched, tests, oracle_traces, outputs, signature
            )
        except SvLoopError as exc:
            state.history.append(PatchAttempt(False, None, Rejection("patch", str(exc))))
            continue
        fraction = pass_fraction(new_verdicts)
        accepted = fraction > best
        state.history.append(PatchAttempt(accepted, fraction))
        if accepted:
            verdicts, traces = new_verdicts, new_traces
            best = fraction
            state.design = patched.source
    return state
