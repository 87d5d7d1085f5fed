"""Trace comparison, pass/fail classification, and mismatch summaries.

Only signature outputs participate in verdicts; internal signals are
visible in traces but never fail a run, so internally-corrupted-but-
masked behavior counts as a pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import CalledOnPass, TraceShapeMismatch

if TYPE_CHECKING:
    from .sim.engine import Trace


@dataclass(frozen=True)
class Verdict:
    mismatch_count: int           # cycles on which any output differs
    cycles: int

    @property
    def passed(self) -> bool:
        return self.mismatch_count == 0

    @property
    def outcome(self) -> str:
        return "pass" if self.passed else "fail"


@dataclass(frozen=True)
class MismatchEntry:
    output: str
    cycle: int
    expected: int
    actual: int


@dataclass(frozen=True)
class MismatchSummary:
    entries: tuple[MismatchEntry, ...]
    total: int

    def to_table(self) -> str:
        lines = ["output | cycle | expected | actual"]
        for e in self.entries:
            lines.append(f"{e.output} | {e.cycle} | {e.expected} | {e.actual}")
        if self.total > len(self.entries):
            lines.append(
                f"(showing first {len(self.entries)} of {self.total} mismatches)"
            )
        else:
            lines.append(f"({self.total} mismatches in total)")
        return "\n".join(lines)


def _check_shapes(actual: Trace, expected: Trace, outputs):
    if actual.cycles != expected.cycles:
        raise TraceShapeMismatch(
            f"cycle counts differ: {actual.cycles} vs {expected.cycles}"
        )
    for name in outputs:
        if name not in actual.values or name not in expected.values:
            raise TraceShapeMismatch(f"output {name!r} missing from a trace")


def compare(actual: Trace, expected: Trace, outputs) -> Verdict:
    """Classify a run: fail iff any output differs at any cycle.

    Detection is symmetric in its arguments.
    """
    outputs = list(outputs)
    _check_shapes(actual, expected, outputs)
    rows = zip(zip(*(actual.values[o] for o in outputs)),
               zip(*(expected.values[o] for o in outputs)))
    return Verdict(sum(a != e for a, e in rows), actual.cycles)


def summarize(
    actual: Trace,
    expected: Trace,
    verdict: Verdict,
    outputs,
    limit: int,
) -> MismatchSummary:
    """Enumerate (output, cycle, expected, actual) evidence for a failure,
    sorted by (cycle, output) and truncated to the earliest ``limit`` rows."""
    if verdict.passed:
        raise CalledOnPass("cannot summarize mismatches of a passing run")
    outputs = sorted(outputs)
    _check_shapes(actual, expected, outputs)
    entries = []
    total = 0
    for n in range(actual.cycles):
        for name in outputs:
            if actual.values[name][n] != expected.values[name][n]:
                total += 1
                if len(entries) < limit:
                    entries.append(
                        MismatchEntry(name, n, expected.values[name][n], actual.values[name][n])
                    )
    return MismatchSummary(tuple(entries), total)


def pass_fraction(verdicts) -> Fraction:
    """Exact fraction of passing verdicts."""
    verdicts = list(verdicts)
    if not verdicts:
        raise ValueError("pass_fraction of an empty verdict list")
    return Fraction(sum(1 for v in verdicts if v.passed), len(verdicts))
