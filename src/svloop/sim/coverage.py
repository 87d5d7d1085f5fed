"""Coverage collection over one or more unit tests.

Categories: line (executed statements), branch (taken if/case arms),
toggle (signal bits observed at both 0 and 1 across samples), and
FSM state (distinct observed values of state registers over their
declared constant sets). The scalar is the arithmetic mean of the
categories that are defined for the design; commercial simulators mix
categories differently, so reports label this reduction explicitly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import and_, or_
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from ..frontend.elaborate import ElaboratedDesign
    from ..frontend.signature import DesignSignature

SCALAR_NOTE = "scalar = mean of defined category ratios (line, branch, toggle, fsm_state)"

_UNCOVERED_CAP = 40


@dataclass(frozen=True)
class CoverageReport:
    line: Optional[Fraction]
    branch: Optional[Fraction]
    toggle: Optional[Fraction]
    fsm_state: Optional[Fraction]
    scalar: Fraction
    uncovered: tuple[str, ...]
    note: str = SCALAR_NOTE

    def as_dict(self) -> dict:
        def ratio(x):
            return None if x is None else float(x)

        return {
            "line": ratio(self.line),
            "branch": ratio(self.branch),
            "toggle": ratio(self.toggle),
            "fsm_state": ratio(self.fsm_state),
            "scalar": float(self.scalar),
            "note": self.note,
        }


class CoverageCollector:
    """Accumulates coverage events across runs; union semantics, so the
    result is independent of test order."""

    def __init__(self, design: ElaboratedDesign, signature: DesignSignature):
        self.design = design
        self.stmts: set[int] = set()
        self.arms: set[tuple] = set()
        self.ones = {name: 0 for name in design.signals if name != signature.clock}
        self.zeros = dict(self.ones)
        self.fsm_seen: dict[str, set[int]] = {reg: set() for reg in design.fsm_registers}
        self._masks = {
            name: (1 << design.signals[name].width) - 1 for name in design.signals
        }

    def copy(self) -> "CoverageCollector":
        """A collector holding the same events; folding a run into either
        leaves the other unchanged."""
        twin = copy.copy(self)
        twin.stmts = set(self.stmts)
        twin.arms = set(self.arms)
        twin.ones = dict(self.ones)
        twin.zeros = dict(self.zeros)
        twin.fsm_seen = {reg: set(seen) for reg, seen in self.fsm_seen.items()}
        return twin

    def observe(self, values: dict[str, tuple[int, ...]]):
        """Fold one finished trace's signal columns into the toggle and
        FSM state sets: a bit was seen at 1 if any sample has it set,
        at 0 unless every sample has it set. Each column is folded over
        its distinct values."""
        for name in self.ones:
            column = set(values[name])
            self.ones[name] |= reduce(or_, column)
            self.zeros[name] |= ~reduce(and_, column) & self._masks[name]
        for reg in self.fsm_seen:
            self.fsm_seen[reg].update(values[reg])

    def report(self) -> CoverageReport:
        design = self.design
        uncovered: list[str] = []

        lines = design.statement_lines
        line = None
        if lines:
            ids = set(range(len(lines)))
            line = Fraction(len(self.stmts & ids), len(lines))
            for sid in sorted(ids - self.stmts):
                uncovered.append(f"statement at line {lines[sid]} never executed")

        branch = None
        if design.branch_arms:
            taken = self.arms & set(design.branch_arms)
            branch = Fraction(len(taken), len(design.branch_arms))
            for sid, arm in sorted(set(design.branch_arms) - taken, key=str):
                label = arm if isinstance(arm, str) else f"case arm {arm + 1}"
                uncovered.append(f"branch '{label}' at line {lines[sid]} never taken")

        toggle = None
        total_bits = sum(design.signals[name].width for name in self.ones)
        if total_bits:
            toggled = 0
            for name in sorted(self.ones):
                both = self.ones[name] & self.zeros[name]
                width = design.signals[name].width
                toggled += bin(both).count("1")
                for bit in range(width):
                    if not (both >> bit) & 1:
                        missing = "1" if not (self.ones[name] >> bit) & 1 else "0"
                        uncovered.append(f"signal '{name}' bit {bit} never observed at {missing}")
            toggle = Fraction(toggled, total_bits)

        fsm = None
        if design.fsm_registers:
            parts = []
            for reg, constants in sorted(design.fsm_registers.items()):
                seen = self.fsm_seen[reg] & set(constants)
                parts.append(Fraction(len(seen), len(constants)))
                for value in sorted(set(constants) - seen):
                    uncovered.append(f"state register '{reg}' never reached value {value}")
            fsm = sum(parts, Fraction(0)) / len(parts)

        defined = [r for r in (line, branch, toggle, fsm) if r is not None]
        scalar = sum(defined, Fraction(0)) / len(defined) if defined else Fraction(0)
        if len(uncovered) > _UNCOVERED_CAP:
            extra = len(uncovered) - _UNCOVERED_CAP
            uncovered = uncovered[:_UNCOVERED_CAP] + [f"... and {extra} more uncovered items"]
        return CoverageReport(line, branch, toggle, fsm, scalar, tuple(uncovered))


def collect_coverage(
    design: ElaboratedDesign,
    tests,
    signature: DesignSignature,
    collector: CoverageCollector | None = None,
) -> CoverageReport:
    """Union coverage of all tests; deterministic regardless of order.

    The tests are folded into ``collector`` when one is given, so a caller
    can keep the coverage of tests it has already run.
    """
    from .engine import run

    if collector is None:
        collector = CoverageCollector(design, signature)
    for test in tests:
        run(design, test, signature, collector)
    return collector.report()
