"""Design signature extraction: ordered ports plus clock/reset roles.

Roles are inferred structurally: the clock is the width-1 input left over
in edge lists once reset signals (those tested by the leading ``if`` of a
clocked body) are removed; a synchronous reset is a width-1 input tested
by the leading ``if`` of a clock-only process. Both can be overridden per
problem in the dataset manifest; an overriding clock must still drive a
clocked process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import AmbiguousClock
from .ast import Assignment, Binary, Ident, If, Literal, Unary, idents_in, walk_stmts
from .elaborate import ElaboratedDesign


@dataclass(frozen=True)
class SignaturePort:
    name: str
    width: int

    def __str__(self) -> str:
        return f"{self.name}[{self.width}]"


@dataclass(frozen=True)
class ResetSpec:
    name: str
    active_high: bool = True
    synchronous: bool = False

    def describe(self) -> str:
        level = "active-high" if self.active_high else "active-low"
        timing = "synchronous" if self.synchronous else "asynchronous"
        return f"{self.name} ({timing}, {level})"


@dataclass(frozen=True)
class DesignSignature:
    module_name: str
    inputs: tuple[SignaturePort, ...]
    outputs: tuple[SignaturePort, ...]
    clock: Optional[str] = None
    reset: Optional[ResetSpec] = field(default=None)

    @property
    def stimulus_inputs(self) -> tuple[SignaturePort, ...]:
        """Inputs a unit test drives: everything except the harness clock."""
        return tuple(p for p in self.inputs if p.name != self.clock)

    def stimulus_header(self) -> str:
        return "inputs: " + ", ".join(map(str, self.stimulus_inputs))

    def to_text(self) -> str:
        lines = [f"module {self.module_name}"]
        lines.append("inputs (in port order): " + (", ".join(map(str, self.inputs)) or "(none)"))
        lines.append("outputs: " + (", ".join(map(str, self.outputs)) or "(none)"))
        if self.clock:
            lines.append(f"clock: {self.clock} (driven by the harness; never part of the stimulus)")
        else:
            lines.append("clock: none (combinational)")
        if self.reset:
            lines.append(f"reset: {self.reset.describe()}; drive it like any other input")
        else:
            lines.append("reset: none")
        return "\n".join(lines)


def _constant(expr, params) -> Optional[int]:
    """The value of a literal or parameter, or None for anything else."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Ident) and expr.name in params:
        return params[expr.name][0]
    return None


def _reset_polarity_from_cond(cond, name: str, params) -> Optional[bool]:
    """Active level implied by an if condition naming the reset, or None."""
    if isinstance(cond, Ident) and cond.name == name:
        return True
    if isinstance(cond, Unary) and cond.op in ("!", "~"):
        if isinstance(cond.operand, Ident) and cond.operand.name == name:
            return False
    if isinstance(cond, Binary) and cond.op in ("==", "!="):
        sides = (cond.left, cond.right)
        ident = next((s for s in sides if isinstance(s, Ident) and s.name == name), None)
        values = [v for v in (_constant(s, params) for s in sides) if v is not None]
        if ident is not None and values:
            truth = values[0] != 0
            return truth if cond.op == "==" else not truth
    return None


def _leading_if(body) -> Optional[If]:
    if body and isinstance(body[0], If):
        return body[0]
    return None


def _branch_assigns_constants(body, params) -> bool:
    """True when the branch looks like a reset branch: it assigns at least
    one register and every assigned value is a literal or a parameter.
    Distinguishes a reset guard from an ordinary enable guard on
    clock-only processes."""
    assigns = [s for s in walk_stmts(body) if isinstance(s, Assignment)]
    return bool(assigns) and all(_constant(s.expr, params) is not None for s in assigns)


def extract_signature(
    design: ElaboratedDesign,
    clock_override: Optional[str] = None,
    reset_override: Optional[ResetSpec] = None,
) -> DesignSignature:
    """Extract the ordered port interface and clock/reset roles.

    Deterministic: repeated calls on the same design yield identical
    signatures. Raises AmbiguousClock when edge events of different
    processes disagree on the clock and no override is given, or when the
    override drives none of the clocked processes.
    """
    inputs = tuple(
        SignaturePort(name, design.signals[name].width) for name in design.input_ports
    )
    outputs = tuple(
        SignaturePort(name, design.signals[name].width) for name in design.output_ports
    )

    clock = clock_override
    async_resets: list[tuple[str, bool]] = []
    sync_resets: list[tuple[str, bool]] = []

    clock_candidates: list[str] = []
    for proc in design.seq_processes:
        event_signals = [ev.signal for ev in proc.events]
        if len(event_signals) == 1:
            clock_candidates.append(event_signals[0])
            lead = _leading_if(proc.body)
            if lead is not None and _branch_assigns_constants(lead.then_body, design.params):
                for name in set(idents_in(lead.cond)):
                    if name == event_signals[0] or name not in design.signals:
                        continue
                    info = design.signals[name]
                    if info.direction == "input" and info.width == 1:
                        polarity = _reset_polarity_from_cond(lead.cond, name, design.params)
                        if polarity is not None:
                            sync_resets.append((name, polarity))
            continue
        lead = _leading_if(proc.body)
        cond_names = set(idents_in(lead.cond)) if lead is not None else set()
        resets = [ev for ev in proc.events if ev.signal in cond_names]
        others = [ev for ev in proc.events if ev.signal not in cond_names]
        if len(others) != 1:
            raise AmbiguousClock(
                f"cannot identify a unique clock among edge events "
                f"{[ev.signal for ev in proc.events]}",
                proc.line, 0,
            )
        clock_candidates.append(others[0].signal)
        for ev in resets:
            async_resets.append((ev.signal, ev.edge == "posedge"))

    distinct = sorted(set(clock_candidates))
    if clock is None:
        if len(distinct) > 1:
            raise AmbiguousClock(
                f"multiple clock candidates across processes: {', '.join(distinct)}", 0, 0
            )
        clock = distinct[0] if distinct else None
    elif clock not in distinct:
        raise AmbiguousClock(
            f"clock {clock!r} drives no clocked process "
            f"(clock candidates: {', '.join(distinct) or 'none'})", 0, 0
        )

    reset = reset_override
    if reset is None:
        port_rank = {name: i for i, name in enumerate(design.input_ports)}
        if async_resets:
            name, high = min(async_resets, key=lambda r: port_rank.get(r[0], 1 << 30))
            reset = ResetSpec(name, high, synchronous=False)
        elif sync_resets:
            name, high = min(sync_resets, key=lambda r: port_rank.get(r[0], 1 << 30))
            reset = ResetSpec(name, high, synchronous=True)

    return DesignSignature(design.name, inputs, outputs, clock, reset)

