"""Reference clock and reset inference for differential tests of
``svloop.frontend.signature.extract_signature``.

This is ``extract_signature`` as it was before each clocked process was
walked once into one list of reset candidates: it kept asynchronous and
synchronous candidates in two lists, chose from each with its own
``min``, and took the manifest's reset as ``reset_override``, which
replaced the inferred one. Its code is unchanged apart from its imports.
"""

from __future__ import annotations

from typing import Optional

from svloop.errors import AmbiguousClock
from svloop.frontend.ast import If, idents_in
from svloop.frontend.elaborate import ElaboratedDesign
from svloop.frontend.signature import (
    DesignSignature,
    ResetSpec,
    SignaturePort,
    _branch_assigns_constants,
    _reset_polarity_from_cond,
)


def _leading_if(body) -> Optional[If]:
    if body and isinstance(body[0], If):
        return body[0]
    return None


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

