"""Cycle-based two-phase simulator.

Each cycle: drive the stimulus row (asynchronous edge events fire
immediately), settle combinational logic to a fixed point, raise the
harness clock, commit nonblocking updates, settle again, then sample
every signal. The harness clock is lowered at the start of the next
cycle, which is when ``negedge``-clocked processes fire. ``run`` and
``product_search`` both advance a design through this one cycle body.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import StimulusMismatch
from ..frontend.elaborate import ElaboratedDesign
from ..frontend.signature import DesignSignature
from .lower import lower
from .stimulus import UnitTest


@dataclass(frozen=True)
class Trace:
    values: dict[str, tuple[int, ...]]
    cycles: int


class _Machine:
    """One design under the test harness; its state is the list ``values``,
    indexed like ``design.signals``."""

    def __init__(self, design: ElaboratedDesign, signature: DesignSignature, collector=None):
        index = {name: i for i, name in enumerate(design.signals)}
        self.index = index
        self.values = [0] * len(index)
        bind = lower(design, collector is not None)
        if collector is None:
            self.sweep, processes = bind()
        else:
            self.sweep, processes = bind(collector.stmts.add, collector.arms.add)
        clock = signature.clock
        self.clock = None if clock is None else index[clock]
        self.columns = [index[p.name] for p in signature.stimulus_inputs]
        seq = design.seq_processes
        self.processes = processes
        self._posedge_clock = [
            f for p, f in zip(seq, processes)
            if any(ev.signal == clock and ev.edge == "posedge" for ev in p.events)
        ]
        self._negedge_clock = [
            f for p, f in zip(seq, processes)
            if any(ev.signal == clock and ev.edge == "negedge" for ev in p.events)
        ]
        # signal index -> (processes a negedge triggers, ... a posedge triggers)
        self._edge_triggers: dict[int, tuple[set[int], set[int]]] = {}
        for i, proc in enumerate(seq):
            for ev in proc.events:
                edges = self._edge_triggers.setdefault(index[ev.signal], (set(), set()))
                edges[ev.edge == "posedge"].add(i)

    def state(self) -> tuple[int, ...]:
        return tuple(self.values)

    def load(self, state: tuple[int, ...]):
        self.values[:] = state

    def settle(self):
        """Bring combinational logic to its fixed point: one sweep.

        Elaboration rejects every combinational node that reads a signal
        it writes and orders ``comb_order`` topologically over read-write
        edges, so each node runs after everything it reads has its final
        value and a second sweep could change nothing.
        """
        self.sweep(self.values)

    def fire(self, processes):
        values = self.values
        nba: dict = {}
        for proc in processes:
            proc(values, nba)
        for i, value in nba.items():
            values[i] = value

    def step(self, row):
        """One harness cycle on one stimulus row, ready to be sampled."""
        values = self.values
        sweep = self.sweep
        clock = self.clock
        if clock is not None and values[clock] == 1:
            values[clock] = 0
            if self._negedge_clock:
                self.fire(self._negedge_clock)
                sweep(values)
        triggers = self._edge_triggers
        triggered = None
        for i, value in zip(self.columns, row):
            old = values[i]
            if old == value:
                continue
            values[i] = value
            if i in triggers:
                if triggered is None:
                    triggered = set()
                triggered.update(triggers[i][old == 0 and value != 0])
        if triggered:
            self.fire([self.processes[i] for i in sorted(triggered)])
        sweep(values)
        if clock is not None:
            values[clock] = 1
            if self._posedge_clock:
                self.fire(self._posedge_clock)
            sweep(values)


def run(
    design: ElaboratedDesign,
    test: UnitTest,
    signature: DesignSignature,
    collector=None,
) -> Trace:
    """Simulate a unit test, returning the per-cycle sampled trace.

    Deterministic: identical inputs yield bit-identical traces.
    """
    if test.columns != signature.stimulus_inputs:
        raise StimulusMismatch(
            "unit test columns {} do not match signature inputs {}".format(
                [f"{p.name}[{p.width}]" for p in test.columns],
                [f"{p.name}[{p.width}]" for p in signature.stimulus_inputs],
            )
        )

    machine = _Machine(design, signature, collector)
    step, values = machine.step, machine.values
    samples = []
    machine.settle()
    for row in test.rows:
        step(row)
        samples.append(tuple(values))
    trace = Trace(dict(zip(design.signals, zip(*samples))), test.cycles)
    if collector is not None:
        collector.observe(trace.values)
    return trace


def product_search(
    reference: ElaboratedDesign,
    mutant: ElaboratedDesign,
    signature: DesignSignature,
    max_steps: int,
) -> bool | None:
    """Breadth-first search of the (reference, mutant) product machine.

    Starts from the settled all-zero state that ``run`` starts from and
    steps both designs on every stimulus row from every reachable state
    pair. Returns False as soon as a step leaves the signature outputs
    different, True when no unvisited state pair remains (no stimulus
    sequence of any length tells the designs apart), and None after
    ``max_steps`` steps without either answer.
    """
    ranges = [range(1 << p.width) for p in signature.stimulus_inputs]
    ref = _Machine(reference, signature)
    mut = _Machine(mutant, signature)
    outputs = [(ref.index[p.name], mut.index[p.name]) for p in signature.outputs]
    ref.settle()
    mut.settle()
    start = (ref.state(), mut.state())
    seen = {start}
    frontier = [start]
    steps = 0
    while frontier:
        reached = []
        for ref_state, mut_state in frontier:
            for row in itertools.product(*ranges):
                if steps == max_steps:
                    return None
                steps += 1
                ref.load(ref_state)
                ref.step(row)
                mut.load(mut_state)
                mut.step(row)
                if any(ref.values[r] != mut.values[m] for r, m in outputs):
                    return False
                pair = (ref.state(), mut.state())
                if pair not in seen:
                    seen.add(pair)
                    reached.append(pair)
        frontier = reached
    return True
