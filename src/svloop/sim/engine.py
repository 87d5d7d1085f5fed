"""Cycle-based two-phase simulator.

Each cycle: drive the stimulus row (asynchronous edge events fire
immediately), settle combinational logic to a fixed point, raise the
harness clock, commit nonblocking updates, settle again, then sample
every signal. The harness clock is lowered at the start of the next
cycle, which is when ``negedge``-clocked processes fire. The cycle body
is generated code (``lower.harness``): ``run`` and ``product_search``
both advance a design through the same ``step``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import StimulusMismatch
from ..frontend.elaborate import ElaboratedDesign
from ..frontend.signature import DesignSignature
from .lower import harness, lower
from .stimulus import UnitTest


@dataclass(frozen=True)
class Trace:
    values: dict[str, tuple[int, ...]]
    cycles: int


def _bound(design: ElaboratedDesign, signature: DesignSignature, instrumented: bool):
    """``(step, start, index, probes, hits, cleared)`` of one variant: the
    harness cycle bound to the design's lowered code, the settled all-zero
    state every run starts from, the signal index map, the probe keys, the
    hit list the instrumented step stores into and its state after the
    settling sweep. Built once, with the variant's lowering, and cached on
    the design: a mutation candidate is valid only while its edit is
    applied, and so are the edge lists its harness is made from."""
    cache = design._lowered_cache
    key = (instrumented, signature.clock, signature.stimulus_inputs)
    if key not in cache:
        bind, probes = lower(design, instrumented)
        hits = [0] * len(probes)
        sweep, processes = bind(hits) if instrumented else bind()
        start = [0] * len(design.signals)
        sweep(start)
        index = {name: i for i, name in enumerate(design.signals)}
        step = harness(design, signature)(sweep, processes)
        cache[key] = (step, tuple(start), index, probes, hits, tuple(hits))
    return cache[key]


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
                [str(p) for p in test.columns],
                [str(p) for p in signature.stimulus_inputs],
            )
        )

    step, start, _, probes, hits, cleared = _bound(design, signature, collector is not None)
    hits[:] = cleared
    # the cycle is a function of (state, row): each distinct pair is stepped
    # once per call, and its first step hits every probe it ever would
    after = {}
    state = start
    samples = []
    append = samples.append
    for row in test.rows:
        key = state, row
        state = after.get(key)
        if state is None:
            values = list(key[0])
            step(values, row)
            state = after[key] = tuple(values)
        append(state)
    trace = Trace(dict(zip(design.signals, zip(*samples))), test.cycles)
    if collector is not None:
        # a probe's key is a statement id or a (statement id, arm) pair
        hit = [key for key, h in zip(probes, hits) if h]
        collector.stmts.update(key for key in hit if type(key) is int)
        collector.arms.update(key for key in hit if type(key) is tuple)
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
    ref_step, ref_start, ref_index, *_ = _bound(reference, signature, False)
    mut_step, mut_start, mut_index, *_ = _bound(mutant, signature, False)
    outputs = [(ref_index[p.name], mut_index[p.name]) for p in signature.outputs]
    start = (ref_start, mut_start)
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
                ref = list(ref_state)
                ref_step(ref, row)
                mut = list(mut_state)
                mut_step(mut, row)
                if any(ref[r] != mut[m] for r, m in outputs):
                    return False
                pair = (tuple(ref), tuple(mut))
                if pair not in seen:
                    seen.add(pair)
                    reached.append(pair)
        frontier = reached
    return True
