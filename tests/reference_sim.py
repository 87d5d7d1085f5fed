"""Reference simulator for differential tests of the compiled one.

This is the tree-walking interpreter the simulator used before designs
were lowered to generated Python: it dispatches on node type every time
it evaluates an expression, keeps signal values in a dict, settles by
sweeping until nothing changes and samples toggle and FSM coverage on
every cycle. It reads each expression's evaluation width from the
``eval_width`` that ``reference_elaborate.annotate_widths`` writes onto
the tree, and each statement's coverage id from the ``stmt_id`` that
``reference_elaborate.number_statements`` writes. ``run_reference`` and ``product_search_reference`` mirror
``svloop.sim.engine.run`` and ``product_search`` on top of it.
"""

from __future__ import annotations

import itertools

from reference_elaborate import annotate_widths, number_statements
from svloop.errors import StimulusMismatch
from svloop.frontend.ast import Assignment, Case, If
from svloop.sim.engine import Trace

SETTLE_CAP = 1000


class ReferenceMachine:
    """One design under the test harness, walking the AST every cycle;
    its state is the dict ``values``."""

    def __init__(self, design: ElaboratedDesign, signature: DesignSignature, collector=None):
        annotate_widths(design)
        number_statements(design)
        self.design = design
        self.signals = design.signals
        self.values = {name: 0 for name in design.signals}
        self.collector = collector
        self._masks = {name: (1 << info.width) - 1 for name, info in design.signals.items()}
        self.clock = clock = signature.clock
        self.columns = [p.name for p in signature.stimulus_inputs]
        seq = design.seq_processes
        self._posedge_clock = [
            p for p in seq if any(ev.signal == clock and ev.edge == "posedge" for ev in p.events)
        ]
        self._negedge_clock = [
            p for p in seq if any(ev.signal == clock and ev.edge == "negedge" for ev in p.events)
        ]
        # (signal, edge) -> indices of the processes that event triggers
        self._edge_triggers: dict[tuple[str, str], set[int]] = {}
        for i, proc in enumerate(seq):
            for ev in proc.events:
                self._edge_triggers.setdefault((ev.signal, ev.edge), set()).add(i)

    def state(self) -> tuple[int, ...]:
        return tuple(self.values.values())

    def load(self, state: tuple[int, ...]):
        self.values = dict(zip(self.signals, state))

    # --- expression evaluation ---

    def eval(self, expr):
        kind = type(expr).__name__
        if kind == "Ident":
            if expr.name in self.design.params:
                return self.design.params[expr.name][0] & ((1 << expr.eval_width) - 1)
            return self.values[expr.name]
        if kind == "Literal":
            return expr.value & ((1 << expr.eval_width) - 1)
        if kind == "Binary":
            op = expr.op
            if op == "&&":
                return 1 if (self.eval(expr.left) and self.eval(expr.right)) else 0
            if op == "||":
                return 1 if (self.eval(expr.left) or self.eval(expr.right)) else 0
            left = self.eval(expr.left)
            right = self.eval(expr.right)
            if op == "&":
                return left & right
            if op == "|":
                return left | right
            if op == "^":
                return left ^ right
            if op == "+":
                return (left + right) & ((1 << expr.eval_width) - 1)
            if op == "-":
                return (left - right) & ((1 << expr.eval_width) - 1)
            if op == "==":
                return 1 if left == right else 0
            if op == "!=":
                return 1 if left != right else 0
            if op == "<":
                return 1 if left < right else 0
            if op == "<=":
                return 1 if left <= right else 0
            if op == ">":
                return 1 if left > right else 0
            if op == ">=":
                return 1 if left >= right else 0
            if op == ">>":
                return left >> right
            if op == "<<":
                if right >= expr.eval_width:
                    return 0
                return (left << right) & ((1 << expr.eval_width) - 1)
            raise ValueError(f"unknown operator {op}")
        if kind == "Unary":
            if expr.op == "!":
                return 0 if self.eval(expr.operand) else 1
            value = self.eval(expr.operand)
            if expr.op == "~":
                return ~value & ((1 << expr.eval_width) - 1)
            return (-value) & ((1 << expr.eval_width) - 1)
        if kind == "Ternary":
            if self.eval(expr.cond):
                return self.eval(expr.then)
            return self.eval(expr.other)
        raise TypeError(kind)

    # --- statement execution ---

    def write(self, target: str, value: int):
        value &= self._masks[target]
        if self.values[target] != value:
            self.values[target] = value

    def exec_body(self, body, nba: dict):
        collector = self.collector
        for stmt in body:
            if collector is not None:
                collector.hit.add(stmt.stmt_id)
            if isinstance(stmt, Assignment):
                value = self.eval(stmt.expr)
                if stmt.blocking:
                    self.write(stmt.target, value)
                else:
                    nba[stmt.target] = value & self._masks[stmt.target]
            elif isinstance(stmt, If):
                taken = bool(self.eval(stmt.cond))
                if collector is not None:
                    collector.hit.add((stmt.stmt_id, "then" if taken else "else"))
                if taken:
                    self.exec_body(stmt.then_body, nba)
                elif stmt.else_body is not None:
                    self.exec_body(stmt.else_body, nba)
            elif isinstance(stmt, Case):
                subject = self.eval(stmt.subject)
                for i, item in enumerate(stmt.items):
                    if any(self.eval(lbl) == subject for lbl in item.labels):
                        if collector is not None:
                            collector.hit.add((stmt.stmt_id, i))
                        self.exec_body(item.body, nba)
                        break
                else:
                    if stmt.default_body is not None:
                        if collector is not None:
                            collector.hit.add((stmt.stmt_id, "default"))
                        self.exec_body(stmt.default_body, nba)
            else:
                raise TypeError(type(stmt).__name__)

    def run_comb_node(self, node):
        kind, idx = node
        if kind == "assign":
            item = self.design.cont_assigns[idx]
            if self.collector is not None:
                self.collector.hit.add(item.stmt_id)
            self.write(item.target, self.eval(item.expr))
        else:
            nba: dict = {}
            self.exec_body(self.design.comb_processes[idx].body, nba)
            for target, value in nba.items():
                self.write(target, value)

    def settle(self):
        # Convergence is judged on end-of-sweep values: intermediate blocking
        # writes inside one body (default-then-override) are not oscillation.
        # The compiled simulator sweeps once, so a second sweep that changes
        # a value is a failure here.
        order = self.design.comb_order
        if not order:
            return
        values = self.values
        for sweeps in range(1, SETTLE_CAP + 1):
            before = dict(values)
            for node in order:
                self.run_comb_node(node)
            if values == before:
                return
            assert sweeps == 1, f"sweep {sweeps + 1} changed {before} into {values}"
        raise AssertionError(f"combinational logic did not settle within {SETTLE_CAP} sweeps")

    def fire_seq(self, processes):
        nba: dict = {}
        for proc in processes:
            self.exec_body(proc.body, nba)
        for target, value in nba.items():
            self.write(target, value)

    def step(self, row):
        """One harness cycle on one stimulus row, ready to be sampled."""
        values = self.values
        clock = self.clock
        if clock is not None and values[clock] == 1:
            values[clock] = 0
            if self._negedge_clock:
                self.fire_seq(self._negedge_clock)
                self.settle()
        triggered: set[int] = set()
        for name, value in zip(self.columns, row):
            old = values[name]
            if old == value:
                continue
            values[name] = value
            edge = "posedge" if old == 0 and value != 0 else "negedge"
            triggered.update(self._edge_triggers.get((name, edge), ()))
        if triggered:
            seq = self.design.seq_processes
            self.fire_seq([seq[i] for i in sorted(triggered)])
        self.settle()
        if clock is not None:
            values[clock] = 1
            if self._posedge_clock:
                self.fire_seq(self._posedge_clock)
            self.settle()


def sample_coverage(collector, values: dict[str, int]):
    """Per-cycle toggle and FSM sampling, as the collector once did it."""
    for name in collector.ones:
        value = values[name]
        collector.ones[name] |= value
        collector.zeros[name] |= ~value & collector._masks[name]
    for reg in collector.fsm_seen:
        collector.fsm_seen[reg].add(values[reg])


def run_reference(design, test, signature, collector=None) -> Trace:
    if test.columns != signature.stimulus_inputs:
        raise StimulusMismatch("unit test columns do not match signature inputs")
    machine = ReferenceMachine(design, signature, collector)
    samples: dict[str, list[int]] = {name: [] for name in design.signals}
    machine.settle()
    for row in test.rows:
        machine.step(row)
        for name in samples:
            samples[name].append(machine.values[name])
        if collector is not None:
            sample_coverage(collector, machine.values)
    return Trace({name: tuple(vals) for name, vals in samples.items()}, test.cycles)


def product_search_reference(reference, mutant, signature, max_steps):
    outputs = [p.name for p in signature.outputs]
    ranges = [range(1 << p.width) for p in signature.stimulus_inputs]
    ref = ReferenceMachine(reference, signature)
    mut = ReferenceMachine(mutant, signature)
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
                if any(ref.values[o] != mut.values[o] for o in outputs):
                    return False
                pair = (ref.state(), mut.state())
                if pair not in seen:
                    seen.add(pair)
                    reached.append(pair)
        frontier = reached
    return True
