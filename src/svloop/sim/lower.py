"""Lowering of an elaborated design into straight-line Python.

``lower(design, instrumented)`` generates one Python module per design
and variant and compiles it; the simulator binds it once and caches the
result on the design. The module defines ``bind`` which returns
``(sweep, processes)``:

- ``sweep(v)`` runs every combinational node once, in ``comb_order``;
- ``processes[i](v, n)`` runs clocked process ``i``: blocking writes go
  straight into ``v``, nonblocking ones into the dict ``n``, which the
  caller commits after the last process of an event fires.

Signals live in the list ``v``, indexed by their position in
``design.signals``. Every evaluation width, literal, parameter value and
signal mask is folded in as an integer constant.

Evaluation widths are worked out here, as each expression is written,
by Verilog's rule (IEEE 1800-2017 section 11.6): an expression is
evaluated at the width its context gives it, never below its
self-determined width (``elaborate.self_width``). An assignment gives
the wider of its target's width and its expression's own. The operands
of arithmetic and bitwise operators, a ternary's two arms and a shift's
left side inherit their parent's width. A condition, a logical operand
and a shift amount are evaluated at their own width, a comparison's two
operands at the wider of theirs, and a case's subject and labels at the
widest of them all.

The instrumented variant's probes are the design's coverage points, and
the only inventory of them. ``bind`` takes a list ``H`` of hits, one per
probe: probe ``k`` is the store ``H[k] = 1`` where its point is reached.
There is one probe per statement and continuous assign, keyed by the
statement's id, and one per ``then`` and ``else`` of every ``if`` (an
absent else is probed too), each case arm (``0, 1, ...``) and a
``default``, keyed ``(id, arm)``. Ids number the continuous assigns in
declaration order, then the statements of each combinational and then
each clocked process in preorder, whatever order the sweep runs them in.
``lower`` returns each probe's ``(key, line)`` beside ``bind``, the line
of an arm's probe being its statement's. The plain variant holds no
probes at all.

``harness(design, signature)`` generates the harness cycle around that
module: ``make(sweep, processes)`` returns ``step(v, row)``, which
lowers the clock and fires the ``negedge`` processes, drives the row and
fires the processes its edges trigger, raises the clock and fires the
``posedge`` processes, settling after each. Designs of one harness shape
share one compiled ``make``.

The generated text holds only list indices, integer constants, local
names made here and operator tokens from the fixed tables below; no
name or other text of the design reaches it.
"""

from __future__ import annotations

from ..frontend.ast import (
    Assignment, Binary, Case, Ident, If, Ternary, Unary, stmt_exprs, walk_stmts,
)
from ..frontend.elaborate import ElaboratedDesign, constant_value, self_width
from ..frontend.signature import DesignSignature

# operators whose value is the Python operator applied to the operands
_BITWISE = {"&": "&", "|": "|", "^": "^", ">>": ">>"}
_WRAPPING = {"+": "+", "-": "-"}
_COMPARE = {"==": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_LOGIC = {"&&": "and", "||": "or"}

# generated nesting stays far below Python's parser limits: deeper
# expressions are spilled into locals, deeper bodies into helper functions
_SPILL_DEPTH = 24
_BODY_DEPTH = 24


def _mask(width: int) -> int:
    return (1 << width) - 1


class _Writer:
    """Emits the generated module for one design."""

    def __init__(self, design: ElaboratedDesign, instrumented: bool):
        self.design = design
        self.instrumented = instrumented
        self.index = {name: i for i, name in enumerate(design.signals)}
        self.masks = [_mask(info.width) for info in design.signals.values()]
        self.widths = {name: info.width for name, info in design.signals.items()}
        self.widths.update({name: width for name, (_, width) in design.params.items()})
        self.lines: list[str] = []       # the function being written
        self.helpers: list[list[str]] = []
        self.temps = 0
        self.probes: list = []           # probe k's (key, line); key is id or (id, arm)
        if instrumented:
            procs = design.comb_processes + design.seq_processes
            stmts = design.cont_assigns + [s for proc in procs for s in walk_stmts(proc.body)]
            self.ids = {id(stmt): n for n, stmt in enumerate(stmts)}    # statement ids

    def fresh(self, prefix: str) -> str:
        self.temps += 1
        return f"{prefix}{self.temps}"

    # --- expressions --------------------------------------------------------

    def value(self, expr, width: int, pre: list[str], depth: int = 0) -> str:
        """Python expression for ``expr``'s value at ``width``, the width
        its context gives it; statements that must run first (spilled
        subexpressions) are appended to ``pre``."""
        constant = constant_value(expr, self.design.params)
        if constant is not None:
            return str(constant & _mask(width))
        if isinstance(expr, Ident):
            return f"v[{self.index[expr.name]}]"
        if depth > _SPILL_DEPTH:
            temp = self.fresh("t")
            pre.append(f"{temp} = {self.value(expr, width, pre)}")
            return temp
        depth += 1
        if isinstance(expr, Binary):
            op = expr.op
            if op in _LOGIC or op in _COMPARE:
                return f"(1 if {self.cond(expr, pre, depth)} else 0)"
            # a shift amount is evaluated at its own width
            right_width = self_width(expr.right, self.widths) if op in ("<<", ">>") else width
            left = self.value(expr.left, width, pre, depth)
            right = self.value(expr.right, right_width, pre, depth)
            mask = _mask(width)
            if op in _BITWISE:
                return f"({left} {_BITWISE[op]} {right})"
            if op in _WRAPPING:
                return f"(({left} {_WRAPPING[op]} {right}) & {mask})"
            if op == "<<":
                shift = constant_value(expr.right, self.design.params)
                if shift is not None:
                    if shift & _mask(right_width) >= width:
                        return "0"
                    return f"(({left} << {right}) & {mask})"
                amount = self.fresh("r")
                return (f"((({left} << {amount}) & {mask}) "
                        f"if ({amount} := {right}) < {width} else 0)")
            raise ValueError(f"unknown operator {op}")
        if isinstance(expr, Unary):
            if expr.op == "!":
                return f"(0 if {self.cond(expr.operand, pre, depth)} else 1)"
            operand = self.value(expr.operand, width, pre, depth)
            sign = "~" if expr.op == "~" else "-"
            return f"({sign}{operand} & {_mask(width)})"
        if isinstance(expr, Ternary):
            cond = self.cond(expr.cond, pre, depth)
            then = self.value(expr.then, width, pre, depth)
            other = self.value(expr.other, width, pre, depth)
            return f"({then} if {cond} else {other})"
        raise TypeError(type(expr).__name__)

    def cond(self, expr, pre: list[str], depth: int = 0) -> str:
        """Python expression whose truth is that of ``expr``, evaluated at
        its self-determined width, being nonzero."""
        if depth > _SPILL_DEPTH:
            return self.value(expr, self_width(expr, self.widths), pre, depth)
        if isinstance(expr, Binary) and expr.op in _COMPARE:
            # both operands at the wider of their own widths
            width = max(self_width(expr.left, self.widths), self_width(expr.right, self.widths))
            left = self.value(expr.left, width, pre, depth + 1)
            right = self.value(expr.right, width, pre, depth + 1)
            return f"({left} {_COMPARE[expr.op]} {right})"
        if isinstance(expr, Binary) and expr.op in _LOGIC:
            left = self.cond(expr.left, pre, depth + 1)
            right = self.cond(expr.right, pre, depth + 1)
            return f"({left} {_LOGIC[expr.op]} {right})"
        if isinstance(expr, Unary) and expr.op == "!":
            return f"(not {self.cond(expr.operand, pre, depth + 1)})"
        return self.value(expr, self_width(expr, self.widths), pre, depth)

    def assigned(self, target: str, expr, pre: list[str]) -> str:
        """Python expression for ``expr`` assigned to ``target``: its value at
        the wider of the target's width and its own."""
        return self.value(expr, max(self.widths[target], self_width(expr, self.widths)), pre)

    # --- statements ---------------------------------------------------------

    def emit(self, indent: int, text: str):
        self.lines.append("    " * indent + text)

    def probe(self, indent: int, stmt, arm=None):
        """Probe ``stmt``, or its ``arm`` when one is given."""
        if self.instrumented:
            self.emit(indent, f"H[{len(self.probes)}] = 1")
            sid = self.ids[id(stmt)]
            self.probes.append((sid if arm is None else (sid, arm), stmt.line))

    def body(self, stmts, indent: int, depth: int):
        if not stmts:
            self.emit(indent, "pass")
            return
        if depth > _BODY_DEPTH:
            self.emit(indent, f"{self.helper(stmts)}(v, n)")
            return
        for stmt in stmts:
            self.statement(stmt, indent, depth)

    def helper(self, stmts) -> str:
        """Write ``stmts`` as a helper function of their own; its name."""
        name = self.fresh("b")
        outer = self.lines
        self.lines = [f"def {name}(v, n):"]
        self.body(stmts, 1, 0)
        self.helpers.append(self.lines)
        self.lines = outer
        return name

    def statement(self, stmt, indent: int, depth: int):
        self.probe(indent, stmt)
        pre: list[str] = []
        if isinstance(stmt, Assignment):
            value = self.assigned(stmt.target, stmt.expr, pre)
            target = self.index[stmt.target]
            store = f"v[{target}]" if stmt.blocking else f"n[{target}]"
            for line in pre:
                self.emit(indent, line)
            self.emit(indent, f"{store} = {value} & {self.masks[target]}")
        elif isinstance(stmt, If):
            cond = self.cond(stmt.cond, pre)
            for line in pre:
                self.emit(indent, line)
            self.emit(indent, f"if {cond}:")
            self.probe(indent + 1, stmt, "then")
            self.body(stmt.then_body, indent + 1, depth + 1)
            if stmt.else_body is not None or self.instrumented:
                self.emit(indent, "else:")
                self.probe(indent + 1, stmt, "else")
                self.body(stmt.else_body or [], indent + 1, depth + 1)
        elif isinstance(stmt, Case):
            # the subject and every label at the widest of their widths
            width = max(self_width(expr, self.widths) for expr in stmt_exprs(stmt))
            subject = self.fresh("c")
            pre.append(f"{subject} = {self.value(stmt.subject, width, pre)}")
            tests = [
                " or ".join(f"{subject} == {self.value(lbl, width, pre)}" for lbl in item.labels)
                for item in stmt.items
            ]
            for line in pre:
                self.emit(indent, line)
            for i, (item, test) in enumerate(zip(stmt.items, tests)):
                self.emit(indent, f"{'elif' if i else 'if'} {test}:")
                self.probe(indent + 1, stmt, i)
                self.body(item.body, indent + 1, depth + 1)
            if stmt.default_body is not None:
                self.emit(indent, "else:" if stmt.items else "if True:")
                self.probe(indent + 1, stmt, "default")
                self.body(stmt.default_body, indent + 1, depth + 1)
        else:
            raise TypeError(type(stmt).__name__)

    # --- module -------------------------------------------------------------

    def module(self) -> str:
        design = self.design
        functions = []
        # ``n`` is defined even where no body writes nonblocking, because a
        # helper split off a deep body is always called with it
        self.lines = ["def sweep(v, n=None):"]
        for kind, i in design.comb_order:
            if kind == "assign":
                item = design.cont_assigns[i]
                pre: list[str] = []
                value = self.assigned(item.target, item.expr, pre)
                target = self.index[item.target]
                self.probe(1, item)
                for line in pre:
                    self.emit(1, line)
                self.emit(1, f"v[{target}] = {value} & {self.masks[target]}")
            else:
                # a nonblocking write in a combinational body lands when
                # the body ends
                body = design.comb_processes[i].body
                deferred = any(isinstance(s, Assignment) and not s.blocking
                               for s in walk_stmts(body))
                if deferred:
                    self.emit(1, "n = {}")
                self.body(body, 1, 0)
                if deferred:
                    self.emit(1, "for i, x in n.items():")
                    self.emit(2, "v[i] = x")
        self.emit(1, "pass")
        functions.append(self.lines)
        for i, proc in enumerate(design.seq_processes):
            self.lines = [f"def p{i}(v, n):"]
            self.body(proc.body, 1, 0)
            functions.append(self.lines)
        params = "H" if self.instrumented else ""
        processes = "".join(f"p{i}, " for i in range(len(design.seq_processes)))
        out = [f"def bind({params}):"]
        for function in self.helpers + functions:
            out.extend("    " + line for line in function)
        out.append(f"    return sweep, ({processes})")
        return "\n".join(out) + "\n"


def _compile(text: str, name: str):
    namespace: dict = {"__builtins__": {}}
    exec(compile(text, f"<generated {name}>", "exec"), namespace)
    return namespace[name]


def lowered_source(design: ElaboratedDesign, instrumented: bool) -> str:
    """The generated module text for one design and variant."""
    return _Writer(design, instrumented).module()


def lower(design: ElaboratedDesign, instrumented: bool = False):
    """``(bind, probes)`` of ``design``: the compiled ``bind`` of one
    variant and the ``(key, line)`` of each of its probes."""
    writer = _Writer(design, instrumented)
    return _compile(writer.module(), "bind"), tuple(writer.probes)


def harness_source(design: ElaboratedDesign, signature: DesignSignature) -> str:
    """The generated harness module for ``design`` under ``signature``.

    It depends only on the harness shape: the clock's index, the stimulus
    columns' indices, which processes each clock edge fires and which
    each edge of a stimulus column triggers. Settling is one ``sweep``:
    elaboration rejects every combinational node that reads a signal it
    writes and orders ``comb_order`` topologically, so a second sweep
    could change nothing.
    """
    index = {name: i for i, name in enumerate(design.signals)}
    clock = signature.clock
    columns = [index[p.name] for p in signature.stimulus_inputs]
    on_clock: tuple[list[int], list[int]] = ([], [])    # (negedge, posedge)
    masks = {i: [0, 0] for i in columns}                  # column -> (negedge, posedge)
    for k, proc in enumerate(design.seq_processes):
        for ev in proc.events:  # elaboration allows one event per signal
            posedge = ev.edge == "posedge"
            if ev.signal == clock:
                on_clock[posedge].append(k)
            if index[ev.signal] in masks:
                masks[index[ev.signal]][posedge] |= 1 << k
    triggers = {i: m for i, m in masks.items() if any(m)}
    triggered = [k for k in range(len(design.seq_processes))
                 if any((neg | pos) >> k & 1 for neg, pos in triggers.values())]

    lines = ["def make(sweep, P):"]
    if design.seq_processes:
        lines.append("    " + "".join(f"p{k}, " for k in range(len(design.seq_processes))) + "= P")
    lines.append("    def step(v, row):")

    def fire(indent: str, calls: list[str]):
        """Run ``calls`` on one fresh nonblocking dict, then commit it."""
        lines.append(f"{indent}n = {{}}")
        lines.extend(indent + call for call in calls)
        lines.extend((f"{indent}for i, x in n.items():", f"{indent}    v[i] = x"))

    if clock is not None:
        c = index[clock]
        lines += [f"        if v[{c}] == 1:", f"            v[{c}] = 0"]
        if on_clock[0]:
            fire(" " * 12, [f"p{k}(v, n)" for k in on_clock[0]])
            lines.append("            sweep(v)")
    # a trigger column is unpacked into a local and compared with its old
    # value; every other column is stored as it stands
    if columns:
        targets = [f"a{j}" if i in triggers else f"v[{i}]" for j, i in enumerate(columns)]
        lines.append("        " + "".join(f"{t}, " for t in targets) + "= row")
    if triggers:
        lines.append("        t = 0")
        for j, i in enumerate(columns):
            if i in triggers:
                negedge, posedge = triggers[i]
                lines += [f"        o = v[{i}]", f"        if o != a{j}:",
                          f"            v[{i}] = a{j}",
                          f"            t |= {posedge} if o == 0 else {negedge}"]
        lines.append("        if t:")
        fire(" " * 12, [call for k in triggered
                        for call in (f"if t & {1 << k}:", f"    p{k}(v, n)")])
    lines.append("        sweep(v)")
    if clock is not None:
        lines.append(f"        v[{c}] = 1")
        if on_clock[1]:
            fire(" " * 8, [f"p{k}(v, n)" for k in on_clock[1]])
        lines.append("        sweep(v)")
    lines.append("    return step")
    return "\n".join(lines) + "\n"


# harness text -> compiled ``make``; designs of one harness shape share it
_HARNESSES: dict = {}


def harness(design: ElaboratedDesign, signature: DesignSignature):
    """The compiled ``make`` of ``design``'s harness under ``signature``:
    ``make(sweep, processes)`` returns ``step(v, row)``."""
    text = harness_source(design, signature)
    if text not in _HARNESSES:
        _HARNESSES[text] = _compile(text, "make")
    return _HARNESSES[text]
