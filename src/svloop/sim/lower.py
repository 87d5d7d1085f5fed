"""Lowering of an elaborated design into straight-line Python.

``lower(design, instrumented)`` generates one Python module per design
and compiles it once; the result is cached on the design. The module
defines ``bind`` which returns ``(sweep, processes)``:

- ``sweep(v)`` runs every combinational node once, in ``comb_order``;
- ``processes[i](v, n)`` runs clocked process ``i``: blocking writes go
  straight into ``v``, nonblocking ones into the dict ``n``, which the
  caller commits after the last process of an event fires.

Signals live in the list ``v``, indexed by their position in
``design.signals``. Every evaluation width, literal, parameter value and
signal mask is folded in as an integer constant. The instrumented
variant's ``bind`` takes the ``add`` methods of a collector's statement
and arm sets and calls them where the statement runs or the arm is
taken; the plain variant contains no coverage calls at all.

The generated text holds only list indices, integer constants, local
names made here and operator tokens from the fixed tables below; no
name or other text of the design reaches it.
"""

from __future__ import annotations

from ..frontend.ast import (
    Assignment, Binary, Case, Ident, If, Literal, Ternary, Unary, walk_stmts,
)
from ..frontend.elaborate import ElaboratedDesign

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
        self.lines: list[str] = []       # the function being written
        self.helpers: list[list[str]] = []
        self.temps = 0

    def fresh(self, prefix: str) -> str:
        self.temps += 1
        return f"{prefix}{self.temps}"

    # --- expressions --------------------------------------------------------

    def constant(self, expr):
        """The value of a literal or parameter at its evaluation width, or
        None for any other expression."""
        if isinstance(expr, Literal):
            return expr.value & _mask(expr.eval_width)
        if isinstance(expr, Ident) and expr.name in self.design.params:
            return self.design.params[expr.name][0] & _mask(expr.eval_width)
        return None

    def value(self, expr, pre: list[str], depth: int = 0) -> str:
        """Python expression for ``expr``'s value; statements that must
        run first (spilled subexpressions) are appended to ``pre``."""
        constant = self.constant(expr)
        if constant is not None:
            return str(constant)
        if isinstance(expr, Ident):
            return f"v[{self.index[expr.name]}]"
        if depth > _SPILL_DEPTH:
            temp = self.fresh("t")
            pre.append(f"{temp} = {self.value(expr, pre)}")
            return temp
        depth += 1
        if isinstance(expr, Binary):
            op = expr.op
            if op in _LOGIC or op in _COMPARE:
                return f"(1 if {self.cond(expr, pre, depth)} else 0)"
            left = self.value(expr.left, pre, depth)
            right = self.value(expr.right, pre, depth)
            mask = _mask(expr.eval_width)
            if op in _BITWISE:
                return f"({left} {_BITWISE[op]} {right})"
            if op in _WRAPPING:
                return f"(({left} {_WRAPPING[op]} {right}) & {mask})"
            if op == "<<":
                shift = self.constant(expr.right)
                if shift is not None:
                    if shift >= expr.eval_width:
                        return "0"
                    return f"(({left} << {right}) & {mask})"
                amount = self.fresh("r")
                return (f"((({left} << {amount}) & {mask}) "
                        f"if ({amount} := {right}) < {expr.eval_width} else 0)")
            raise ValueError(f"unknown operator {op}")
        if isinstance(expr, Unary):
            if expr.op == "!":
                return f"(0 if {self.cond(expr.operand, pre, depth)} else 1)"
            operand = self.value(expr.operand, pre, depth)
            sign = "~" if expr.op == "~" else "-"
            return f"({sign}{operand} & {_mask(expr.eval_width)})"
        if isinstance(expr, Ternary):
            cond = self.cond(expr.cond, pre, depth)
            then = self.value(expr.then, pre, depth)
            other = self.value(expr.other, pre, depth)
            return f"({then} if {cond} else {other})"
        raise TypeError(type(expr).__name__)

    def cond(self, expr, pre: list[str], depth: int = 0) -> str:
        """Python expression whose truth is that of ``expr`` being nonzero."""
        if depth > _SPILL_DEPTH:
            return self.value(expr, pre, depth)
        if isinstance(expr, Binary) and expr.op in _COMPARE:
            left = self.value(expr.left, pre, depth + 1)
            right = self.value(expr.right, pre, depth + 1)
            return f"({left} {_COMPARE[expr.op]} {right})"
        if isinstance(expr, Binary) and expr.op in _LOGIC:
            left = self.cond(expr.left, pre, depth + 1)
            right = self.cond(expr.right, pre, depth + 1)
            return f"({left} {_LOGIC[expr.op]} {right})"
        if isinstance(expr, Unary) and expr.op == "!":
            return f"(not {self.cond(expr.operand, pre, depth + 1)})"
        return self.value(expr, pre, depth)

    # --- statements ---------------------------------------------------------

    def emit(self, indent: int, text: str):
        self.lines.append("    " * indent + text)

    def stmt_hit(self, indent: int, stmt_id: int):
        if self.instrumented:
            self.emit(indent, f"S({stmt_id})")

    def arm_hit(self, indent: int, stmt_id: int, arm):
        if self.instrumented:
            self.emit(indent, f"A(({stmt_id}, {arm!r}))")

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
        self.stmt_hit(indent, stmt.stmt_id)
        pre: list[str] = []
        if isinstance(stmt, Assignment):
            value = self.value(stmt.expr, pre)
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
            self.arm_hit(indent + 1, stmt.stmt_id, "then")
            self.body(stmt.then_body, indent + 1, depth + 1)
            if stmt.else_body is not None or self.instrumented:
                self.emit(indent, "else:")
                self.arm_hit(indent + 1, stmt.stmt_id, "else")
                self.body(stmt.else_body or [], indent + 1, depth + 1)
        elif isinstance(stmt, Case):
            subject = self.fresh("c")
            pre.append(f"{subject} = {self.value(stmt.subject, pre)}")
            tests = [
                " or ".join(f"{subject} == {self.value(lbl, pre)}" for lbl in item.labels)
                for item in stmt.items
            ]
            for line in pre:
                self.emit(indent, line)
            for i, (item, test) in enumerate(zip(stmt.items, tests)):
                self.emit(indent, f"{'elif' if i else 'if'} {test}:")
                self.arm_hit(indent + 1, stmt.stmt_id, i)
                self.body(item.body, indent + 1, depth + 1)
            if stmt.default_body is not None:
                self.emit(indent, "else:" if stmt.items else "if True:")
                self.arm_hit(indent + 1, stmt.stmt_id, "default")
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
                value = self.value(item.expr, pre)
                target = self.index[item.target]
                self.stmt_hit(1, item.stmt_id)
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
        params = "S, A" if self.instrumented else ""
        processes = "".join(f"p{i}, " for i in range(len(design.seq_processes)))
        out = [f"def bind({params}):"]
        for function in self.helpers + functions:
            out.extend("    " + line for line in function)
        out.append(f"    return sweep, ({processes})")
        return "\n".join(out) + "\n"


def lowered_source(design: ElaboratedDesign, instrumented: bool) -> str:
    """The generated module text for one design and variant."""
    return _Writer(design, instrumented).module()


def lower(design: ElaboratedDesign, instrumented: bool = False):
    """The compiled ``bind`` of ``design``, built once per variant."""
    cache = design._lowered_cache
    if instrumented not in cache:
        code = compile(lowered_source(design, instrumented), "<lowered design>", "exec")
        namespace: dict = {"__builtins__": {}}
        exec(code, namespace)
        cache[instrumented] = namespace["bind"]
    return cache[instrumented]
