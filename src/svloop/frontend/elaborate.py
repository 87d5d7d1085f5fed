"""Elaboration: resolve parameters and declared widths, classify
processes, fix evaluation order, and precompute the tables the simulator
consumes. Elaboration reads the parse and writes nothing onto it:
lowering numbers the statements for coverage.

Semantics are two-valued (0/1, no X/Z); registers initialize to 0.
All arithmetic is unsigned with Verilog-style context widening and
silent truncation on assignment: ``self_width`` gives an expression's
self-determined width, and lowering widens it by context where it masks
the value.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple

from ..errors import (
    CombinationalLoop,
    ElaborationError,
    MultipleDrivers,
    WidthMismatch,
)
from .ast import (
    AlwaysComb,
    AlwaysSeq,
    Assignment,
    Binary,
    ContAssign,
    DesignAst,
    DesignSource,
    Ident,
    Literal,
    NetDecl,
    ParamDecl,
    Ternary,
    Unary,
    idents_in,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
)
from .parser import parse_design


@dataclass
class SignalInfo:
    name: str
    width: int
    kind: str          # wire | reg | logic
    direction: str     # input | output | internal


@dataclass
class ElaboratedDesign:
    name: str
    source: DesignSource
    params: dict[str, tuple[int, int]]            # name -> (value, width)
    signals: dict[str, SignalInfo]
    input_ports: list[str]
    output_ports: list[str]
    cont_assigns: list[ContAssign]
    comb_processes: list[AlwaysComb]
    seq_processes: list[AlwaysSeq]
    comb_order: list[tuple[str, int]]             # ("assign" | "comb", index)
    fsm_registers: dict[str, list[int]]           # state reg -> sorted constant values
    _lowered_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def is_sequential(self) -> bool:
        return bool(self.seq_processes)

    def __getstate__(self):
        # the cache holds generated functions, which do not pickle; a copy rebuilds it
        return {**self.__dict__, "_lowered_cache": {}}


class _Node(NamedTuple):
    """One driving item in elaboration's node table."""
    key: tuple[str, int]        # ("assign" | "comb" | "seq", index)
    driver: str                 # the item as the single-driver rule names it
    line: int
    writes: set[str]
    reads: set[str] | None      # None for a clocked process, whose reads order nothing


# The widest port, net, parameter or sized literal a design may declare,
# and the largest constant shift. VerilogEval's widest vectors are about
# 1,024 bits. 2**4096 has 1,234 decimal digits, so every mask and constant
# that lowering writes in decimal stays below Python's 4,300-digit
# int-to-str limit, and no width can make the simulator allocate gigabytes.
MAX_WIDTH = 4096


def mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


# --- widths and constants -----------------------------------------------------

def self_width(expr, widths: dict[str, int]) -> int:
    """The self-determined width of ``expr``, given each signal's and
    parameter's width; lowering widens it by context."""
    if isinstance(expr, Literal):
        return expr.self_width
    if isinstance(expr, Ident):
        return widths[expr.name]
    if isinstance(expr, Unary):
        if expr.op == "!":
            return 1
        return self_width(expr.operand, widths)
    if isinstance(expr, Binary):
        if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            return 1
        if expr.op in ("<<", ">>"):
            return self_width(expr.left, widths)
        return max(self_width(expr.left, widths), self_width(expr.right, widths))
    if isinstance(expr, Ternary):
        return max(self_width(expr.then, widths), self_width(expr.other, widths))
    raise TypeError(type(expr).__name__)


def constant_value(expr, params: dict[str, tuple[int, int]]) -> int | None:
    """The value of a literal or parameter, or None for anything else."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Ident) and expr.name in params:
        return params[expr.name][0]
    return None


def _check_literals(expr, line_hint=0):
    for sub in walk_exprs(expr):
        if isinstance(sub, Literal) and sub.size is None and sub.self_width > MAX_WIDTH:
            raise WidthMismatch(f"unsized literal of {sub.self_width} bits exceeds the "
                                f"{MAX_WIDTH}-bit limit", sub.line or line_hint, sub.col)
        if isinstance(sub, Literal) and sub.size is not None:
            if sub.size < 1:
                raise WidthMismatch("literal size must be positive", sub.line or line_hint, sub.col)
            if sub.size > MAX_WIDTH:
                raise WidthMismatch(f"literal size exceeds the {MAX_WIDTH}-bit limit",
                                    sub.line or line_hint, sub.col)
            if sub.value.bit_length() > sub.size:
                raise WidthMismatch(
                    f"literal value of {sub.value.bit_length()} bits does not fit in "
                    f"{sub.size} bits",
                    sub.line or line_hint,
                    sub.col,
                )


# --- constant evaluation for parameters and ranges ---------------------------

def _const_eval(expr, params: dict[str, tuple[int, int]], what: str) -> int:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Ident):
        if expr.name not in params:
            raise ElaborationError(
                f"{what} references non-constant {expr.name!r}", expr.line, expr.col
            )
        return params[expr.name][0]
    if isinstance(expr, Unary):
        val = _const_eval(expr.operand, params, what)
        if expr.op == "-":
            return -val
        if expr.op == "~":
            return ~val
        if expr.op == "!":
            return int(val == 0)
    if isinstance(expr, Binary):
        left = _const_eval(expr.left, params, what)
        right = _const_eval(expr.right, params, what)
        if expr.op in ("<<", ">>") and not 0 <= right <= MAX_WIDTH:
            raise WidthMismatch(f"{what} shifts by an amount outside 0..{MAX_WIDTH}",
                                expr.line, expr.col)
        ops = {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "&": lambda: left & right,
            "|": lambda: left | right,
            "^": lambda: left ^ right,
            "<<": lambda: left << right,
            ">>": lambda: left >> right,
            "==": lambda: int(left == right),
            "!=": lambda: int(left != right),
            "<": lambda: int(left < right),
            "<=": lambda: int(left <= right),
            ">": lambda: int(left > right),
            ">=": lambda: int(left >= right),
            "&&": lambda: int(bool(left) and bool(right)),
            "||": lambda: int(bool(left) or bool(right)),
        }
        if expr.op in ops:
            return ops[expr.op]()
    if isinstance(expr, Ternary):
        cond = _const_eval(expr.cond, params, what)
        return _const_eval(expr.then if cond else expr.other, params, what)
    raise ElaborationError(f"{what} is not a constant expression", getattr(expr, "line", 0), 0)


def _resolve_width(msb, lsb, params, owner: str, line: int) -> int:
    if msb is None:
        return 1
    msb_v = _const_eval(msb, params, f"range bound of {owner!r}")
    lsb_v = _const_eval(lsb, params, f"range bound of {owner!r}")
    if max(abs(msb_v), abs(lsb_v)).bit_length() > MAX_WIDTH:
        raise WidthMismatch(f"range bound of {owner!r} is wider than {MAX_WIDTH} bits", line, 0)
    if msb_v < lsb_v or lsb_v < 0:
        raise WidthMismatch(f"invalid range [{msb_v}:{lsb_v}] for {owner!r}", line, 0)
    if msb_v - lsb_v >= MAX_WIDTH:
        raise WidthMismatch(f"{owner!r} is wider than the {MAX_WIDTH}-bit limit", line, 0)
    _check_literals(msb, line)
    _check_literals(lsb, line)
    return msb_v - lsb_v + 1


# --- FSM state register detection ---------------------------------------------

def _rhs_constant_names(expr, reg: str, params) -> list[str] | None:
    """Parameter names a register RHS can resolve to, in order of
    appearance, or None if not a closed constant set. A self-reference
    contributes nothing (hold)."""
    if isinstance(expr, Ident):
        if expr.name == reg:
            return []
        if expr.name in params:
            return [expr.name]
        return None
    if isinstance(expr, Ternary):
        then = _rhs_constant_names(expr.then, reg, params)
        other = _rhs_constant_names(expr.other, reg, params)
        if then is None or other is None:
            return None
        return then + other
    return None


def fsm_state_names(seq_processes, params) -> dict[str, list[str]]:
    """State register -> the parameter names it is assigned from, in order of
    first appearance. A state register is one whose every clocked assignment
    is a closed constant set, with at least two names between them."""
    assigned: dict[str, list] = {}
    for proc in seq_processes:
        for stmt in walk_stmts(proc.body):
            if isinstance(stmt, Assignment):
                assigned.setdefault(stmt.target, []).append(stmt.expr)
    result = {}
    for reg, exprs in assigned.items():
        names: dict[str, None] = {}
        for expr in exprs:
            sub = _rhs_constant_names(expr, reg, params)
            if sub is None:
                names = {}
                break
            names.update(dict.fromkeys(sub))
        if len(names) >= 2:
            result[reg] = list(names)
    return result


# --- main entry ---------------------------------------------------------------

def elaborate(ast: DesignAst, source: DesignSource) -> ElaboratedDesign:
    """Resolve a parsed design into an executable form.

    The returned design shares the nodes of ``ast`` and writes nothing
    onto them, so ``ast`` stays as parsed; parameters stay identifiers,
    valued in ``params``.
    """
    params: dict[str, tuple[int, int]] = {}
    for item in ast.items:
        if isinstance(item, ParamDecl):
            value = _const_eval(item.value, params, f"parameter {item.name!r}")
            if isinstance(item.value, Literal) and item.value.size is not None:
                width = item.value.size
            else:
                width = max(1, value.bit_length()) if value >= 0 else 32
            if width > MAX_WIDTH:
                raise WidthMismatch(f"parameter {item.name!r} is wider than the "
                                    f"{MAX_WIDTH}-bit limit", item.line, 0)
            _check_literals(item.value, item.line)
            params[item.name] = (mask(value, width) if value >= 0 else mask(value, 32), width)

    signals: dict[str, SignalInfo] = {}
    input_ports: list[str] = []
    output_ports: list[str] = []
    for port in ast.ports:
        width = _resolve_width(port.msb, port.lsb, params, port.name, port.line)
        kind = "reg" if port.is_reg else "wire"
        signals[port.name] = SignalInfo(port.name, width, kind, port.direction)
        (input_ports if port.direction == "input" else output_ports).append(port.name)
    for item in ast.items:
        if isinstance(item, NetDecl):
            width = _resolve_width(item.msb, item.lsb, params, item.name, item.line)
            signals[item.name] = SignalInfo(item.name, width, item.kind, "internal")

    cont_assigns = [it for it in ast.items if isinstance(it, ContAssign)]
    comb_processes = [it for it in ast.items if isinstance(it, AlwaysComb)]
    seq_processes = [it for it in ast.items if isinstance(it, AlwaysSeq)]

    fsm_registers = {reg: sorted({params[n][0] for n in names})
                     for reg, names in fsm_state_names(seq_processes, params).items()}

    # one walk per item: check each statement and enter the item in the
    # node table
    nodes: list[_Node] = []
    for i, item in enumerate(cont_assigns):
        if item.target not in signals:
            raise ElaborationError(f"assignment to non-signal {item.target!r}", item.line, 0)
        if signals[item.target].kind == "reg":
            raise ElaborationError(f"continuous assignment to reg {item.target!r}", item.line, 0)
        _check_literals(item.expr, item.line)
        nodes.append(_Node(("assign", i), f"assign #{i + 1}", item.line, {item.target},
                           set(idents_in(item.expr))))
    for kind, label, procs in (("comb", "combinational process", comb_processes),
                               ("seq", "clocked process", seq_processes)):
        for i, proc in enumerate(procs):
            writes: set[str] = set()
            reads = set() if kind == "comb" else None
            for stmt in walk_stmts(proc.body):
                for expr in stmt_exprs(stmt):
                    _check_literals(expr, stmt.line)
                    if reads is not None:
                        reads.update(idents_in(expr))
                if isinstance(stmt, Assignment):
                    if stmt.target not in signals:
                        raise ElaborationError(f"assignment to non-signal {stmt.target!r}",
                                               stmt.line, 0)
                    if signals[stmt.target].kind == "wire":
                        raise ElaborationError(f"procedural assignment to wire {stmt.target!r}",
                                               stmt.line, 0)
                    writes.add(stmt.target)
            nodes.append(_Node((kind, i), f"{label} #{i + 1}", proc.line, writes, reads))

    # sequential process sanity
    for proc in seq_processes:
        if not proc.events:
            raise ElaborationError("clocked process without edge events", proc.line, 0)
        seen = set()
        for event in proc.events:
            if event.signal in seen:
                raise ElaborationError(
                    f"duplicate edge event on {event.signal!r}", event.line, 0
                )
            seen.add(event.signal)
            info = signals.get(event.signal)
            if info is None or info.direction != "input" or info.width != 1:
                raise ElaborationError(
                    f"edge event on {event.signal!r} requires a 1-bit input", event.line, 0
                )

    # single-driver rule
    drivers: dict[str, int] = {}        # signal -> index of its node
    for idx, node in enumerate(nodes):
        for name in sorted(node.writes):
            if signals[name].direction == "input":
                raise MultipleDrivers(f"input port {name!r} driven by {node.driver}",
                                      node.line, 0)
            if name in drivers:
                raise MultipleDrivers(f"signal {name!r} driven by both "
                                      f"{nodes[drivers[name]].driver} and {node.driver}",
                                      node.line, 0)
            drivers[name] = idx

    # combinational nodes, which come first in the table, in the
    # lowest-index-first topological order of their dependencies
    comb = [node for node in nodes if node.reads is not None]
    succs: list[list[int]] = [[] for _ in comb]
    indegree = [0] * len(comb)
    for idx, node in enumerate(comb):
        if looped := node.writes & node.reads:
            raise CombinationalLoop(
                f"combinational construct depends on its own output {min(looped)!r}",
                node.line, 0,
            )
        for src in {drivers[name] for name in node.reads if name in drivers}:
            if src < len(comb):         # a clocked process's output is no dependency
                succs[src].append(idx)
                indegree[idx] += 1
    ready = [idx for idx, n in enumerate(indegree) if n == 0]    # sorted, so a heap
    order: list[int] = []
    while ready:
        idx = heapq.heappop(ready)
        order.append(idx)
        for succ in succs[idx]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != len(comb):
        stuck = [comb[idx] for idx, n in enumerate(indegree) if n]
        names = sorted(name for node in stuck for name in node.writes)
        raise CombinationalLoop(f"combinational loop through {', '.join(names)}",
                                stuck[0].line, 0)

    return ElaboratedDesign(
        name=ast.name,
        source=source,
        params=params,
        signals=signals,
        input_ports=input_ports,
        output_ports=output_ports,
        cont_assigns=cont_assigns,
        comb_processes=comb_processes,
        seq_processes=seq_processes,
        comb_order=[comb[idx].key for idx in order],
        fsm_registers=fsm_registers,
    )


def elaborate_source(source: DesignSource | str) -> ElaboratedDesign:
    """Parse and elaborate in one step."""
    if isinstance(source, str):
        source = DesignSource(source)
    return elaborate(parse_design(source), source)
