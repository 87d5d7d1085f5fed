"""Elaboration: resolve parameters and widths, classify processes, fix
evaluation order, and precompute the tables the simulator consumes.

Semantics are two-valued (0/1, no X/Z); registers initialize to 0.
All arithmetic is unsigned with Verilog-style context widening and
silent truncation on assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    Case,
    ContAssign,
    DesignAst,
    DesignSource,
    Ident,
    If,
    Literal,
    NetDecl,
    ParamDecl,
    Ternary,
    Unary,
    idents_in,
    reads_of,
    stmt_exprs,
    walk_exprs,
    walk_stmts,
    writes_of,
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
    statement_ids: list[int]
    branch_arms: list[tuple]
    fsm_registers: dict[str, list[int]]           # state reg -> sorted constant values
    _signature_cache: object = field(default=None, repr=False, compare=False)
    _lowered_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def is_sequential(self) -> bool:
        return bool(self.seq_processes)


def mask(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


# --- width computation -------------------------------------------------------

def _self_width(expr, widths: dict[str, int]) -> int:
    if isinstance(expr, Literal):
        return expr.self_width
    if isinstance(expr, Ident):
        return widths[expr.name]
    if isinstance(expr, Unary):
        if expr.op == "!":
            return 1
        return _self_width(expr.operand, widths)
    if isinstance(expr, Binary):
        if expr.op in ("==", "!=", "<", "<=", ">", ">=", "&&", "||"):
            return 1
        if expr.op in ("<<", ">>"):
            return _self_width(expr.left, widths)
        return max(_self_width(expr.left, widths), _self_width(expr.right, widths))
    if isinstance(expr, Ternary):
        return max(_self_width(expr.then, widths), _self_width(expr.other, widths))
    raise TypeError(type(expr).__name__)


def _annotate(expr, ctx: int, widths: dict[str, int]):
    """Record the context-determined evaluation width on every node."""
    if isinstance(expr, (Literal, Ident)):
        expr.eval_width = ctx
    elif isinstance(expr, Unary):
        if expr.op == "!":
            expr.eval_width = 1
            _annotate(expr.operand, _self_width(expr.operand, widths), widths)
        else:
            expr.eval_width = ctx
            _annotate(expr.operand, ctx, widths)
    elif isinstance(expr, Binary):
        if expr.op in ("==", "!=", "<", "<=", ">", ">="):
            expr.eval_width = 1
            opw = max(_self_width(expr.left, widths), _self_width(expr.right, widths))
            _annotate(expr.left, opw, widths)
            _annotate(expr.right, opw, widths)
        elif expr.op in ("&&", "||"):
            expr.eval_width = 1
            _annotate(expr.left, _self_width(expr.left, widths), widths)
            _annotate(expr.right, _self_width(expr.right, widths), widths)
        elif expr.op in ("<<", ">>"):
            expr.eval_width = ctx
            _annotate(expr.left, ctx, widths)
            _annotate(expr.right, _self_width(expr.right, widths), widths)
        else:
            expr.eval_width = ctx
            _annotate(expr.left, ctx, widths)
            _annotate(expr.right, ctx, widths)
    elif isinstance(expr, Ternary):
        expr.eval_width = ctx
        _annotate(expr.cond, _self_width(expr.cond, widths), widths)
        _annotate(expr.then, ctx, widths)
        _annotate(expr.other, ctx, widths)
    else:
        raise TypeError(type(expr).__name__)


def _annotate_assignment_expr(expr, target_width: int, widths: dict[str, int]):
    ctx = max(target_width, _self_width(expr, widths))
    _annotate(expr, ctx, widths)


def _check_literals(expr, line_hint=0):
    for sub in walk_exprs(expr):
        if isinstance(sub, Literal) and sub.size is not None:
            if sub.size < 1:
                raise WidthMismatch("literal size must be positive", sub.line or line_hint, sub.col)
            if sub.value >= (1 << sub.size):
                raise WidthMismatch(
                    f"literal value {sub.value} does not fit in {sub.size} bits",
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
    if msb_v < lsb_v or lsb_v < 0:
        raise WidthMismatch(f"invalid range [{msb_v}:{lsb_v}] for {owner!r}", line, 0)
    return msb_v - lsb_v + 1


# --- FSM state register detection ---------------------------------------------

def _rhs_constant_names(expr, reg: str, params) -> set[str] | None:
    """Parameter names a register RHS can resolve to, or None if not a
    closed constant set. A self-reference contributes nothing (hold)."""
    if isinstance(expr, Ident):
        if expr.name == reg:
            return set()
        if expr.name in params:
            return {expr.name}
        return None
    if isinstance(expr, Ternary):
        then = _rhs_constant_names(expr.then, reg, params)
        other = _rhs_constant_names(expr.other, reg, params)
        if then is None or other is None:
            return None
        return then | other
    return None


def _detect_fsm_registers(seq_processes, params) -> dict[str, list[int]]:
    assigned: dict[str, list] = {}
    for proc in seq_processes:
        for stmt in walk_stmts(proc.body):
            if isinstance(stmt, Assignment):
                assigned.setdefault(stmt.target, []).append(stmt.expr)
    result = {}
    for reg, exprs in assigned.items():
        names: set[str] = set()
        closed = True
        for expr in exprs:
            sub = _rhs_constant_names(expr, reg, params)
            if sub is None:
                closed = False
                break
            names |= sub
        if closed and len(names) >= 2:
            result[reg] = sorted({params[n][0] for n in names})
    return result


# --- main entry ---------------------------------------------------------------

def elaborate(ast: DesignAst, source: DesignSource | None = None) -> ElaboratedDesign:
    """Resolve a parsed design into an executable form.

    Elaboration consumes ``ast``: parameters are folded into its
    expressions and widths and statement ids are written onto its nodes,
    which the returned design then shares. Pass a parse that nothing
    else reads afterwards.
    """
    if source is None:
        from .printer import ast_to_source

        source = DesignSource(ast_to_source(ast), "reference")

    params: dict[str, tuple[int, int]] = {}
    for item in ast.items:
        if isinstance(item, ParamDecl):
            value = _const_eval(item.value, params, f"parameter {item.name!r}")
            _check_literals(item.value, item.line)
            if isinstance(item.value, Literal) and item.value.size is not None:
                width = item.value.size
            else:
                width = max(1, value.bit_length()) if value >= 0 else 32
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

    widths = {name: info.width for name, info in signals.items()}
    widths.update({name: w for name, (_, w) in params.items()})

    cont_assigns = [it for it in ast.items if isinstance(it, ContAssign)]
    comb_processes = [it for it in ast.items if isinstance(it, AlwaysComb)]
    seq_processes = [it for it in ast.items if isinstance(it, AlwaysSeq)]

    # substitute parameter identifiers so the evaluator only sees signals
    def fold_params(expr):
        if isinstance(expr, Ident) and expr.name in params:
            value, width = params[expr.name]
            base = "d"
            return Literal(value, width, base, line=expr.line, col=expr.col)
        if isinstance(expr, Unary):
            expr.operand = fold_params(expr.operand)
        elif isinstance(expr, Binary):
            expr.left = fold_params(expr.left)
            expr.right = fold_params(expr.right)
        elif isinstance(expr, Ternary):
            expr.cond = fold_params(expr.cond)
            expr.then = fold_params(expr.then)
            expr.other = fold_params(expr.other)
        return expr

    # FSM detection must see parameter identifiers, so run it pre-folding
    fsm_registers = _detect_fsm_registers(seq_processes, params)

    for item in cont_assigns:
        item.expr = fold_params(item.expr)
    for proc in comb_processes + seq_processes:
        for stmt in walk_stmts(proc.body):
            if isinstance(stmt, Assignment):
                stmt.expr = fold_params(stmt.expr)
            elif isinstance(stmt, If):
                stmt.cond = fold_params(stmt.cond)
            elif isinstance(stmt, Case):
                stmt.subject = fold_params(stmt.subject)
                for citem in stmt.items:
                    citem.labels = [fold_params(lbl) for lbl in citem.labels]

    # width checks, context annotation
    for item in cont_assigns:
        if item.target not in signals:
            raise ElaborationError(f"assignment to non-signal {item.target!r}", item.line, 0)
        if signals[item.target].kind == "reg":
            raise ElaborationError(
                f"continuous assignment to reg {item.target!r}", item.line, 0
            )
        _check_literals(item.expr, item.line)
        _annotate_assignment_expr(item.expr, widths[item.target], widths)
    for proc in comb_processes + seq_processes:
        for stmt in walk_stmts(proc.body):
            for expr in stmt_exprs(stmt):
                _check_literals(expr, stmt.line)
            if isinstance(stmt, Assignment):
                if stmt.target not in signals:
                    raise ElaborationError(
                        f"assignment to non-signal {stmt.target!r}", stmt.line, 0
                    )
                if signals[stmt.target].kind == "wire":
                    raise ElaborationError(
                        f"procedural assignment to wire {stmt.target!r}", stmt.line, 0
                    )
                _annotate_assignment_expr(stmt.expr, widths[stmt.target], widths)
            elif isinstance(stmt, If):
                _annotate(stmt.cond, _self_width(stmt.cond, widths), widths)
            elif isinstance(stmt, Case):
                opw = _self_width(stmt.subject, widths)
                for citem in stmt.items:
                    for lbl in citem.labels:
                        opw = max(opw, _self_width(lbl, widths))
                _annotate(stmt.subject, opw, widths)
                for citem in stmt.items:
                    for lbl in citem.labels:
                        _annotate(lbl, opw, widths)

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
    drivers: dict[str, str] = {}

    def claim(name: str, who: str, line: int):
        if signals[name].direction == "input":
            raise MultipleDrivers(f"input port {name!r} driven by {who}", line, 0)
        if name in drivers:
            raise MultipleDrivers(
                f"signal {name!r} driven by both {drivers[name]} and {who}", line, 0
            )
        drivers[name] = who

    for i, item in enumerate(cont_assigns):
        claim(item.target, f"assign #{i + 1}", item.line)
    for i, proc in enumerate(comb_processes):
        for name in sorted(set(writes_of(proc.body))):
            claim(name, f"combinational process #{i + 1}", proc.line)
    for i, proc in enumerate(seq_processes):
        for name in sorted(set(writes_of(proc.body))):
            claim(name, f"clocked process #{i + 1}", proc.line)

    # combinational dependency graph and evaluation order
    nodes: list[tuple[str, int]] = []
    node_writes: dict[int, set[str]] = {}
    node_reads: dict[int, set[str]] = {}
    for i, item in enumerate(cont_assigns):
        idx = len(nodes)
        nodes.append(("assign", i))
        node_writes[idx] = {item.target}
        node_reads[idx] = set(idents_in(item.expr))
    for i, proc in enumerate(comb_processes):
        idx = len(nodes)
        nodes.append(("comb", i))
        node_writes[idx] = set(writes_of(proc.body))
        node_reads[idx] = set(reads_of(proc.body))

    producers: dict[str, int] = {}
    for idx in range(len(nodes)):
        for name in node_writes[idx]:
            producers[name] = idx
    edges: dict[int, set[int]] = {idx: set() for idx in range(len(nodes))}
    indegree = [0] * len(nodes)
    for idx in range(len(nodes)):
        for name in node_reads[idx]:
            src = producers.get(name)
            if src is not None:
                if src == idx:
                    raise CombinationalLoop(
                        f"combinational construct depends on its own output {name!r}",
                        _node_line(nodes[idx], cont_assigns, comb_processes), 0,
                    )
                if idx not in edges[src]:
                    edges[src].add(idx)
                    indegree[idx] += 1
    ready = sorted(idx for idx in range(len(nodes)) if indegree[idx] == 0)
    order: list[int] = []
    while ready:
        idx = ready.pop(0)
        order.append(idx)
        for succ in sorted(edges[idx]):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
        ready.sort()
    if len(order) != len(nodes):
        stuck = [idx for idx in range(len(nodes)) if idx not in order]
        line = _node_line(nodes[stuck[0]], cont_assigns, comb_processes)
        names = sorted(n for idx in stuck for n in node_writes[idx])
        raise CombinationalLoop(f"combinational loop through {', '.join(names)}", line, 0)
    comb_order = [nodes[idx] for idx in order]

    # statement and branch-arm inventories for coverage
    statement_ids: list[int] = []
    branch_arms: list[tuple] = []
    counter = 0
    for item in cont_assigns:
        item.stmt_id = counter
        statement_ids.append(counter)
        counter += 1
    for proc in comb_processes + seq_processes:
        for stmt in walk_stmts(proc.body):
            stmt.stmt_id = counter
            statement_ids.append(counter)
            if isinstance(stmt, If):
                branch_arms.append((counter, "then"))
                branch_arms.append((counter, "else"))
            elif isinstance(stmt, Case):
                for i in range(len(stmt.items)):
                    branch_arms.append((counter, i))
                if stmt.default_body is not None:
                    branch_arms.append((counter, "default"))
            counter += 1

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
        comb_order=comb_order,
        statement_ids=statement_ids,
        branch_arms=branch_arms,
        fsm_registers=fsm_registers,
    )


def _node_line(node, cont_assigns, comb_processes):
    kind, i = node
    return cont_assigns[i].line if kind == "assign" else comb_processes[i].line


def elaborate_source(source: DesignSource | str) -> ElaboratedDesign:
    """Parse and elaborate in one step."""
    if isinstance(source, str):
        source = DesignSource(source)
    return elaborate(parse_design(source), source)
