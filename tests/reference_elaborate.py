"""Reference elaboration for differential tests of ``svloop.frontend.elaborate``.

This is ``elaborate`` as it was before each item's statements were walked
once into one node table: the width checks, the single-driver rule, the
dependency graph, the evaluation order and the coverage inventory each
walked the items again, through ``reads_of`` and ``writes_of``. Its code
is unchanged apart from its imports and three edits. The self-read check
visits a node's reads in sorted order, where it took whatever order the
set of names gave, so the signal it names no longer depends on
``PYTHONHASHSEED``. A parameter's literals are checked after its width,
as in ``elaborate``, so an unsized literal past the width cap is named
as the parameter it makes. The context-width annotation moved out of it
into ``annotate_widths``, and the coverage inventory into
``number_statements``, because lowering now works out each width and
numbers each statement itself, and elaboration writes nothing onto the
tree. ``elaborate`` mirrors ``svloop.frontend.elaborate.elaborate``.
"""

from __future__ import annotations

from svloop.errors import CombinationalLoop, ElaborationError, MultipleDrivers, WidthMismatch
from svloop.frontend.ast import (
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
    stmt_exprs,
    walk_stmts,
)
from svloop.frontend.elaborate import (
    MAX_WIDTH,
    ElaboratedDesign,
    SignalInfo,
    _check_literals,
    _const_eval,
    _resolve_width,
    fsm_state_names,
    mask,
)


# --- the context-width rule, as elaboration applied it before lowering ---------
# ``_self_width``, ``_annotate`` and ``_annotate_assignment_expr`` are copied
# unchanged from the elaboration that wrote each expression's width onto the
# tree as ``eval_width``; ``reference_sim`` reads those widths, so every
# differential test checks the widths lowering works out against this rule.

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


def annotate_widths(design: ElaboratedDesign):
    """Write every expression's context-determined evaluation width onto
    ``design``'s tree as ``eval_width``."""
    widths = {name: info.width for name, info in design.signals.items()}
    widths.update({name: w for name, (_, w) in design.params.items()})
    for item in design.cont_assigns:
        _annotate_assignment_expr(item.expr, widths[item.target], widths)
    for proc in design.comb_processes + design.seq_processes:
        for stmt in walk_stmts(proc.body):
            if isinstance(stmt, Assignment):
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


# --- the coverage inventory, as elaboration numbered it before lowering ------
# Its loops are copied unchanged from the elaboration that wrote each
# statement's id onto the tree as ``stmt_id``; ``reference_sim`` reads those
# ids, and ``test_compiled`` checks lowering's probes against this numbering.

def number_statements(design: ElaboratedDesign) -> tuple[list[int], list[tuple]]:
    """Write each statement's coverage id onto ``design``'s tree as
    ``stmt_id``; ``(statement_lines, branch_arms)``: each id's source line
    and every branch arm's ``(id, arm)``."""
    # statement and branch-arm inventories for coverage; a statement's id is
    # its index in statement_lines
    statement_lines: list[int] = []
    branch_arms: list[tuple] = []
    for item in design.cont_assigns:
        item.stmt_id = len(statement_lines)
        statement_lines.append(item.line)
    for proc in design.comb_processes + design.seq_processes:
        for stmt in walk_stmts(proc.body):
            stmt.stmt_id = sid = len(statement_lines)
            statement_lines.append(stmt.line)
            if isinstance(stmt, If):
                branch_arms.append((sid, "then"))
                branch_arms.append((sid, "else"))
            elif isinstance(stmt, Case):
                for i in range(len(stmt.items)):
                    branch_arms.append((sid, i))
                if stmt.default_body is not None:
                    branch_arms.append((sid, "default"))
    return statement_lines, branch_arms


def reads_of(body: list[Stmt]):
    """All identifiers read anywhere in a statement body."""
    for stmt in walk_stmts(body):
        for expr in stmt_exprs(stmt):
            yield from idents_in(expr)


def writes_of(body: list[Stmt]):
    for stmt in walk_stmts(body):
        if isinstance(stmt, Assignment):
            yield stmt.target


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

    # width checks
    for item in cont_assigns:
        if item.target not in signals:
            raise ElaborationError(f"assignment to non-signal {item.target!r}", item.line, 0)
        if signals[item.target].kind == "reg":
            raise ElaborationError(
                f"continuous assignment to reg {item.target!r}", item.line, 0
            )
        _check_literals(item.expr, item.line)
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
        for name in sorted(node_reads[idx]):
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
        fsm_registers=fsm_registers,
    )


def _node_line(node, cont_assigns, comb_processes):
    kind, i = node
    return cont_assigns[i].line if kind == "assign" else comb_processes[i].line
