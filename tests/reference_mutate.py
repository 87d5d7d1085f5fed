"""Reference mutation-site enumeration for differential tests.

This is the site enumeration ``svloop.mutate`` used before sites came from
one expression walk and one statement walk: each operator had its own
process and statement loop, expressions were visited through callbacks,
BC08 tested every statement of a clocked process for membership in its
reset branch, and the FSM state names were recomputed from the AST.
``_collect_sites`` mirrors ``svloop.mutate._collect_sites`` and
``_state_constant_names`` mirrors ``svloop.frontend.elaborate.fsm_state_names``,
and ``_detect_fsm_registers`` is elaboration's older derivation of
``ElaboratedDesign.fsm_registers``.
"""

from __future__ import annotations

from svloop.frontend.ast import (
    AlwaysComb,
    AlwaysSeq,
    Assignment,
    Binary,
    Case,
    ContAssign,
    DesignAst,
    Ident,
    If,
    Literal,
    ParamDecl,
    Ternary,
    Unary,
    walk_stmts,
)
from svloop.frontend.elaborate import ElaboratedDesign
from svloop.frontend.signature import DesignSignature
from svloop.mutate import MutationOperator

_COMPARISON_SWAP = {"==": "!=", "!=": "==", "<": "<=", "<=": "<", ">": ">=", ">=": ">"}


def _expr_sites(expr, path, visit):
    visit(path, expr)
    if isinstance(expr, Unary):
        _expr_sites(expr.operand, path + ".operand", visit)
    elif isinstance(expr, Binary):
        _expr_sites(expr.left, path + ".left", visit)
        _expr_sites(expr.right, path + ".right", visit)
    elif isinstance(expr, Ternary):
        _expr_sites(expr.cond, path + ".cond", visit)
        _expr_sites(expr.then, path + ".then", visit)
        _expr_sites(expr.other, path + ".other", visit)


def _walk_design_exprs(ast: DesignAst, visit):
    """visit(path, node) over every expression in the design."""
    for i, item in enumerate(ast.items):
        base = f"item[{i}]"
        if isinstance(item, ParamDecl):
            _expr_sites(item.value, f"{base}.value", visit)
        elif isinstance(item, ContAssign):
            _expr_sites(item.expr, f"{base}.expr", visit)
        elif isinstance(item, (AlwaysComb, AlwaysSeq)):
            for j, stmt in enumerate(walk_stmts(item.body)):
                spath = f"{base}.stmt[{j}]"
                if isinstance(stmt, Assignment):
                    _expr_sites(stmt.expr, f"{spath}.expr", visit)
                elif isinstance(stmt, If):
                    _expr_sites(stmt.cond, f"{spath}.cond", visit)
                elif isinstance(stmt, Case):
                    _expr_sites(stmt.subject, f"{spath}.subject", visit)
                    for k, citem in enumerate(stmt.items):
                        for m, lbl in enumerate(citem.labels):
                            _expr_sites(lbl, f"{spath}.item[{k}].label[{m}]", visit)


def _seq_reset_bodies(ast: DesignAst):
    """(process index, reset branch body) pairs: the then-branch of a leading
    if in a clocked process (asynchronous style) or of a clock-only process
    (synchronous style)."""
    for i, item in enumerate(ast.items):
        if not isinstance(item, AlwaysSeq):
            continue
        if item.body and isinstance(item.body[0], If):
            yield i, item.body[0].then_body


def _negated(cond):
    return Unary("!", cond, line=cond.line, col=cond.col)


def _retargeted(expr, name):
    return Ident(name, line=expr.line, col=expr.col)


def _masked(value, lit):
    return value & ((1 << lit.size) - 1) if lit.size is not None else value


# --- the ten operators ---------------------------------------------------------

def _collect_sites(op: MutationOperator, ast: DesignAst, design: ElaboratedDesign,
                   signature: DesignSignature):
    """Enumerate applicable sites as ``(path, line, node, attribute, value)``:
    the mutant is ``ast`` with ``setattr(node, attribute, value)``."""
    sites = []
    bc = op.bc_id

    if bc == "BC01":
        def visit(path, expr):
            if isinstance(expr, Binary) and expr.op in ("&", "|"):
                new_op = "|" if expr.op == "&" else "&"
                sites.append((path, expr.line, expr, "op", new_op))
        _walk_design_exprs(ast, visit)

    elif bc == "BC02":
        def visit(path, expr):
            if isinstance(expr, Binary) and expr.op in _COMPARISON_SWAP:
                sites.append((path, expr.line, expr, "op", _COMPARISON_SWAP[expr.op]))
        _walk_design_exprs(ast, visit)

    elif bc == "BC03":
        for i, item in enumerate(ast.items):
            if isinstance(item, (AlwaysComb, AlwaysSeq)):
                for j, stmt in enumerate(walk_stmts(item.body)):
                    if isinstance(stmt, If):
                        sites.append((f"item[{i}].stmt[{j}].cond", stmt.line,
                                      stmt, "cond", _negated(stmt.cond)))
        def visit(path, expr):
            if isinstance(expr, Ternary):
                sites.append((path + ".cond", expr.line, expr, "cond", _negated(expr.cond)))
        _walk_design_exprs(ast, visit)

    elif bc == "BC04":
        def visit(path, expr):
            if isinstance(expr, Literal):
                span = expr.size if expr.size is not None else max(1, expr.value.bit_length())
                for bit in range(span):
                    sites.append((f"{path}^bit{bit}", expr.line, expr, "value",
                                  _masked(expr.value ^ (1 << bit), expr)))
        _walk_design_exprs(ast, visit)

    elif bc == "BC05":
        def visit(path, expr):
            if isinstance(expr, Literal):
                at_limit = expr.size is not None and expr.value + 1 > (1 << expr.size) - 1
                sites.append((path, expr.line, expr, "value",
                              expr.value - 1 if at_limit else expr.value + 1))
        _walk_design_exprs(ast, visit)

    elif bc == "BC06":
        constants = _state_constant_names(ast, design)
        for i, item in enumerate(ast.items):
            if not isinstance(item, AlwaysSeq):
                continue
            for j, stmt in enumerate(walk_stmts(item.body)):
                if (
                    isinstance(stmt, Assignment)
                    and stmt.target in constants
                    and isinstance(stmt.expr, Ident)
                    and stmt.expr.name in constants[stmt.target]
                ):
                    for replacement in constants[stmt.target]:
                        if replacement != stmt.expr.name:
                            sites.append((f"item[{i}].stmt[{j}].expr->{replacement}",
                                          stmt.line, stmt, "expr",
                                          _retargeted(stmt.expr, replacement)))

    elif bc == "BC07":
        for i, item in enumerate(ast.items):
            if not isinstance(item, AlwaysSeq):
                continue
            for j, stmt in enumerate(walk_stmts(item.body)):
                if isinstance(stmt, Case) and len(stmt.items) >= 2:
                    for k in range(len(stmt.items)):
                        sites.append((f"item[{i}].stmt[{j}].item[{k}]", stmt.items[k].line,
                                      stmt, "items", stmt.items[:k] + stmt.items[k + 1:]))

    elif bc == "BC08":
        constants = _state_constant_names(ast, design)
        for i, reset_body in _seq_reset_bodies(ast):
            for j, stmt in enumerate(walk_stmts(ast.items[i].body)):
                if not isinstance(stmt, Assignment):
                    continue
                if not _stmt_in(reset_body, stmt):
                    continue
                if isinstance(stmt.expr, Ident) and stmt.target in constants \
                        and stmt.expr.name in constants[stmt.target]:
                    for replacement in constants[stmt.target]:
                        if replacement != stmt.expr.name:
                            sites.append((f"item[{i}].stmt[{j}].expr->{replacement}",
                                          stmt.line, stmt, "expr",
                                          _retargeted(stmt.expr, replacement)))
                            break
                elif isinstance(stmt.expr, Literal):
                    sites.append((f"item[{i}].stmt[{j}].expr^1", stmt.line, stmt.expr,
                                  "value", _masked(stmt.expr.value ^ 1, stmt.expr)))

    elif bc == "BC09":
        for i, item in enumerate(ast.items):
            if isinstance(item, (AlwaysComb, AlwaysSeq)):
                for j, stmt in enumerate(walk_stmts(item.body)):
                    if isinstance(stmt, Assignment):
                        sites.append((f"item[{i}].stmt[{j}].blocking", stmt.line,
                                      stmt, "blocking", not stmt.blocking))

    elif bc == "BC10":
        clock = signature.clock
        if clock is not None:
            for i, item in enumerate(ast.items):
                if isinstance(item, AlwaysSeq):
                    for e, event in enumerate(item.events):
                        if event.signal == clock:
                            flipped = "negedge" if event.edge == "posedge" else "posedge"
                            sites.append((f"item[{i}].event[{e}]", event.line,
                                          event, "edge", flipped))

    else:
        raise ValueError(bc)
    return sites


def _stmt_in(body, stmt) -> bool:
    return any(s is stmt for s in walk_stmts(body))


def _state_constant_names(ast: DesignAst, design: ElaboratedDesign) -> dict[str, list[str]]:
    """State register -> stable list of parameter names it is assigned from."""
    param_names = {p.name for p in ast.params}
    collected: dict[str, list[str]] = {}
    for item in ast.items:
        if not isinstance(item, AlwaysSeq):
            continue
        for stmt in walk_stmts(item.body):
            if isinstance(stmt, Assignment) and stmt.target in design.fsm_registers:
                names = collected.setdefault(stmt.target, [])
                for node in _constant_idents(stmt.expr, stmt.target, param_names):
                    if node not in names:
                        names.append(node)
    return collected


def _constant_idents(expr, reg, param_names):
    if isinstance(expr, Ident):
        if expr.name in param_names:
            yield expr.name
    elif isinstance(expr, Ternary):
        yield from _constant_idents(expr.then, reg, param_names)
        yield from _constant_idents(expr.other, reg, param_names)


# --- FSM detection, as elaboration did it ------------------------------------

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
