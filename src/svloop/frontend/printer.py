"""Canonical source emitter for parsed designs.

Re-parsing the emitted text yields a structurally equal AST; mutants are
emitted through this printer so a reference/mutant diff touches only the
mutated site.
"""

from __future__ import annotations

from .ast import (
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
    NetDecl,
    PRECEDENCE,
    ParamDecl,
    Ternary,
    UNARY_PRECEDENCE,
    Unary,
)


def expr_to_source(expr, parent_prec=0) -> str:
    if isinstance(expr, Literal):
        return literal_to_source(expr)
    if isinstance(expr, Ident):
        return expr.name
    if isinstance(expr, Unary):
        inner = expr_to_source(expr.operand, UNARY_PRECEDENCE)
        text = f"{expr.op}{inner}"
        prec = UNARY_PRECEDENCE
    elif isinstance(expr, Binary):
        prec = PRECEDENCE[expr.op]
        left = expr_to_source(expr.left, prec)
        right = expr_to_source(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
    elif isinstance(expr, Ternary):
        prec = PRECEDENCE["?:"]
        cond = expr_to_source(expr.cond, prec + 1)
        then = expr_to_source(expr.then, prec)
        other = expr_to_source(expr.other, prec)
        text = f"{cond} ? {then} : {other}"
    else:
        raise TypeError(f"unknown expression node {type(expr).__name__}")
    if prec < parent_prec:
        return f"({text})"
    return text


def literal_to_source(lit: Literal) -> str:
    if lit.size is None:
        if lit.base == "b":
            return f"'b{lit.value:b}"
        if lit.base == "h":
            return f"'h{lit.value:x}"
        return str(lit.value)
    if lit.base == "b":
        return f"{lit.size}'b{lit.value:0{lit.size}b}"
    if lit.base == "h":
        return f"{lit.size}'h{lit.value:x}"
    return f"{lit.size}'d{lit.value}"


def _range_text(msb, lsb) -> str:
    if msb is None:
        return ""
    return f"[{expr_to_source(msb)}:{expr_to_source(lsb)}] "


def _stmt_lines(stmt, indent: str, out: list[str]):
    if isinstance(stmt, Assignment):
        op = "=" if stmt.blocking else "<="
        out.append(f"{indent}{stmt.target} {op} {expr_to_source(stmt.expr)};")
    elif isinstance(stmt, If):
        out.append(f"{indent}if ({expr_to_source(stmt.cond)}) begin")
        for inner in stmt.then_body:
            _stmt_lines(inner, indent + "  ", out)
        if stmt.else_body is not None:
            out.append(f"{indent}end else begin")
            for inner in stmt.else_body:
                _stmt_lines(inner, indent + "  ", out)
        out.append(f"{indent}end")
    elif isinstance(stmt, Case):
        out.append(f"{indent}case ({expr_to_source(stmt.subject)})")
        for item in stmt.items:
            labels = ", ".join(expr_to_source(lbl) for lbl in item.labels)
            out.append(f"{indent}  {labels}: begin")
            for inner in item.body:
                _stmt_lines(inner, indent + "    ", out)
            out.append(f"{indent}  end")
        if stmt.default_body is not None:
            out.append(f"{indent}  default: begin")
            for inner in stmt.default_body:
                _stmt_lines(inner, indent + "    ", out)
            out.append(f"{indent}  end")
        out.append(f"{indent}endcase")
    else:
        raise TypeError(f"unknown statement node {type(stmt).__name__}")


def ast_to_source(ast: DesignAst) -> str:
    out = []
    port_lines = []
    for i, port in enumerate(ast.ports):
        reg = "reg " if port.is_reg else ""
        comma = "," if i < len(ast.ports) - 1 else ""
        port_lines.append(f"  {port.direction} {reg}{_range_text(port.msb, port.lsb)}{port.name}{comma}")
    out.append(f"module {ast.name} (")
    out.extend(port_lines)
    out.append(");")
    for item in ast.items:
        if isinstance(item, ParamDecl):
            kw = "localparam" if item.local else "parameter"
            out.append(f"  {kw} {item.name} = {expr_to_source(item.value)};")
        elif isinstance(item, NetDecl):
            out.append(f"  {item.kind} {_range_text(item.msb, item.lsb)}{item.name};")
        elif isinstance(item, ContAssign):
            out.append(f"  assign {item.target} = {expr_to_source(item.expr)};")
        elif isinstance(item, AlwaysComb):
            out.append("  always @(*) begin")
            for stmt in item.body:
                _stmt_lines(stmt, "    ", out)
            out.append("  end")
        elif isinstance(item, AlwaysSeq):
            events = " or ".join(f"{ev.edge} {ev.signal}" for ev in item.events)
            out.append(f"  always @({events}) begin")
            for stmt in item.body:
                _stmt_lines(stmt, "    ", out)
            out.append("  end")
        else:
            raise TypeError(f"unknown module item {type(item).__name__}")
    out.append("endmodule")
    return "\n".join(out) + "\n"
