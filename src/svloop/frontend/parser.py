"""Parser for the SystemVerilog subset: statements by recursive descent,
expressions by shunting-yard over an operator and an operand stack.

Supported grammar, per module: ANSI or classic port declarations with
``[msb:lsb]`` vectors, wire/reg/logic declarations, parameter/localparam,
continuous assigns, ``always @(*)`` and edge-triggered ``always`` blocks
with if/else, case, and blocking/nonblocking assignments.

Anything recognizably outside the subset (selects, concatenations,
instantiation, delays, 4-state literals, ...) raises UnsupportedConstruct
so exotic mutants and patches are rejected loudly instead of misparsed.
"""

from __future__ import annotations

import sys

from ..errors import ParseError, UnsupportedConstruct
from .ast import (
    AlwaysComb,
    AlwaysSeq,
    Assignment,
    Binary,
    Case,
    CaseItem,
    ContAssign,
    DesignAst,
    DesignSource,
    EdgeEvent,
    Expr,
    Ident,
    If,
    Literal,
    NetDecl,
    PRECEDENCE,
    ParamDecl,
    PortDecl,
    Stmt,
    Ternary,
    UNARY_PRECEDENCE,
    Unary,
    idents_in,
    stmt_exprs,
    walk_stmts,
)
from .lexer import UNSUPPORTED_KEYWORDS, Token, tokenize

_UNARY_OPS = {"~", "!", "-", "+"}
_RADIX = {"b": 2, "d": 10, "h": 16}
_TERNARY = PRECEDENCE["?:"]

# The deepest expression a design may hold: every operator and every pair
# of parentheses on the way from an expression's root to a leaf is one
# level. Deeper input is a positioned ParseError. At both caps the passes
# peak at these Python frames above their caller: lowering 426, printing
# 280, parsing 265, elaboration 153, so all of them run under Python's
# default recursion limit from a caller up to about 570 frames deep.
MAX_EXPR_DEPTH = 150

# The deepest statement nesting a design may hold: a process body's
# statement is level 1, a statement in an if, else or case arm is one level
# below the if or case, and one in a begin-end block nested in another
# block one level below that block. Deeper input is a positioned
# ParseError. Parsing recurses on statements, not on expressions.
MAX_STMT_DEPTH = 128


def _to_int(digits: str, radix: int, tok: Token) -> int:
    # int() refuses a decimal string past Python's limit with a bare ValueError;
    # Python before 3.10.7 has no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if radix == 10 and 0 < limit < len(digits):
        raise ParseError(f"decimal literal of {len(digits)} digits exceeds Python's "
                         f"{limit}-digit limit", tok.line, tok.col)
    return int(digits, radix)


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.stmts_open = 0  # statement levels around the point being parsed

    def too_deep(self, tok: Token):
        raise ParseError(f"expression nests deeper than {MAX_EXPR_DEPTH} levels",
                         tok.line, tok.col)

    # --- token helpers ---

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check(self, text: str) -> bool:
        return self.cur.text == text and self.cur.kind in ("op", "keyword")

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str, what: str = "") -> Token:
        if not self.check(text):
            got = self.cur.text or "end of input"
            wanted = what or f"'{text}'"
            self.fail(f"expected {wanted}, found {got!r}")
        return self.advance()

    def expect_ident(self, what="identifier") -> Token:
        if self.cur.kind != "ident":
            self.fail(f"expected {what}, found {self.cur.text!r}")
        return self.advance()

    def fail(self, msg):
        tok = self.cur
        if tok.kind == "ident" and tok.text in UNSUPPORTED_KEYWORDS:
            self.unsupported(tok.text)
        raise ParseError(msg, tok.line, tok.col)

    def unsupported(self, what):
        tok = self.cur
        raise UnsupportedConstruct(f"unsupported construct: {what}", tok.line, tok.col)

    def guard_unsupported_ident(self, tok: Token):
        if tok.text in UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstruct(f"unsupported construct: {tok.text}", tok.line, tok.col)

    # --- module structure ---

    def parse_module(self) -> DesignAst:
        if self.cur.kind == "eof":
            raise ParseError("no module found in source", 1, 1)
        while not self.check("module"):
            if self.cur.kind == "eof":
                raise ParseError("no module found in source", self.cur.line, self.cur.col)
            self.fail(f"expected 'module', found {self.cur.text!r}")
        mod_tok = self.expect("module")
        name = self.expect_ident("module name")
        self.guard_unsupported_ident(name)

        items: list = []
        ports: list[PortDecl] = []
        port_order: list[str] = []  # classic style: names only in header

        if self.accept("#"):
            self.expect("(")
            while True:
                self.expect("parameter")
                items.append(self.parse_param_binding(local=False))
                if not self.accept(","):
                    break
            self.expect(")")

        self.expect("(")
        if not self.check(")"):
            if self.cur.kind == "keyword" and self.cur.text in ("input", "output"):
                ports = self.parse_ansi_ports()
            elif self.cur.text == "inout":
                self.unsupported("inout port")
            else:
                while True:
                    tok = self.expect_ident("port name")
                    port_order.append(tok.text)
                    if not self.accept(","):
                        break
        self.expect(")")
        self.expect(";")

        classic_ports: dict[str, PortDecl] = {}
        while not self.check("endmodule"):
            if self.cur.kind == "eof":
                raise ParseError("missing 'endmodule'", self.cur.line, self.cur.col)
            self.parse_item(items, classic_ports, ansi=bool(ports))
        self.expect("endmodule")
        if self.cur.kind != "eof":
            if self.check("module"):
                self.unsupported("multiple modules in one source")
            self.fail(f"unexpected trailing input {self.cur.text!r}")

        if port_order:
            missing = [p for p in port_order if p not in classic_ports]
            if missing:
                raise ParseError(
                    f"port {missing[0]!r} has no input/output declaration", mod_tok.line, mod_tok.col
                )
            ports = [classic_ports[p] for p in port_order]
        elif classic_ports:
            raise ParseError(
                "input/output declarations without matching header ports",
                mod_tok.line, mod_tok.col,
            )

        ast = DesignAst(name=name.text, ports=ports, items=items, line=mod_tok.line)
        self.validate(ast)
        return ast

    def parse_ansi_ports(self) -> list[PortDecl]:
        ports: list[PortDecl] = []
        direction = None
        while True:
            direction, is_reg, msb, lsb = self.parse_port_prefix(direction)
            tok = self.expect_ident("port name")
            ports.append(
                PortDecl(tok.text, direction, msb, lsb, is_reg=is_reg, line=tok.line)
            )
            if not self.accept(","):
                break
        return ports

    def parse_port_prefix(self, direction):
        """Direction, type and range ahead of port names, in the header
        or the body; an ANSI port without a direction keeps the previous
        port's ``direction``."""
        if self.cur.text in ("input", "output"):
            direction = self.advance().text
        elif direction is None:
            self.fail("expected 'input' or 'output'")
        is_reg = self.cur.text == "reg"
        if self.cur.text in ("wire", "reg", "logic"):
            self.advance()
        msb, lsb = self.parse_range()
        return direction, is_reg, msb, lsb

    def parse_range(self):
        if not self.accept("["):
            return None, None
        msb = self.parse_expr()
        self.expect(":")
        lsb = self.parse_expr()
        self.expect("]")
        return msb, lsb

    def parse_param_binding(self, local: bool) -> ParamDecl:
        tok = self.expect_ident("parameter name")
        self.expect("=")
        value = self.parse_expr()
        return ParamDecl(tok.text, value, local=local, line=tok.line)

    def parse_item(self, items: list, classic_ports: dict, ansi: bool):
        tok = self.cur
        if tok.text in ("input", "output"):
            if ansi:
                self.unsupported("mixing header and body port declarations")
            direction, is_reg, msb, lsb = self.parse_port_prefix(None)
            while True:
                name = self.expect_ident("port name")
                if name.text in classic_ports:
                    raise ParseError(f"duplicate port declaration {name.text!r}", name.line, name.col)
                classic_ports[name.text] = PortDecl(
                    name.text, direction, msb, lsb, is_reg=is_reg, line=name.line
                )
                if not self.accept(","):
                    break
            self.expect(";")
            return
        if tok.text in ("wire", "reg", "logic"):
            kind = self.advance().text
            msb, lsb = self.parse_range()
            while True:
                name = self.expect_ident("net name")
                items.append(NetDecl(name.text, kind, msb, lsb, line=name.line))
                if self.accept("="):
                    self.unsupported("declaration initializer")
                if not self.accept(","):
                    break
            self.expect(";")
            return
        if tok.text in ("parameter", "localparam"):
            local = self.advance().text == "localparam"
            while True:
                items.append(self.parse_param_binding(local))
                if not self.accept(","):
                    break
            self.expect(";")
            return
        if tok.text == "assign":
            self.advance()
            target = self.expect_ident("assignment target")
            if self.check("["):
                self.unsupported("bit/part-select assignment target")
            self.expect("=")
            expr = self.parse_expr()
            self.expect(";")
            items.append(ContAssign(target.text, expr, line=tok.line))
            return
        if tok.text == "always":
            items.append(self.parse_always())
            return
        if tok.kind == "ident":
            self.unsupported(f"module instantiation or unknown item {tok.text!r}")
        if tok.kind == "keyword":
            self.unsupported(tok.text)
        self.fail(f"unexpected token {tok.text!r}")

    def parse_always(self) -> AlwaysComb | AlwaysSeq:
        tok = self.expect("always")
        self.expect("@")
        if self.accept("*"):
            body = self.parse_stmt_as_body()
            return AlwaysComb(body, line=tok.line)
        self.expect("(")
        if self.accept("*"):
            self.expect(")")
            body = self.parse_stmt_as_body()
            return AlwaysComb(body, line=tok.line)
        events = []
        while True:
            if self.cur.text not in ("posedge", "negedge"):
                self.unsupported("non-edge sensitivity list")
            edge = self.advance().text
            sig = self.expect_ident("signal name")
            events.append(EdgeEvent(edge, sig.text, line=sig.line))
            if self.accept("or") or self.accept(","):
                continue
            break
        self.expect(")")
        body = self.parse_stmt_as_body()
        return AlwaysSeq(events, body, line=tok.line)

    # --- statements ---

    def parse_stmt_as_body(self) -> list[Stmt]:
        """A process body or an if, else or case arm: one statement, or a
        begin-end block whose statements sit at the level that statement
        would. The printer writes every arm as a block, so printing adds no
        level."""
        tok = self.cur
        if not self.accept("begin"):
            return [self.parse_stmt()]
        body = []
        while not self.check("end"):
            if self.cur.kind == "eof":
                raise ParseError("missing 'end'", tok.line, tok.col)
            inner = self.parse_stmt()
            if isinstance(inner, list):
                body.extend(inner)
            else:
                body.append(inner)
        self.expect("end")
        return body

    def parse_stmt(self):
        tok = self.cur
        if self.stmts_open == MAX_STMT_DEPTH:
            raise ParseError(f"statements nest deeper than {MAX_STMT_DEPTH} levels",
                             tok.line, tok.col)
        self.stmts_open += 1
        if self.check("begin"):
            stmt = self.parse_stmt_as_body()    # a block nested in a block
        elif self.accept("if"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self.parse_stmt_as_body()
            else_body = None
            if self.accept("else"):
                else_body = self.parse_stmt_as_body()
            stmt = If(cond, then_body, else_body, line=tok.line)
        elif self.accept("case"):
            self.expect("(")
            subject = self.parse_expr()
            self.expect(")")
            items = []
            default_body = None
            while not self.check("endcase"):
                if self.cur.kind == "eof":
                    raise ParseError("missing 'endcase'", tok.line, tok.col)
                if self.accept("default"):
                    self.accept(":")
                    if default_body is not None:
                        raise ParseError("duplicate default arm", tok.line, tok.col)
                    default_body = self.parse_stmt_as_body()
                    continue
                labels = [self.parse_expr()]
                while self.accept(","):
                    labels.append(self.parse_expr())
                line = self.cur.line
                self.expect(":")
                body = self.parse_stmt_as_body()
                items.append(CaseItem(labels, body, line=line))
            self.expect("endcase")
            if not items and default_body is None:
                raise ParseError("empty case statement", tok.line, tok.col)
            stmt = Case(subject, items, default_body, line=tok.line)
        else:
            stmt = self.parse_assignment(tok)
        self.stmts_open -= 1
        return stmt

    def parse_assignment(self, tok: Token) -> Assignment:
        if tok.text == "#":
            self.unsupported("delay control")
        if tok.kind == "ident":
            name = self.advance()
            if self.check("["):
                self.unsupported("bit/part-select assignment target")
            if self.accept("="):
                expr = self.parse_expr()
                self.expect(";")
                return Assignment(name.text, expr, blocking=True, line=name.line)
            if self.accept("<="):
                expr = self.parse_expr()
                self.expect(";")
                return Assignment(name.text, expr, blocking=False, line=name.line)
            self.fail("expected '=' or '<=' after assignment target")
        self.fail(f"unexpected token {tok.text!r} in statement")

    # --- expressions ---

    def parse_expr(self) -> Expr:
        """Shunting-yard (Dijkstra, 1961): no expression level costs a Python
        frame. ``pending`` holds the levels open around the current token,
        innermost last, as ``(binding, token)``: a binary operator's
        precedence, UNARY_PRECEDENCE, that of ``?:`` for a ``?`` past its
        ``:``, or 0 for ``(`` and a ``?`` before its ``:``. ``done`` holds
        each finished operand and its height in levels."""
        pending: list[tuple[int, Token]] = []
        done: list[tuple[Expr, int]] = []
        operand = True      # the current token starts an operand
        while True:
            tok = self.cur
            if not operand:
                # a binary operator folds the operators that bind at least as
                # tightly, ``?`` every operator; any other token folds down to
                # the innermost ``(`` or ``?``
                binding = PRECEDENCE.get(tok.text, 0)
                floor = binding or (_TERNARY + 1 if self.check("?") else _TERNARY)
                while pending and pending[-1][0] >= floor:
                    self.fold(pending, done)
                if floor == _TERNARY:
                    if not pending:
                        return done[0][0]
                    opened = pending[-1][1]
                    if opened.text == "(":
                        self.expect(")")
                        self.fold(pending, done)
                    else:
                        self.expect(":")
                        pending[-1] = (_TERNARY, opened)
                        operand = True
                    continue
            elif tok.text == "(":
                binding = 0
            elif tok.kind == "op" and tok.text in _UNARY_OPS:
                binding = UNARY_PRECEDENCE
            else:
                done.append((self.parse_leaf(tok), 0))
                operand = False
                continue
            self.advance()
            if len(pending) == MAX_EXPR_DEPTH:
                self.too_deep(self.cur)
            pending.append((binding, tok))
            operand = True

    def fold(self, pending: list, done: list):
        """Close the innermost pending level: one level over its highest
        operand, checked against the cap at the level's own token. ``(`` and
        a unary ``+`` add the level but no node."""
        binding, tok = pending.pop()
        node, height = done.pop()
        if binding == _TERNARY:
            then, then_height = done.pop()
            cond, cond_height = done.pop()
            height = max(cond_height, then_height, height)
            node = Ternary(cond, then, node, line=cond.line, col=cond.col)
        elif binding == UNARY_PRECEDENCE:
            if tok.text != "+":
                node = Unary(tok.text, node, line=tok.line, col=tok.col)
        elif binding:
            left, left_height = done.pop()
            height = max(left_height, height)
            node = Binary(tok.text, left, node, line=left.line, col=left.col)
        if height >= MAX_EXPR_DEPTH:
            self.too_deep(tok)
        done.append((node, height + 1))

    def parse_leaf(self, tok: Token) -> Expr:
        """A number, based literal or identifier at the current token ``tok``."""
        if tok.text == "{":
            self.unsupported("concatenation")
        if tok.kind == "number":
            self.advance()
            value = _to_int(tok.text.replace("_", ""), 10, tok)
            return Literal(value, None, "d", line=tok.line, col=tok.col)
        if tok.kind == "based":
            self.advance()
            return self.decode_based(tok)
        if tok.kind == "ident":
            self.advance()
            if self.check("["):
                self.unsupported("bit/part-select")
            if self.check("("):
                self.unsupported("function call")
            return Ident(tok.text, line=tok.line, col=tok.col)
        self.fail(f"expected expression, found {tok.text!r}")

    def decode_based(self, tok: Token) -> Literal:
        text = tok.text.replace("_", "")
        size_part, rest = text.split("'", 1)
        size = _to_int(size_part, 10, tok) if size_part else None
        base = rest[0].lower()
        digits = rest[1:]
        if any(c in "xXzZ" for c in digits):
            raise UnsupportedConstruct("4-state literal (x/z)", tok.line, tok.col)
        try:
            value = _to_int(digits, _RADIX[base], tok)
        except ValueError:
            raise ParseError(f"malformed {base}-base literal", tok.line, tok.col) from None
        return Literal(value, size, base, line=tok.line, col=tok.col)

    # --- post-parse validation ---

    def validate(self, ast: DesignAst):
        declared = {}
        redeclared = []
        for port in ast.ports:
            if port.name in declared:
                raise ParseError(f"duplicate declaration of {port.name!r}", port.line, 0)
            declared[port.name] = port
        for item in ast.items:
            if isinstance(item, NetDecl):
                prior = declared.get(item.name)
                if isinstance(prior, PortDecl):
                    # `output g1; reg g1;` style redeclaration marks the port as reg
                    if item.kind == "reg":
                        prior.is_reg = True
                    redeclared.append(id(item))
                    continue
                if prior is not None:
                    raise ParseError(f"duplicate declaration of {item.name!r}", item.line, 0)
                declared[item.name] = item
            elif isinstance(item, ParamDecl):
                if item.name in declared:
                    raise ParseError(f"duplicate declaration of {item.name!r}", item.line, 0)
                declared[item.name] = item
        if redeclared:
            ast.items = [it for it in ast.items if id(it) not in redeclared]

        def require(name, line):
            if name not in declared:
                raise ParseError(f"undeclared identifier {name!r}", line, 0)

        for item in ast.items:
            if isinstance(item, ParamDecl):
                for name in idents_in(item.value):
                    require(name, item.line)
            elif isinstance(item, NetDecl):
                for bound in (item.msb, item.lsb):
                    if bound is not None:
                        for name in idents_in(bound):
                            require(name, item.line)
            elif isinstance(item, ContAssign):
                require(item.target, item.line)
                for name in idents_in(item.expr):
                    require(name, item.line)
            else:
                for stmt in walk_stmts(item.body):
                    if isinstance(stmt, Assignment):
                        require(stmt.target, stmt.line)
                    for expr in stmt_exprs(stmt):
                        for name in idents_in(expr):
                            require(name, stmt.line)
                if isinstance(item, AlwaysSeq):
                    for event in item.events:
                        require(event.signal, event.line)
        for port in ast.ports:
            for bound in (port.msb, port.lsb):
                if bound is not None:
                    for name in idents_in(bound):
                        require(name, port.line)


def parse_design(source: DesignSource) -> DesignAst:
    """Parse one module of subset SystemVerilog into an AST."""
    if isinstance(source, str):
        source = DesignSource(source)
    return _Parser(source.text).parse_module()
