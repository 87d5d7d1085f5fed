"""Reference frontend for differential tests of the one in ``svloop.frontend``.

This is the per-character lexer and the tier-by-tier recursive-descent
parser the frontend used before it lexed with one compiled pattern and
parsed binary operators by precedence climbing. Its code is unchanged
apart from its imports; ``tokenize`` and ``parse_design`` mirror
``svloop.frontend.lexer.tokenize`` and ``svloop.frontend.parser.parse_design``.
"""

from __future__ import annotations

from dataclasses import dataclass

from svloop.errors import ParseError, UnsupportedConstruct
from svloop.frontend.ast import (
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
    ParamDecl,
    PortDecl,
    Stmt,
    Ternary,
    Unary,
    idents_in,
    stmt_exprs,
    walk_stmts,
)

# --- lexer -------------------------------------------------------------------

KEYWORDS = {
    "module", "endmodule", "input", "output", "wire", "reg", "logic",
    "assign", "always", "begin", "end", "if", "else", "case", "endcase",
    "default", "posedge", "negedge", "parameter", "localparam", "or",
}

# Constructs we recognize well enough to reject by name.
UNSUPPORTED_KEYWORDS = {
    "inout", "initial", "function", "endfunction", "task", "endtask",
    "generate", "endgenerate", "genvar", "for", "while", "repeat",
    "forever", "integer", "signed", "casez", "casex", "assert",
    "interface", "typedef", "enum", "struct", "package", "import",
    "always_ff", "always_comb", "always_latch", "wait", "fork", "join",
    "real", "time", "event", "specify", "primitive", "defparam",
}

TWO_CHAR_OPS = {"<=", ">=", "==", "!=", "<<", ">>", "&&", "||"}
ONE_CHAR_OPS = set("~&|^+-<>!?:()[]{};,=@*#.")


@dataclass
class Token:
    kind: str      # ident | keyword | number | based | op | eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def error(msg):
        raise ParseError(msg, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            j = text.find("\n", i)
            if j < 0:
                break
            col += j - i
            i = j
            continue
        if text.startswith("/*", i):
            j = text.find("*/", i + 2)
            if j < 0:
                error("unterminated block comment")
            skipped = text[i:j + 2]
            nl = skipped.count("\n")
            if nl:
                line += nl
                col = len(skipped) - skipped.rfind("\n")
            else:
                col += len(skipped)
            i = j + 2
            continue

        start_line, start_col = line, col

        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue

        if ch.isdigit() or ch == "'":
            # number, optionally followed by 'b/'d/'h payload
            j = i
            while j < n and (text[j].isdigit() or text[j] == "_"):
                j += 1
            if j < n and text[j] == "'":
                k = j + 1
                if k < n and text[k] in "sS":
                    raise UnsupportedConstruct("signed literal", start_line, start_col)
                if k >= n or text[k] not in "bBdDhH":
                    error("malformed based literal")
                k += 1
                digits_start = k
                while k < n and (text[k].isalnum() or text[k] == "_"):
                    k += 1
                if k == digits_start:
                    error("based literal missing digits")
                tokens.append(Token("based", text[i:k], start_line, start_col))
                col += k - i
                i = k
                continue
            if j == i:  # bare quote: 'b101 style unsized based literal
                error("malformed literal")
            tokens.append(Token("number", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue

        two = text[i:i + 2]
        if two in TWO_CHAR_OPS:
            tokens.append(Token("op", two, start_line, start_col))
            i += 2
            col += 2
            continue
        if ch in ONE_CHAR_OPS:
            tokens.append(Token("op", ch, start_line, start_col))
            i += 1
            col += 1
            continue

        error(f"unexpected character {ch!r}")

    tokens.append(Token("eof", "", line, col))
    return tokens


# --- parser ------------------------------------------------------------------

# binary operators by ascending precedence tier
_BINARY_TIERS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">="],
    ["<<", ">>"],
    ["+", "-"],
]

_UNARY_OPS = {"~", "!", "-", "+"}


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

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
        tok = self.cur
        if tok.kind != "ident":
            if tok.kind == "keyword" and tok.text in UNSUPPORTED_KEYWORDS:
                self.unsupported(tok.text)
            self.fail(f"expected {what}, found {tok.text!r}")
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
            if self.cur.text in UNSUPPORTED_KEYWORDS:
                self.unsupported(self.cur.text)
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
            if self.cur.text in ("input", "output"):
                direction = self.advance().text
            elif direction is None:
                self.fail("expected 'input' or 'output'")
            is_reg = False
            if self.cur.text in ("wire", "logic"):
                self.advance()
            elif self.cur.text == "reg":
                is_reg = True
                self.advance()
            msb, lsb = self.parse_range()
            tok = self.expect_ident("port name")
            ports.append(
                PortDecl(tok.text, direction, msb, lsb, is_reg=is_reg, line=tok.line)
            )
            if not self.accept(","):
                break
        return ports

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
            direction = self.advance().text
            is_reg = False
            if self.cur.text in ("wire", "logic"):
                self.advance()
            elif self.cur.text == "reg":
                is_reg = True
                self.advance()
            msb, lsb = self.parse_range()
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
        if tok.text in UNSUPPORTED_KEYWORDS or tok.kind == "keyword":
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
        stmt = self.parse_stmt()
        if isinstance(stmt, list):
            return stmt
        return [stmt]

    def parse_stmt(self):
        tok = self.cur
        if self.accept("begin"):
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
        if self.accept("if"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self.parse_stmt_as_body()
            else_body = None
            if self.accept("else"):
                else_body = self.parse_stmt_as_body()
            return If(cond, then_body, else_body, line=tok.line)
        if self.accept("case"):
            self.expect("(")
            subject = self.parse_expr()
            self.expect(")")
            items = []
            default_body = None
            while not self.check("endcase"):
                if self.cur.kind == "eof":
                    raise ParseError("missing 'endcase'", tok.line, tok.col)
                arm = self.cur
                if self.accept("default"):
                    self.accept(":")
                    if default_body is not None:
                        raise ParseError("duplicate default arm", arm.line, arm.col)
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
            return Case(subject, items, default_body, line=tok.line)
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
        if tok.text in UNSUPPORTED_KEYWORDS:
            self.unsupported(tok.text)
        self.fail(f"unexpected token {tok.text!r} in statement")

    # --- expressions ---

    def parse_expr(self) -> Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> Expr:
        cond = self.parse_binary(0)
        if self.accept("?"):
            then = self.parse_ternary()
            self.expect(":")
            other = self.parse_ternary()
            return Ternary(cond, then, other, line=cond.line, col=cond.col)
        return cond

    def parse_binary(self, tier: int) -> Expr:
        if tier >= len(_BINARY_TIERS):
            return self.parse_unary()
        ops = _BINARY_TIERS[tier]
        left = self.parse_binary(tier + 1)
        while self.cur.kind == "op" and self.cur.text in ops:
            op = self.advance().text
            right = self.parse_binary(tier + 1)
            left = Binary(op, left, right, line=left.line, col=left.col)
        return left

    def parse_unary(self) -> Expr:
        tok = self.cur
        if tok.kind == "op" and tok.text in _UNARY_OPS:
            self.advance()
            operand = self.parse_unary()
            if tok.text == "+":
                return operand
            return Unary(tok.text, operand, line=tok.line, col=tok.col)
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.cur
        if tok.text == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.text == "{":
            self.unsupported("concatenation")
        if tok.kind == "number":
            self.advance()
            value = int(tok.text.replace("_", ""))
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
        if tok.text in UNSUPPORTED_KEYWORDS:
            self.unsupported(tok.text)
        self.fail(f"expected expression, found {tok.text!r}")

    def decode_based(self, tok: Token) -> Literal:
        text = tok.text.replace("_", "")
        size_part, rest = text.split("'", 1)
        size = int(size_part) if size_part else None
        base = rest[0].lower()
        digits = rest[1:]
        if any(c in "xXzZ" for c in digits):
            raise UnsupportedConstruct("4-state literal (x/z)", tok.line, tok.col)
        try:
            if base == "b":
                value = int(digits, 2)
            elif base == "h":
                value = int(digits, 16)
            else:
                value = int(digits, 10)
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
