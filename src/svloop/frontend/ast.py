"""AST node types for the supported SystemVerilog subset.

Nodes compare structurally: source positions are excluded from
equality, so a pretty-print/re-parse round trip yields an equal tree.
Nodes carry nothing but what the parser read, and nothing after parsing
writes onto them: lowering works out each expression's evaluation width
and numbers the statements for coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass
class DesignSource:
    """Raw HDL text plus a provenance label.

    origin is one of ``reference``, ``mutant <BCxx>``, or ``patched``.
    """

    text: str
    origin: str = "reference"

    def __post_init__(self):
        if not self.text or not self.text.strip():
            raise ValueError("design source text is empty")
        if not (
            self.origin == "reference"
            or self.origin == "patched"
            or self.origin.startswith("mutant")
        ):
            raise ValueError(f"unknown design origin {self.origin!r}")


# --- expressions -------------------------------------------------------------

# binding strength of each operator, loosest first; the parser climbs
# this table and the printer parenthesizes by it
PRECEDENCE = {
    "?:": 1,
    "||": 2,
    "&&": 3,
    "|": 4,
    "^": 5,
    "&": 6,
    "==": 7, "!=": 7,
    "<": 8, "<=": 8, ">": 8, ">=": 8,
    "<<": 9, ">>": 9,
    "+": 10, "-": 10,
}

UNARY_PRECEDENCE = 11


@dataclass
class Expr:
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass
class Literal(Expr):
    value: int = 0
    size: Optional[int] = None   # None for unsized literals
    base: str = "d"              # b / d / h, used when printing

    @property
    def self_width(self) -> int:
        # an unsized number is at least 32 bits wide (IEEE 1800-2017 5.7.1)
        return self.size if self.size is not None else max(32, self.value.bit_length())


@dataclass
class Ident(Expr):
    name: str = ""


@dataclass
class Unary(Expr):
    op: str = "~"
    operand: Expr = None


@dataclass
class Binary(Expr):
    op: str = "&"
    left: Expr = None
    right: Expr = None


@dataclass
class Ternary(Expr):
    cond: Expr = None
    then: Expr = None
    other: Expr = None


# --- statements --------------------------------------------------------------

@dataclass
class Stmt:
    line: int = field(default=0, compare=False, kw_only=True)
    col: int = field(default=0, compare=False, kw_only=True)


@dataclass
class Assignment(Stmt):
    target: str = ""
    expr: Expr = None
    blocking: bool = True


@dataclass
class If(Stmt):
    cond: Expr = None
    then_body: list[Stmt] = field(default_factory=list)
    else_body: Optional[list[Stmt]] = None


@dataclass
class CaseItem:
    labels: list[Expr] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    line: int = field(default=0, compare=False, kw_only=True)


@dataclass
class Case(Stmt):
    subject: Expr = None
    items: list[CaseItem] = field(default_factory=list)
    default_body: Optional[list[Stmt]] = None


# --- module items ------------------------------------------------------------

@dataclass
class PortDecl:
    name: str
    direction: str              # "input" | "output"
    msb: Optional[Expr] = None  # None means scalar (width 1)
    lsb: Optional[Expr] = None
    is_reg: bool = False
    line: int = field(default=0, compare=False, kw_only=True)


@dataclass
class NetDecl:
    name: str
    kind: str                   # wire | reg | logic
    msb: Optional[Expr] = None
    lsb: Optional[Expr] = None
    line: int = field(default=0, compare=False, kw_only=True)


@dataclass
class ParamDecl:
    name: str
    value: Expr
    local: bool = False
    line: int = field(default=0, compare=False, kw_only=True)


@dataclass
class ContAssign:
    target: str
    expr: Expr
    line: int = field(default=0, compare=False, kw_only=True)


@dataclass
class EdgeEvent:
    edge: str                   # posedge | negedge
    signal: str
    line: int = field(default=0, compare=False, kw_only=True)


@dataclass
class AlwaysComb:
    body: list[Stmt] = field(default_factory=list)
    line: int = field(default=0, compare=False, kw_only=True)


@dataclass
class AlwaysSeq:
    events: list[EdgeEvent] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    line: int = field(default=0, compare=False, kw_only=True)


ModuleItem = Union[NetDecl, ParamDecl, ContAssign, AlwaysComb, AlwaysSeq]


@dataclass
class DesignAst:
    name: str
    ports: list[PortDecl] = field(default_factory=list)
    items: list[ModuleItem] = field(default_factory=list)
    line: int = field(default=0, compare=False, kw_only=True)

    @property
    def params(self) -> list[ParamDecl]:
        return [it for it in self.items if isinstance(it, ParamDecl)]


def walk_exprs(expr: Expr):
    """Yield expr and all sub-expressions, preorder."""
    yield expr
    if isinstance(expr, Unary):
        yield from walk_exprs(expr.operand)
    elif isinstance(expr, Binary):
        yield from walk_exprs(expr.left)
        yield from walk_exprs(expr.right)
    elif isinstance(expr, Ternary):
        yield from walk_exprs(expr.cond)
        yield from walk_exprs(expr.then)
        yield from walk_exprs(expr.other)


def walk_stmts(body: list[Stmt]):
    """Yield every statement in a body, preorder, including nested ones."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, If):
            yield from walk_stmts(stmt.then_body)
            if stmt.else_body is not None:
                yield from walk_stmts(stmt.else_body)
        elif isinstance(stmt, Case):
            for item in stmt.items:
                yield from walk_stmts(item.body)
            if stmt.default_body is not None:
                yield from walk_stmts(stmt.default_body)


def stmt_exprs(stmt: Stmt):
    """Expressions read directly by one statement (not nested statements)."""
    if isinstance(stmt, Assignment):
        yield stmt.expr
    elif isinstance(stmt, If):
        yield stmt.cond
    elif isinstance(stmt, Case):
        yield stmt.subject
        for item in stmt.items:
            yield from item.labels


def idents_in(expr: Expr):
    for sub in walk_exprs(expr):
        if isinstance(sub, Ident):
            yield sub.name

