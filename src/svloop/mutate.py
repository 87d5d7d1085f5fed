"""Deterministic single-bug injection.

Ten operators (BC01..BC10) reconstruct common functional bug classes:
logic/comparison swaps, condition negation, constant corruption,
broken state transitions, dropped case arms, reset corruption,
blocking/nonblocking swaps, and clock polarity flips. Every emitted
mutant is proven semantically distinct from its reference by replayable
witness stimulus; equivalent candidates are discarded and the next
seeded site is tried.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .errors import NoApplicableSite, NoDistinctMutant, SvLoopError
from .frontend.ast import (
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
    ParamDecl,
    Ternary,
    Unary,
    walk_stmts,
)
from .frontend.elaborate import ElaboratedDesign, elaborate
from .frontend.parser import parse_design
from .frontend.printer import ast_to_source
from .frontend.signature import DesignSignature, extract_signature
from .sim.engine import product_search, run
from .sim.stimulus import UnitTest

EXHAUSTIVE_INPUT_BITS = 12
RANDOM_TESTS = 1000
RANDOM_TEST_CYCLES = 20

_COMPARISON_SWAP = {"==": "!=", "!=": "==", "<": "<=", "<=": "<", ">": ">=", ">=": ">"}


@dataclass(frozen=True)
class MutationOperator:
    bc_id: str
    kind: str
    description: str


OPERATORS: tuple[MutationOperator, ...] = (
    MutationOperator("BC01", "logic-operator-swap", "swap a bitwise & with | (or vice versa)"),
    MutationOperator("BC02", "comparison-swap", "swap a comparison (==/!=, </<=, >/>=)"),
    MutationOperator("BC03", "condition-negation", "negate an if or ternary condition"),
    MutationOperator("BC04", "constant-bit-flip", "flip one bit of an integer literal"),
    MutationOperator("BC05", "off-by-one-constant", "shift an integer literal by one"),
    MutationOperator("BC06", "wrong-state-transition", "retarget a state-register transition"),
    MutationOperator("BC07", "deleted-case-arm", "remove a case arm from a clocked process"),
    MutationOperator("BC08", "reset-value-corruption", "corrupt an assignment in a reset branch"),
    MutationOperator("BC09", "blocking-swap", "swap blocking and nonblocking assignment"),
    MutationOperator("BC10", "clock-edge-flip", "flip the clock edge polarity"),
)


def list_operators() -> tuple[MutationOperator, ...]:
    """The fixed BC01..BC10 catalog, stable across calls."""
    return OPERATORS


@dataclass(frozen=True)
class MutantRecord:
    bc_id: str
    kind: str
    source: DesignSource
    site_path: str
    site_line: int
    seed: int
    witness: UnitTest

    def as_dict(self) -> dict:
        return {
            "bc_id": self.bc_id,
            "kind": self.kind,
            "origin": self.source.origin,
            "site_path": self.site_path,
            "site_line": self.site_line,
            "seed": self.seed,
            "witness": self.witness.to_text(),
        }


@dataclass(frozen=True)
class SkippedOperator:
    bc_id: str
    kind: str
    reason: str


# --- site enumeration ---------------------------------------------------------


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


# --- distinctness -------------------------------------------------------------

def _total_input_bits(signature: DesignSignature) -> int:
    return sum(p.width for p in signature.stimulus_inputs)


def _exhaustive_witness(reference, mutant, signature) -> Optional[UnitTest]:
    columns = signature.stimulus_inputs
    widths = [p.width for p in columns]
    total = sum(widths)
    for pattern in range(1 << total):
        row = []
        shift = pattern
        for w in widths:
            row.append(shift & ((1 << w) - 1))
            shift >>= w
        test = UnitTest("witness", columns, (tuple(row),))
        ref_tr = run(reference, test, signature)
        mut_tr = run(mutant, test, signature)
        if any(
            ref_tr.values[o][0] != mut_tr.values[o][0]
            for o in (p.name for p in signature.outputs)
        ):
            return test
    return None


def _random_witness(reference, mutant, signature, seed,
                    budget=RANDOM_TESTS, cycles=RANDOM_TEST_CYCLES) -> Optional[UnitTest]:
    rng = random.Random(seed)
    columns = signature.stimulus_inputs
    outputs = [p.name for p in signature.outputs]
    reset = signature.reset
    for k in range(budget):
        rows = []
        for n in range(cycles):
            row = []
            for port in columns:
                if reset is not None and port.name == reset.name:
                    # keep reset phases coherent: asserted for the first two
                    # cycles, then occasional reassertions
                    asserted = n < 2 or rng.random() < 0.1
                    level = 1 if reset.active_high else 0
                    row.append(level if asserted else 1 - level)
                else:
                    row.append(rng.getrandbits(port.width))
            rows.append(tuple(row))
        test = UnitTest(f"witness-{k}", columns, tuple(rows))
        ref_tr = run(reference, test, signature)
        mut_tr = run(mutant, test, signature)
        if any(ref_tr.values[o] != mut_tr.values[o] for o in outputs):
            return test
    return None


def find_witness(reference, mutant, signature, seed,
                 budget=RANDOM_TESTS, cycles=RANDOM_TEST_CYCLES) -> Optional[UnitTest]:
    """Stimulus on which the two designs provably diverge, or None.

    Combinational designs with at most 12 stimulus bits are diffed
    exhaustively. A sequential pair that the product-machine search
    proves equivalent within ``budget * cycles`` steps (the random
    search's own cost) returns None at once. Everything else gets
    ``budget`` seeded random tests of ``cycles`` cycles each, which stay
    the only source of sequential witnesses.
    """
    if not reference.is_sequential and _total_input_bits(signature) <= EXHAUSTIVE_INPUT_BITS:
        return _exhaustive_witness(reference, mutant, signature)
    if reference.is_sequential and product_search(reference, mutant, signature, budget * cycles):
        return None
    return _random_witness(reference, mutant, signature, seed, budget, cycles)


# --- injection ------------------------------------------------------------------

def inject(
    reference: ElaboratedDesign,
    ast: DesignAst,
    op: MutationOperator,
    seed: int,
) -> MutantRecord:
    """Apply one operator at a seeded site and prove the result distinct.

    Sites are drawn uniformly (seeded) and retried until a mutant both
    elaborates with a preserved signature and diverges on a witness.
    ``ast`` is a parse of ``reference.source`` other than the one
    ``reference`` was elaborated from, so one parse serves every operator.
    Each candidate is ``ast`` with one edit applied, printed for its
    record and elaborated in place; the edit is undone before the next
    candidate, so a candidate design is valid only until then.
    """
    signature = extract_signature(reference)
    sites = _collect_sites(op, ast, reference, signature)
    if not sites:
        raise NoApplicableSite(f"{op.bc_id} ({op.kind}): no applicable site")
    rng = random.Random((seed << 8) ^ int(op.bc_id[2:]))
    order = list(range(len(sites)))
    rng.shuffle(order)
    for rank in order:
        path, line, node, attribute, value = sites[rank]
        original = getattr(node, attribute)
        setattr(node, attribute, value)
        try:
            candidate_src = DesignSource(ast_to_source(ast), f"mutant {op.bc_id}")
            try:
                candidate = elaborate(ast, candidate_src)
                if extract_signature(candidate) != signature:
                    continue
            except SvLoopError:
                continue
            witness = find_witness(reference, candidate, signature, seed)
        finally:
            setattr(node, attribute, original)
        if witness is None:
            continue
        return MutantRecord(
            op.bc_id, op.kind, candidate_src, path, line, seed, witness
        )
    raise NoDistinctMutant(
        f"{op.bc_id} ({op.kind}): every applicable site is semantically equivalent"
    )


def make_corpus(
    reference: ElaboratedDesign, seed: int
) -> tuple[list[MutantRecord], list[SkippedOperator]]:
    """One record per applicable operator in BC order; inapplicable or
    equivalent-only operators are recorded as skipped with a reason."""
    records: list[MutantRecord] = []
    skipped: list[SkippedOperator] = []
    ast = parse_design(reference.source)
    for op in OPERATORS:
        try:
            records.append(inject(reference, ast, op, seed))
        except NoApplicableSite:
            skipped.append(SkippedOperator(op.bc_id, op.kind, "no applicable site"))
        except NoDistinctMutant:
            skipped.append(
                SkippedOperator(op.bc_id, op.kind,
                                "no distinct mutant: every applicable site is equivalent")
            )
    return records, skipped
