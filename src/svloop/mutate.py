"""Deterministic single-bug injection.

Ten operators (BC01..BC10) reconstruct common functional bug classes:
logic/comparison swaps, condition negation, constant corruption,
broken state transitions, dropped case arms, reset corruption,
blocking/nonblocking swaps, and clock polarity flips. Every emitted
mutant is proven semantically distinct from its reference by replayable
witness stimulus; equivalent candidates are discarded and the next
seeded site is tried. Each operator enumerates its sites in design
order, and the seeded draw indexes that list, so the order is part of
the corpus bytes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Optional

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
from .frontend.elaborate import ElaboratedDesign, elaborate, fsm_state_names
from .frontend.parser import parse_design
from .frontend.printer import ast_to_source
from .frontend.signature import DesignSignature, extract_signature
from .sim.engine import product_search, run
from .sim.stimulus import UnitTest

if TYPE_CHECKING:
    from .manifest import Problem

EXHAUSTIVE_INPUT_BITS = 12
RANDOM_TESTS = 1000
RANDOM_TEST_CYCLES = 20

_COMPARISON_SWAP = {"==": "!=", "!=": "==", "<": "<=", "<=": "<", ">": ">=", ">=": ">"}


@dataclass(frozen=True)
class MutationOperator:
    bc_id: str
    kind: str


OPERATORS: tuple[MutationOperator, ...] = (
    MutationOperator("BC01", "logic-operator-swap"),
    MutationOperator("BC02", "comparison-swap"),
    MutationOperator("BC03", "condition-negation"),
    MutationOperator("BC04", "constant-bit-flip"),
    MutationOperator("BC05", "off-by-one-constant"),
    MutationOperator("BC06", "wrong-state-transition"),
    MutationOperator("BC07", "deleted-case-arm"),
    MutationOperator("BC08", "reset-value-corruption"),
    MutationOperator("BC09", "blocking-swap"),
    MutationOperator("BC10", "clock-edge-flip"),
)


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
#
# Sites are listed in design order: items as written, the statements of a
# process in preorder, an expression before its operands. ``inject`` draws
# a seeded permutation of the list, so this order is part of the corpus.

_PROCESSES = (AlwaysComb, AlwaysSeq)


def _expr_paths(expr, path):
    """(path, node) for ``expr`` and every sub-expression, preorder."""
    yield path, expr
    if isinstance(expr, Unary):
        yield from _expr_paths(expr.operand, path + ".operand")
    elif isinstance(expr, Binary):
        yield from _expr_paths(expr.left, path + ".left")
        yield from _expr_paths(expr.right, path + ".right")
    elif isinstance(expr, Ternary):
        yield from _expr_paths(expr.cond, path + ".cond")
        yield from _expr_paths(expr.then, path + ".then")
        yield from _expr_paths(expr.other, path + ".other")


def _stmts(ast: DesignAst, kinds):
    """(path, statement) for every statement of the ``kinds`` processes."""
    for i, item in enumerate(ast.items):
        if isinstance(item, kinds):
            for j, stmt in enumerate(walk_stmts(item.body)):
                yield f"item[{i}].stmt[{j}]", stmt


def _design_exprs(ast: DesignAst):
    """(path, node) for every expression in the design."""
    for i, item in enumerate(ast.items):
        if isinstance(item, ParamDecl):
            yield from _expr_paths(item.value, f"item[{i}].value")
        elif isinstance(item, ContAssign):
            yield from _expr_paths(item.expr, f"item[{i}].expr")
        elif isinstance(item, _PROCESSES):
            for j, stmt in enumerate(walk_stmts(item.body)):
                path = f"item[{i}].stmt[{j}]"
                if isinstance(stmt, Assignment):
                    yield from _expr_paths(stmt.expr, f"{path}.expr")
                elif isinstance(stmt, If):
                    yield from _expr_paths(stmt.cond, f"{path}.cond")
                elif isinstance(stmt, Case):
                    yield from _expr_paths(stmt.subject, f"{path}.subject")
                    for k, arm in enumerate(stmt.items):
                        for m, label in enumerate(arm.labels):
                            yield from _expr_paths(label, f"{path}.item[{k}].label[{m}]")


def _negated(cond):
    return Unary("!", cond, line=cond.line, col=cond.col)


def _retargeted(expr, name):
    return Ident(name, line=expr.line, col=expr.col)


def _masked(value, lit):
    return value & ((1 << lit.size) - 1) if lit.size is not None else value


def _off_by_one(lit):
    at_limit = lit.size is not None and lit.value + 1 > (1 << lit.size) - 1
    return lit.value - 1 if at_limit else lit.value + 1


def _reset_sites(path, stmt, states):
    """BC08 at one statement of a reset branch: retarget a state assignment
    to the first other state, or flip bit 0 of an assigned literal."""
    if not isinstance(stmt, Assignment):
        return []
    expr = stmt.expr
    if isinstance(expr, Ident) and expr.name in states.get(stmt.target, ()):
        name = next(n for n in states[stmt.target] if n != expr.name)
        return [(f"{path}.expr->{name}", stmt.line, stmt, "expr", _retargeted(expr, name))]
    if isinstance(expr, Literal):
        return [(f"{path}.expr^1", stmt.line, expr, "value", _masked(expr.value ^ 1, expr))]
    return []


# --- the ten operators ---------------------------------------------------------

def _collect_sites(op: MutationOperator, ast: DesignAst, design: ElaboratedDesign,
                   signature: DesignSignature):
    """Enumerate applicable sites, in design order, as ``(path, line, node,
    attribute, value)``: the mutant is ``ast`` with ``setattr(node, attribute,
    value)``."""
    bc = op.bc_id
    if bc == "BC01":
        return [(path, e.line, e, "op", "|" if e.op == "&" else "&")
                for path, e in _design_exprs(ast)
                if isinstance(e, Binary) and e.op in ("&", "|")]
    if bc == "BC02":
        return [(path, e.line, e, "op", _COMPARISON_SWAP[e.op])
                for path, e in _design_exprs(ast)
                if isinstance(e, Binary) and e.op in _COMPARISON_SWAP]
    if bc == "BC03":
        # the if conditions of every process first, then every ternary
        return ([(f"{path}.cond", s.line, s, "cond", _negated(s.cond))
                 for path, s in _stmts(ast, _PROCESSES) if isinstance(s, If)]
                + [(f"{path}.cond", e.line, e, "cond", _negated(e.cond))
                   for path, e in _design_exprs(ast) if isinstance(e, Ternary)])
    if bc == "BC04":
        return [(f"{path}^bit{bit}", e.line, e, "value", _masked(e.value ^ (1 << bit), e))
                for path, e in _design_exprs(ast) if isinstance(e, Literal)
                for bit in range(e.size if e.size is not None else max(1, e.value.bit_length()))]
    if bc == "BC05":
        return [(path, e.line, e, "value", _off_by_one(e))
                for path, e in _design_exprs(ast) if isinstance(e, Literal)]
    if bc == "BC06":
        states = fsm_state_names(design.seq_processes, design.params)
        return [(f"{path}.expr->{name}", s.line, s, "expr", _retargeted(s.expr, name))
                for path, s in _stmts(ast, AlwaysSeq)
                if isinstance(s, Assignment) and isinstance(s.expr, Ident)
                and s.expr.name in states.get(s.target, ())
                for name in states[s.target] if name != s.expr.name]
    if bc == "BC07":
        return [(f"{path}.item[{k}]", arm.line, s, "items", s.items[:k] + s.items[k + 1:])
                for path, s in _stmts(ast, AlwaysSeq)
                if isinstance(s, Case) and len(s.items) >= 2
                for k, arm in enumerate(s.items)]
    if bc == "BC08":
        # the reset branch is the then-branch of a clocked process's leading
        # if; that if is stmt[0], so the branch's statements count from 1
        states = fsm_state_names(design.seq_processes, design.params)
        return [site
                for i, item in enumerate(ast.items)
                if isinstance(item, AlwaysSeq) and item.body and isinstance(item.body[0], If)
                for j, s in enumerate(walk_stmts(item.body[0].then_body), 1)
                for site in _reset_sites(f"item[{i}].stmt[{j}]", s, states)]
    if bc == "BC09":
        return [(f"{path}.blocking", s.line, s, "blocking", not s.blocking)
                for path, s in _stmts(ast, _PROCESSES) if isinstance(s, Assignment)]
    if bc == "BC10":
        return [(f"item[{i}].event[{e}]", event.line, event, "edge",
                 "negedge" if event.edge == "posedge" else "posedge")
                for i, item in enumerate(ast.items) if isinstance(item, AlwaysSeq)
                for e, event in enumerate(item.events) if event.signal == signature.clock]
    raise ValueError(bc)


# --- distinctness -------------------------------------------------------------

def _exhaustive_tests(signature: DesignSignature):
    """Every stimulus input pattern as a one-cycle test, in counting order
    with the first column in the lowest bits."""
    columns = signature.stimulus_inputs
    for row in product(*(range(1 << p.width) for p in reversed(columns))):
        yield UnitTest("witness", columns, (row[::-1],))


def _random_tests(signature: DesignSignature, seed: int):
    """``RANDOM_TESTS`` seeded random tests of ``RANDOM_TEST_CYCLES`` cycles."""
    rng = random.Random(seed)
    columns = signature.stimulus_inputs
    reset = signature.reset
    for k in range(RANDOM_TESTS):
        rows = []
        for n in range(RANDOM_TEST_CYCLES):
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
        yield UnitTest(f"witness-{k}", columns, tuple(rows))


def find_witness(reference, mutant, signature, seed) -> Optional[UnitTest]:
    """Stimulus on which the two designs provably diverge, or None.

    Combinational designs with at most 12 stimulus bits are diffed
    exhaustively. A sequential pair that the product-machine search
    proves equivalent within ``RANDOM_TESTS * RANDOM_TEST_CYCLES`` steps
    (the random search's own cost) returns None at once. Everything else
    gets the seeded random tests, which stay the only source of
    sequential witnesses. The first test whose outputs differ is the
    witness.
    """
    if (not reference.is_sequential
            and sum(p.width for p in signature.stimulus_inputs) <= EXHAUSTIVE_INPUT_BITS):
        tests = _exhaustive_tests(signature)
    elif reference.is_sequential and product_search(reference, mutant, signature,
                                                    RANDOM_TESTS * RANDOM_TEST_CYCLES):
        return None
    else:
        tests = _random_tests(signature, seed)
    outputs = [p.name for p in signature.outputs]
    for test in tests:
        ref_tr = run(reference, test, signature)
        mut_tr = run(mutant, test, signature)
        if any(ref_tr.values[o] != mut_tr.values[o] for o in outputs):
            return test
    return None


# --- injection ------------------------------------------------------------------

def inject(problem: Problem, ast: DesignAst, op: MutationOperator, seed: int) -> MutantRecord:
    """Apply one operator at a seeded site and prove the result distinct.

    Sites are drawn uniformly (seeded) and retried until a mutant both
    elaborates with the problem's interface and diverges on a witness.
    ``ast`` is a parse of the problem's reference other than the one its
    design was elaborated from, so one parse serves every operator. Each
    candidate is ``ast`` with one edit applied, printed for its record
    and elaborated in place; the edit is undone before the next
    candidate, so a candidate design is valid only until then.
    """
    reference, signature, interface = problem.design, problem.signature, problem.interface
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
                if extract_signature(candidate, interface.clock) != interface:
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


def make_corpus(problem: Problem, seed: int) -> tuple[list[MutantRecord], list[SkippedOperator]]:
    """One record per applicable operator in BC order; inapplicable or
    equivalent-only operators are recorded as skipped with a reason."""
    records: list[MutantRecord] = []
    skipped: list[SkippedOperator] = []
    ast = parse_design(problem.reference)
    for op in OPERATORS:
        try:
            records.append(inject(problem, ast, op, seed))
        except NoApplicableSite:
            skipped.append(SkippedOperator(op.bc_id, op.kind, "no applicable site"))
        except NoDistinctMutant:
            skipped.append(
                SkippedOperator(op.bc_id, op.kind,
                                "no distinct mutant: every applicable site is equivalent")
            )
    return records, skipped
