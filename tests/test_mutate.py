import difflib
import hashlib

import pytest

from svloop import mutate
from svloop.cli import main
from svloop.data import copy_corpus
from svloop.errors import ElaborationError, NoApplicableSite, NoDistinctMutant
from svloop.frontend import ast_to_source, elaborate_source, extract_signature, parse_design
from svloop.mutate import (
    RANDOM_TEST_CYCLES,
    RANDOM_TESTS,
    _collect_sites,
    _random_witness,
    find_witness,
    inject,
    list_operators,
    make_corpus,
)
from svloop.sim import run
from svloop.sim.engine import product_search

# applicability audit of the desk corpus, derived by hand from the designs
# and re-checked here against the real catalog
EXPECTED_RECORDS = {
    "full_adder": ["BC01", "BC02", "BC03", "BC04", "BC05", "BC09"],
    "adder4": ["BC02", "BC03", "BC04", "BC05"],
    "arbiter2": ["BC01", "BC02", "BC03", "BC04", "BC05",
                 "BC06", "BC07", "BC08", "BC09", "BC10"],
    "seq_detect": ["BC02", "BC03", "BC04", "BC05", "BC06", "BC07", "BC08", "BC10"],
    "counter3": ["BC03", "BC04", "BC05", "BC08", "BC10"],
}

SEQUENTIAL_ONLY = {"BC06", "BC07", "BC08", "BC10"}

# a 5-bit counter and a mutant that wraps from 30 instead of 31: they
# differ only once the count reaches 31, which no 20-cycle test can do
COUNT5 = """module count5 (
  input clk,
  input rst,
  output [4:0] count
);
  reg [4:0] value;
  always @(posedge clk or posedge rst) begin
    if (rst) begin
      value <= 5'd0;
    end else begin
      value <= NEXT;
    end
  end
  assign count = value;
endmodule
"""
COUNT5_REF = COUNT5.replace("NEXT", "value + 5'd1")
COUNT5_MUT = COUNT5.replace("NEXT", "(value == 5'd30) ? 5'd0 : value + 5'd1")


class TestCatalog:
    def test_exactly_ten_operators_in_bc_order(self):
        ops = list_operators()
        assert len(ops) == 10
        assert [op.bc_id for op in ops] == [f"BC{i:02d}" for i in range(1, 11)]

    def test_bc06_is_wrong_state_transition(self):
        assert list_operators()[5].kind == "wrong-state-transition"

    def test_catalog_is_stable(self):
        assert list_operators() == list_operators()


class TestInject:
    def test_full_adder_logic_swap_has_witness(self, problems):
        p = problems["full_adder"]
        record = inject(p.design, parse_design(p.reference), list_operators()[0], seed=7)
        assert record.bc_id == "BC01"
        mutant = elaborate_source(record.source)
        outputs = [q.name for q in p.signature.outputs]
        ref_trace = run(p.design, record.witness, p.signature)
        mut_trace = run(mutant, record.witness, p.signature)
        assert any(ref_trace.values[o] != mut_trace.values[o] for o in outputs)

    def test_full_adder_has_no_state_transition_site(self, problems):
        p = problems["full_adder"]
        with pytest.raises(NoApplicableSite):
            inject(p.design, parse_design(p.reference), list_operators()[5], seed=1)

    def test_arbiter_deleted_arm_diverges_only_after_sensitization(self, problems):
        p = problems["arbiter2"]
        record = inject(p.design, parse_design(p.reference), list_operators()[6], seed=1)
        mutant = elaborate_source(record.source)
        outputs = [q.name for q in p.signature.outputs]
        ref_trace = run(p.design, record.witness, p.signature)
        mut_trace = run(mutant, record.witness, p.signature)
        masks = [
            any(ref_trace.values[o][n] != mut_trace.values[o][n] for o in outputs)
            for n in range(record.witness.cycles)
        ]
        assert any(masks)
        first = masks.index(True)
        assert all(not m for m in masks[:first])
        assert first > 0  # never diverges during the initial reset cycle

    def test_signature_preserved(self, problems):
        for problem in problems.values():
            for bc_id, source, _ in problem.mutants():
                mutant = elaborate_source(source)
                assert extract_signature(mutant) == extract_signature(problem.design), (
                    problem.id, bc_id,
                )


class TestEquivalenceProof:
    def test_proven_equivalent_has_no_random_witness(self, problems, monkeypatch):
        # every sequential candidate inject reaches at seed 1: a product-search
        # proof of equivalence must agree with the full random search
        reached = []
        real = mutate.find_witness

        def recording(reference, candidate, signature, *args):
            reached.append((reference, candidate, signature))
            return real(reference, candidate, signature, *args)

        monkeypatch.setattr(mutate, "find_witness", recording)
        for problem in problems.values():
            if not problem.design.is_sequential:
                continue
            ast = parse_design(problem.reference)
            for op in list_operators():
                try:
                    inject(problem.design, ast, op, seed=1)
                except (NoApplicableSite, NoDistinctMutant):
                    pass
        proven = 0
        for reference, candidate, signature in reached:
            if product_search(reference, candidate, signature,
                              RANDOM_TESTS * RANDOM_TEST_CYCLES) is True:
                proven += 1
                assert _random_witness(reference, candidate, signature, 1) is None
        assert proven and len(reached) > proven

    def test_late_divergence_found_by_search_but_not_by_random_tests(self):
        reference = elaborate_source(COUNT5_REF)
        mutant = elaborate_source(COUNT5_MUT)
        signature = extract_signature(reference)
        assert product_search(reference, mutant, signature, 10_000) is False
        assert product_search(reference, reference, signature, 10_000) is True
        # too few steps to reach count 31: undecided
        assert product_search(reference, mutant, signature, 40) is None
        # a found mismatch is not a witness: 20-cycle random tests decide
        assert find_witness(reference, mutant, signature, seed=1) is None
        witness = find_witness(reference, mutant, signature, seed=1, budget=200, cycles=40)
        assert witness is not None
        ref_trace = run(reference, witness, signature)
        mut_trace = run(mutant, witness, signature)
        assert ref_trace.values["count"] != mut_trace.values["count"]


class TestCandidateIsolation:
    def test_later_candidates_carry_only_their_own_edit(self, problems, monkeypatch):
        # with the first candidate of every operator rejected, the record
        # comes from a later candidate; an edit leaking from one candidate
        # into the next would show as a second edit in its text
        real = mutate.find_witness
        rejected = []

        def reject_first(reference, candidate, *args):
            if not rejected:
                rejected.append(candidate)
                return None
            return real(reference, candidate, *args)

        monkeypatch.setattr(mutate, "find_witness", reject_first)
        checked = 0
        for problem in problems.values():
            ast = parse_design(problem.reference)
            for op in list_operators():
                rejected.clear()
                try:
                    record = inject(problem.design, ast, op, seed=1)
                except (NoApplicableSite, NoDistinctMutant):
                    continue
                assert rejected, (problem.id, op.bc_id)
                fresh = parse_design(problem.reference)
                edits = {path: (node, attribute, value) for path, _, node, attribute, value
                         in _collect_sites(op, fresh, problem.design, problem.signature)}
                node, attribute, value = edits[record.site_path]
                setattr(node, attribute, value)
                assert record.source.text == ast_to_source(fresh), (problem.id, op.bc_id)
                checked += 1
        assert checked >= 20

    def test_every_site_edits_only_its_candidate(self, problems):
        # applying and undoing each site on one parse leaves that parse as
        # it was, and prints what the same site prints on a parse of its own
        checked = 0
        for problem in problems.values():
            reference = parse_design(problem.reference)
            before = ast_to_source(reference)
            for op in list_operators():
                sites = _collect_sites(op, reference, problem.design, problem.signature)
                for path, _, node, attribute, value in sites:
                    original = getattr(node, attribute)
                    setattr(node, attribute, value)
                    text = ast_to_source(reference)
                    setattr(node, attribute, original)
                    assert ast_to_source(reference) == before, (problem.id, path)
                    assert text != before, (problem.id, path)
                    fresh = parse_design(problem.reference)
                    edits = {p: (n, a, v) for p, _, n, a, v
                             in _collect_sites(op, fresh, problem.design, problem.signature)}
                    fresh_node, fresh_attribute, fresh_value = edits[path]
                    setattr(fresh_node, fresh_attribute, fresh_value)
                    assert ast_to_source(fresh) == text, (problem.id, op.bc_id, path)
                    checked += 1
        assert checked >= 100


class TestParseCount:
    """``make_corpus`` parses the reference once for all ten operators, and
    ``inject`` parses each candidate it tries once."""

    @pytest.fixture()
    def parsed(self, monkeypatch):
        parsed = []
        real = mutate.parse_design

        def counting(source):
            parsed.append(source.origin)
            return real(source)

        # every candidate is rejected, so inject tries every site
        monkeypatch.setattr(mutate, "parse_design", counting)
        monkeypatch.setattr(mutate, "find_witness", lambda *args: None)
        return parsed

    def test_one_parse_per_candidate(self, problems, parsed):
        checked = 0
        for problem in problems.values():
            ast = parse_design(problem.reference)
            for op in list_operators():
                sites = _collect_sites(op, ast, problem.design, problem.signature)
                if len(sites) < 2:
                    continue
                parsed.clear()
                with pytest.raises(NoDistinctMutant):
                    inject(problem.design, ast, op, seed=1)
                assert len(parsed) == len(sites), (problem.id, op.bc_id)
                assert problem.reference.origin not in parsed, (problem.id, op.bc_id)
                checked += 1
        assert checked >= 20

    def test_one_parse_per_candidate_plus_the_reference(self, problems, parsed):
        for problem in problems.values():
            ast = parse_design(problem.reference)
            sites = sum(len(_collect_sites(op, ast, problem.design, problem.signature))
                        for op in list_operators())
            parsed.clear()
            records, skipped = make_corpus(problem.design, seed=1)
            assert records == [] and len(skipped) == len(list_operators()), problem.id
            assert len(parsed) == 1 + sites, problem.id
            assert parsed.count(problem.reference.origin) == 1, problem.id


class TestInjectErrors:
    def test_candidate_failing_elaboration_is_skipped(self, problems, monkeypatch):
        def failing(ast, source):
            raise ElaborationError("rejected for the test", 1, 0)

        p = problems["counter3"]
        monkeypatch.setattr(mutate, "elaborate", failing)
        with pytest.raises(NoDistinctMutant):
            inject(p.design, parse_design(p.reference), list_operators()[3], seed=1)

    def test_non_toolkit_exception_propagates(self, problems, monkeypatch):
        def broken(ast, source):
            raise RuntimeError("bug in the toolkit")

        p = problems["counter3"]
        monkeypatch.setattr(mutate, "elaborate", broken)
        with pytest.raises(RuntimeError, match="bug in the toolkit"):
            inject(p.design, parse_design(p.reference), list_operators()[3], seed=1)


class TestCorpusDigest:
    """`svloop mutate all` on the desk corpus writes the same bytes as
    before: SHA-256 over every file's relative path, length and bytes,
    the digest the benchmark pins per mutate seed."""

    PINNED = {
        1: "a83509fc9ba7b763e88219680047a23d5ba9cb4a2c0d5ee12ea57f7ae462b9c3",
        2: "9641d978348b830421035345c94fcf9a4528302e42f7d59f13f7f0c340a6e37f",
    }

    @staticmethod
    def tree_digest(root):
        h = hashlib.sha256()
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            data = path.read_bytes()
            h.update(path.relative_to(root).as_posix().encode() + b"\0")
            h.update(len(data).to_bytes(8, "big") + data)
        return h.hexdigest()

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_mutate_all_tree_is_pinned(self, seed, tmp_path):
        corpus = tmp_path / "corpus"
        copy_corpus(corpus)
        assert main(["mutate", "all", "--problems", str(corpus), "--seed", str(seed)]) == 0
        assert self.tree_digest(corpus) == self.PINNED[seed]


class TestCorpus:
    def test_expected_applicability(self, problems):
        for pid, expected in EXPECTED_RECORDS.items():
            records, skipped = make_corpus(problems[pid].design, seed=1)
            assert [r.bc_id for r in records] == expected, pid
            skipped_ids = {s.bc_id for s in records} | {s.bc_id for s in skipped}
            assert len(records) + len(skipped) == 10
            for s in skipped:
                assert s.reason

    def test_full_adder_at_least_six_with_sequential_only_skipped(self, problems):
        records, skipped = make_corpus(problems["full_adder"].design, seed=1)
        assert len(records) >= 6
        assert {s.bc_id for s in skipped} == SEQUENTIAL_ONLY

    def test_arbiter_all_ten(self, problems):
        records, skipped = make_corpus(problems["arbiter2"].design, seed=1)
        assert len(records) == 10 and not skipped

    def test_seed_stability(self, problems):
        p = problems["seq_detect"]
        a_records, a_skips = make_corpus(p.design, seed=5)
        b_records, b_skips = make_corpus(p.design, seed=5)
        assert [(r.bc_id, r.source.text, r.site_path, r.witness.rows) for r in a_records] == [
            (r.bc_id, r.source.text, r.site_path, r.witness.rows) for r in b_records
        ]
        assert a_skips == b_skips

    def test_different_seed_may_pick_different_sites(self, problems):
        p = problems["arbiter2"]
        texts = set()
        for seed in (1, 2, 3, 4):
            records, _ = make_corpus(p.design, seed=seed)
            by_id = {r.bc_id: r.source.text for r in records}
            texts.add(by_id["BC04"])
        assert len(texts) > 1

    def test_single_edit_property(self, problems):
        for problem in problems.values():
            reference_lines = problem.reference.text.splitlines()
            for bc_id, source, _ in problem.mutants():
                mutant_lines = source.text.splitlines()
                changed_blocks = 0
                for group in difflib.SequenceMatcher(
                    None, reference_lines, mutant_lines
                ).get_opcodes():
                    if group[0] != "equal":
                        changed_blocks += 1
                assert changed_blocks == 1, (problem.id, bc_id)

    def test_witness_replay_diverges(self, problems):
        for problem in problems.values():
            outputs = [q.name for q in problem.signature.outputs]
            for bc_id, source, witness in problem.mutants():
                mutant = elaborate_source(source)
                ref_trace = run(problem.design, witness, problem.signature)
                mut_trace = run(mutant, witness, problem.signature)
                assert any(
                    ref_trace.values[o] != mut_trace.values[o] for o in outputs
                ), (problem.id, bc_id)
