import difflib

import pytest

from svloop import mutate
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
        record = inject(p.design, list_operators()[0], seed=7)
        assert record.bc_id == "BC01"
        mutant = elaborate_source(record.source)
        outputs = [q.name for q in p.signature.outputs]
        ref_trace = run(p.design, record.witness, p.signature)
        mut_trace = run(mutant, record.witness, p.signature)
        assert any(ref_trace.values[o] != mut_trace.values[o] for o in outputs)

    def test_full_adder_has_no_state_transition_site(self, problems):
        with pytest.raises(NoApplicableSite):
            inject(problems["full_adder"].design, list_operators()[5], seed=1)

    def test_arbiter_deleted_arm_diverges_only_after_sensitization(self, problems):
        p = problems["arbiter2"]
        record = inject(p.design, list_operators()[6], seed=1)
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
            for op in list_operators():
                try:
                    inject(problem.design, op, seed=1)
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
            for op in list_operators():
                rejected.clear()
                try:
                    record = inject(problem.design, op, seed=1)
                except (NoApplicableSite, NoDistinctMutant):
                    continue
                assert rejected, (problem.id, op.bc_id)
                fresh = parse_design(problem.reference)
                edits = {path: edit for path, _, edit in
                         _collect_sites(op, fresh, problem.design)}
                edits[record.site_path](fresh)
                assert record.source.text == ast_to_source(fresh), (problem.id, op.bc_id)
                checked += 1
        assert checked >= 20


class TestInjectErrors:
    def test_candidate_failing_elaboration_is_skipped(self, problems, monkeypatch):
        def failing(ast, source):
            raise ElaborationError("rejected for the test", 1, 0)

        monkeypatch.setattr(mutate, "elaborate", failing)
        with pytest.raises(NoDistinctMutant):
            inject(problems["counter3"].design, list_operators()[3], seed=1)

    def test_non_toolkit_exception_propagates(self, problems, monkeypatch):
        def broken(ast, source):
            raise RuntimeError("bug in the toolkit")

        monkeypatch.setattr(mutate, "elaborate", broken)
        with pytest.raises(RuntimeError, match="bug in the toolkit"):
            inject(problems["counter3"].design, list_operators()[3], seed=1)


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
