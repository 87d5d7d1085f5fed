import difflib
from dataclasses import FrozenInstanceError

import pytest

from support import tree_digest
from svloop import mutate
from svloop.cli import main
from svloop.data import copy_corpus
from svloop.errors import ElaborationError, NoApplicableSite, NoDistinctMutant, SvLoopError
from svloop.frontend.elaborate import elaborate_source
from svloop.frontend.parser import _Parser, parse_design
from svloop.frontend.printer import ast_to_source
from svloop.frontend.signature import extract_signature
from svloop.mutate import (
    OPERATORS,
    RANDOM_TEST_CYCLES,
    RANDOM_TESTS,
    _collect_sites,
    find_witness,
    inject,
    make_corpus,
)
from svloop.sim.engine import product_search, run
from svloop.sim.lower import harness_source, lowered_source

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
        assert len(OPERATORS) == 10
        assert [op.bc_id for op in OPERATORS] == [f"BC{i:02d}" for i in range(1, 11)]

    def test_bc06_is_wrong_state_transition(self):
        assert OPERATORS[5].kind == "wrong-state-transition"

    def test_catalog_is_stable(self):
        # a tuple of frozen records: nothing can reorder or edit the catalog
        assert isinstance(OPERATORS, tuple)
        with pytest.raises(FrozenInstanceError):
            OPERATORS[0].kind = "renamed"


class TestInject:
    def test_full_adder_logic_swap_has_witness(self, problems):
        p = problems["full_adder"]
        record = inject(p, parse_design(p.reference), OPERATORS[0], seed=7)
        assert record.bc_id == "BC01"
        mutant = elaborate_source(record.source)
        outputs = [q.name for q in p.signature.outputs]
        ref_trace = run(p.design, record.witness, p.signature)
        mut_trace = run(mutant, record.witness, p.signature)
        assert any(ref_trace.values[o] != mut_trace.values[o] for o in outputs)

    def test_full_adder_has_no_state_transition_site(self, problems):
        p = problems["full_adder"]
        with pytest.raises(NoApplicableSite):
            inject(p, parse_design(p.reference), OPERATORS[5], seed=1)

    def test_arbiter_deleted_arm_diverges_only_after_sensitization(self, problems):
        p = problems["arbiter2"]
        record = inject(p, parse_design(p.reference), OPERATORS[6], seed=1)
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
            for op in OPERATORS:
                try:
                    inject(problem, ast, op, seed=1)
                except (NoApplicableSite, NoDistinctMutant):
                    pass
        # with the search made undecided, find_witness runs the random tests
        monkeypatch.setattr(mutate, "product_search", lambda *args: None)
        proven = 0
        for reference, candidate, signature in reached:
            if product_search(reference, candidate, signature,
                              RANDOM_TESTS * RANDOM_TEST_CYCLES) is True:
                proven += 1
                assert real(reference, candidate, signature, 1) is None
        assert proven and len(reached) > proven

    def test_late_divergence_found_by_search_but_not_by_random_tests(self, monkeypatch):
        reference = elaborate_source(COUNT5_REF)
        mutant = elaborate_source(COUNT5_MUT)
        signature = extract_signature(reference)
        assert product_search(reference, mutant, signature, 10_000) is False
        assert product_search(reference, reference, signature, 10_000) is True
        # too few steps to reach count 31: undecided
        assert product_search(reference, mutant, signature, 40) is None
        # a found mismatch is not a witness: 20-cycle random tests decide
        assert find_witness(reference, mutant, signature, seed=1) is None
        monkeypatch.setattr(mutate, "RANDOM_TESTS", 200)
        monkeypatch.setattr(mutate, "RANDOM_TEST_CYCLES", 40)
        witness = find_witness(reference, mutant, signature, seed=1)
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
            for op in OPERATORS:
                rejected.clear()
                try:
                    record = inject(problem, ast, op, seed=1)
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
            for op in OPERATORS:
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


def design_facts(design):
    """What simulation, coverage and the corpus read of an elaborated design.
    Statement lines follow the text that was parsed, and an edited reference
    parse keeps the reference's, so only the number of statements counts."""
    try:
        signature = extract_signature(design)
        harness = harness_source(design, signature)
    except SvLoopError as error:
        signature = harness = type(error)
    return (lowered_source(design, False), lowered_source(design, True), signature, harness,
            design.fsm_registers, len(design.statement_lines), design.branch_arms)


class TestInPlaceCandidates:
    def test_every_desk_site_elaborates_as_its_printed_text(self, problems, monkeypatch):
        # every candidate that inject elaborates on the edited reference
        # parse is the design that a parse of its printed text gives
        real = mutate.elaborate
        checked = []

        def checking(ast, source):
            assert ast is shared
            try:
                candidate = real(ast, source)
            except SvLoopError as error:
                with pytest.raises(type(error)):
                    real(parse_design(source), source)
                raise
            reparsed = real(parse_design(source), source)
            assert design_facts(candidate) == design_facts(reparsed), source.text
            checked.append(source.text)
            return candidate

        monkeypatch.setattr(mutate, "elaborate", checking)
        monkeypatch.setattr(mutate, "find_witness", lambda *args: None)
        for problem in problems.values():
            shared = parse_design(problem.reference)
            before = ast_to_source(shared)
            for op in OPERATORS:
                try:
                    inject(problem, shared, op, seed=1)
                except (NoApplicableSite, NoDistinctMutant):
                    pass
                assert ast_to_source(shared) == before, (problem.id, op.bc_id)
        assert len(checked) == 165


class TestParseCount:
    """``make_corpus`` parses the reference once for all ten operators, and
    ``inject`` parses nothing: it elaborates each candidate from the edited
    reference parse."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = {"parsed": 0, "elaborated": 0}
        parse, elaborate = _Parser.parse_module, mutate.elaborate

        def counting_parse(parser):
            counts["parsed"] += 1
            return parse(parser)

        def counting_elaborate(ast, source):
            counts["elaborated"] += 1
            return elaborate(ast, source)

        # every candidate is rejected, so inject tries every site
        monkeypatch.setattr(_Parser, "parse_module", counting_parse)
        monkeypatch.setattr(mutate, "elaborate", counting_elaborate)
        monkeypatch.setattr(mutate, "find_witness", lambda *args: None)
        return counts

    def test_inject_parses_nothing(self, problems, counts):
        checked = 0
        for problem in problems.values():
            ast = parse_design(problem.reference)
            for op in OPERATORS:
                sites = _collect_sites(op, ast, problem.design, problem.signature)
                if len(sites) < 2:
                    continue
                counts.update(parsed=0, elaborated=0)
                with pytest.raises(NoDistinctMutant):
                    inject(problem, ast, op, seed=1)
                assert counts == {"parsed": 0, "elaborated": len(sites)}, (problem.id, op.bc_id)
                checked += 1
        assert checked >= 20

    def test_make_corpus_parses_the_reference_once(self, problems, counts):
        for problem in problems.values():
            counts.update(parsed=0)
            records, skipped = make_corpus(problem, seed=1)
            assert records == [] and len(skipped) == len(OPERATORS), problem.id
            assert counts["parsed"] == 1, problem.id


class TestInjectErrors:
    def test_candidate_failing_elaboration_is_skipped(self, problems, monkeypatch):
        def failing(ast, source):
            raise ElaborationError("rejected for the test", 1, 0)

        p = problems["counter3"]
        monkeypatch.setattr(mutate, "elaborate", failing)
        with pytest.raises(NoDistinctMutant):
            inject(p, parse_design(p.reference), OPERATORS[3], seed=1)

    def test_non_toolkit_exception_propagates(self, problems, monkeypatch):
        def broken(ast, source):
            raise RuntimeError("bug in the toolkit")

        p = problems["counter3"]
        monkeypatch.setattr(mutate, "elaborate", broken)
        with pytest.raises(RuntimeError, match="bug in the toolkit"):
            inject(p, parse_design(p.reference), OPERATORS[3], seed=1)


class TestCorpusDigest:
    """`svloop mutate all` on the desk corpus writes the same bytes as
    before for mutate seeds 1-12: SHA-256 over every file's relative path,
    length and bytes, the digest the benchmark pins for seeds 1 and 2."""

    PINNED = {
        1: "a83509fc9ba7b763e88219680047a23d5ba9cb4a2c0d5ee12ea57f7ae462b9c3",
        2: "9641d978348b830421035345c94fcf9a4528302e42f7d59f13f7f0c340a6e37f",
        3: "64e0875f864548f93178c272381962b767846b2e106b4c159bbb9951b22757b9",
        4: "aedadb50ef4c38e02ba91d75097c23a25c3cfa6543b7ebf7698ccbd0b622ba36",
        5: "eb3a0ae198f0d83c1d8b1f645a3078136be8a406d64a07068783533e259fb854",
        6: "d40897bd05d0ca1d0ef19eb7be7a3f33c382f4b88e4f27536e0d01b0d08aa871",
        7: "a64bb224718adc67d378fd98f223e598ecc2980e3959aaa8690f807d5dbdbf02",
        8: "d4d1f53dc2ea675e555c188a82d0b9e33ab71afdb72a68d27b19343c6c83370e",
        9: "a0a1abaa8e2c07dd5d38b188f440e329a08510b8a47ef26b71dc99cbfcc5c453",
        10: "01ffac579ef3d6f44441390b287f9fcf2cafa7c01cb682ea6905d552bb821280",
        11: "dd4c46f879d7f949c52c1fd226e361ef91d9f05bc676689a2d9bb0f57c1e026a",
        12: "2adea5a7b6bd73129402f60848e01ad5db0b258ddb263a16ee034aa9a03805b9",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED))
    def test_mutate_all_tree_is_pinned(self, seed, tmp_path):
        corpus = tmp_path / "corpus"
        copy_corpus(corpus)
        assert main(["mutate", "all", "--problems", str(corpus), "--seed", str(seed)]) == 0
        assert tree_digest(corpus) == self.PINNED[seed]


class TestCorpus:
    def test_expected_applicability(self, problems):
        for pid, expected in EXPECTED_RECORDS.items():
            records, skipped = make_corpus(problems[pid], seed=1)
            assert [r.bc_id for r in records] == expected, pid
            skipped_ids = {s.bc_id for s in records} | {s.bc_id for s in skipped}
            assert len(records) + len(skipped) == 10
            for s in skipped:
                assert s.reason

    def test_full_adder_at_least_six_with_sequential_only_skipped(self, problems):
        records, skipped = make_corpus(problems["full_adder"], seed=1)
        assert len(records) >= 6
        assert {s.bc_id for s in skipped} == SEQUENTIAL_ONLY

    def test_arbiter_all_ten(self, problems):
        records, skipped = make_corpus(problems["arbiter2"], seed=1)
        assert len(records) == 10 and not skipped

    def test_seed_stability(self, problems):
        p = problems["seq_detect"]
        a_records, a_skips = make_corpus(p, seed=5)
        b_records, b_skips = make_corpus(p, seed=5)
        assert [(r.bc_id, r.source.text, r.site_path, r.witness.rows) for r in a_records] == [
            (r.bc_id, r.source.text, r.site_path, r.witness.rows) for r in b_records
        ]
        assert a_skips == b_skips

    def test_different_seed_may_pick_different_sites(self, problems):
        p = problems["arbiter2"]
        texts = set()
        for seed in (1, 2, 3, 4):
            records, _ = make_corpus(p, seed=seed)
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
