"""Mutants and patches keep the problem's interface: their signatures are
inferred with the problem's clock and compared with the reference's,
inferred the same way.

The fixture problems under ``fixtures/`` are ones whose manifest fixes a
role that inference alone gets wrong: ``two_clocks`` clocks a second
process on the input ``clk2``, and ``hidden_reset`` names a synchronous
reset whose branch loads a data input, which inference does not take
for a reset.
"""

import json
import shutil
from pathlib import Path

import pytest

from svloop.cli import main
from svloop.errors import AmbiguousClock, PatchRejected
from svloop.frontend.elaborate import elaborate_source
from svloop.frontend.signature import extract_signature
from svloop.gateway.extract import parse_patch
from svloop.loops import debug
from svloop.manifest import RunConfig, load_problem
from svloop.metrics import debug_record
from svloop.sim.engine import run

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(params=["two_clocks", "hidden_reset"])
def mutated(request, tmp_path, capsys):
    """A one-problem corpus of the fixture, after `svloop mutate all`."""
    root = tmp_path / "corpus"
    shutil.copytree(FIXTURES / request.param, root / "problems" / request.param)
    code = main(["mutate", "all", "--problems", str(root)])
    assert code == 0, capsys.readouterr().err
    return load_problem(root / "problems" / request.param)


class ReferenceResponder:
    """Answers every prompt with the problem's own reference design."""

    def __init__(self, problem):
        self.text = f"```systemverilog\n{problem.reference.text}```\n"

    def complete(self, prompt, cfg):
        return self.text


def test_mutate_writes_mutants_that_keep_the_interface(mutated):
    mutants = mutated.mutants()
    assert mutants
    for _, source, _ in mutants:
        design = elaborate_source(source)
        assert extract_signature(design, mutated.signature.clock) == mutated.interface


def test_the_reference_is_an_accepted_patch(mutated):
    design = parse_patch(mutated.reference.text, mutated.interface)
    assert design.source.text == mutated.reference.text


def test_debug_accepts_the_reference_as_the_fix(mutated, tmp_path):
    config = RunConfig(provider="mock", script_dir=str(tmp_path), seed=1)
    for bc_id, source, witness in mutated.mutants():
        oracle_trace = run(mutated.design, witness, mutated.signature)
        state = debug(mutated, elaborate_source(source), [witness], {witness.id: oracle_trace},
                      config, ReferenceResponder(mutated))
        assert state.initial_pass == 0, bc_id
        record = debug_record(state.initial_pass, state.history)
        assert record["solved"] and state.history[0].accepted, (bc_id, record["rejections"])


def test_a_clock_that_drives_no_process_is_refused(problems):
    design = problems["arbiter2"].design
    with pytest.raises(AmbiguousClock, match="'r1' drives no clocked process"):
        extract_signature(design, "r1")
    with pytest.raises(AmbiguousClock, match="'clk' drives no clocked process"):
        extract_signature(problems["full_adder"].design, "clk")


def test_a_manifest_clock_that_drives_no_process_is_refused(fresh_corpus):
    problem_dir = fresh_corpus / "problems" / "counter3"
    manifest = json.loads((problem_dir / "problem.json").read_text())
    manifest["clock"] = "en"
    (problem_dir / "problem.json").write_text(json.dumps(manifest))
    with pytest.raises(AmbiguousClock, match="'en' drives no clocked process"):
        load_problem(problem_dir)


def test_a_patch_clocked_on_another_input_is_a_signature_rejection(problems):
    p = problems["arbiter2"]
    text = p.reference.text.replace("posedge clk", "posedge r1")
    assert text != p.reference.text
    with pytest.raises(PatchRejected) as exc:
        parse_patch(text, p.interface)
    assert exc.value.reason == "signature"
