"""Dataset layout, problem manifests, and run configuration.

A corpus directory holds ``exemplars.json`` and ``problems/<name>/`` with
``problem.json``, a description, the reference design, and (after
``svloop mutate``) ``bc01.sv``.. mutant files plus a ``manifest.json``
recording operator, site, seed, and witness stimulus per mutant.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from . import __version__
from .errors import ManifestError, _read_json, _read_text, _required_keys, _write_bytes, _write_json
from .frontend.ast import DesignSource
from .frontend.elaborate import ElaboratedDesign, elaborate_source
from .frontend.signature import DesignSignature, ResetSpec, SignaturePort, extract_signature
from .gateway.config import Exemplar
from .sim.stimulus import UnitTest, parse_stimulus

if TYPE_CHECKING:
    from .mutate import MutantRecord, SkippedOperator

CORPUS_MANIFEST = "manifest.json"
PROBLEM_MANIFEST = "problem.json"


@dataclass
class Problem:
    id: str
    root: Path
    description: str
    design: ElaboratedDesign
    signature: DesignSignature
    exemplars: tuple[Exemplar, ...]

    @property
    def reference(self) -> DesignSource:
        return self.design.source

    @property
    def kind(self) -> str:
        return "sequential" if self.design.is_sequential else "combinational"

    @cached_property
    def interface(self) -> DesignSignature:
        """The reference's signature inferred with the problem's clock: a
        mutant or patch keeps the interface when its own signature, inferred
        with this clock, equals it."""
        return extract_signature(self.design, self.signature.clock)

    def keeps_interface(self, design: ElaboratedDesign) -> bool:
        """Whether ``design`` may stand in for the reference: a mutant,
        patch or evaluation target must keep the interface, or the
        problem's stimuli and traces do not fit it."""
        return extract_signature(design, self.signature.clock) == self.interface

    def mutants(self) -> list[tuple[str, DesignSource, UnitTest]]:
        """(bc id, source, witness) for every mutant recorded on disk."""
        manifest_file = self.root / CORPUS_MANIFEST
        if not manifest_file.exists():
            return []
        out = []
        # every statement in the loop consumes a value read from the file
        with _required_keys(manifest_file):
            for record in _read_json(manifest_file).get("records", []):
                text = _read_text(self.root / record["file"])
                source = DesignSource(text, f"mutant {record['bc_id']}")
                witness = parse_stimulus(record["witness"], self.signature, "witness")
                out.append((record["bc_id"], source, witness))
        return out


def _load_exemplars(path: Path) -> tuple[Exemplar, ...]:
    data = _read_json(path)
    with _required_keys(path):
        return tuple(
            Exemplar(e["description"], e["signature_text"], e["unit_test_text"]) for e in data
        )


def _flag(record: dict, name: str, default: bool) -> bool:
    """The JSON boolean ``record[name]``, ``default`` when it is absent."""
    value = record.get(name, default)
    if type(value) is not bool:
        raise ValueError(f"{name!r} {value!r} (not true or false)")
    return value


def load_problem(problem_dir) -> Problem:
    problem_dir = Path(problem_dir)
    manifest_file = problem_dir / PROBLEM_MANIFEST
    if not manifest_file.exists():
        raise ManifestError(f"missing {PROBLEM_MANIFEST} in {problem_dir}")
    raw = _read_json(manifest_file)
    with _required_keys(manifest_file):
        problem_id, kind = raw["id"], raw["kind"]
        # the id names the problem's directory in a run directory
        if (type(problem_id) is not str or problem_id in ("", ".", "..")
                or "/" in problem_id or "\0" in problem_id):
            raise ValueError(f"'id' {problem_id!r} (not the name of one path component)")
        description_file = problem_dir / raw["description"]
        reference_file = problem_dir / raw["reference"]
        exemplars_path = raw.get("exemplars")
        exemplar_file = (problem_dir / exemplars_path).resolve() if exemplars_path else None
        reset = None
        if raw.get("reset"):
            r = raw["reset"]
            reset = ResetSpec(r["name"], _flag(r, "active_high", True),
                              _flag(r, "synchronous", False))
    if kind not in ("combinational", "sequential"):
        raise ManifestError(f"{problem_id}: kind must be combinational or sequential")

    for f in (description_file, reference_file):
        if not f.exists():
            raise ManifestError(f"{problem_id}: referenced file {f} does not exist")
    description = _read_text(description_file)
    if not description.strip():
        raise ManifestError(f"{problem_id}: description {description_file} is empty")
    design = elaborate_source(DesignSource(_read_text(reference_file), "reference"))
    if design.is_sequential != (kind == "sequential"):
        raise ManifestError(
            f"{problem_id}: kind {kind!r} is inconsistent with the design "
            f"({len(design.seq_processes)} clocked processes)"
        )
    signature = extract_signature(design, raw.get("clock"))
    if reset is not None:
        # the reset is driven from the stimulus like any other input
        if SignaturePort(reset.name, 1) not in signature.stimulus_inputs:
            raise ManifestError(f"{problem_id}: {manifest_file} names reset {reset.name!r}, "
                                f"which is not a 1-bit input other than the clock")
        signature = replace(signature, reset=reset)

    exemplars: tuple[Exemplar, ...] = ()
    if exemplar_file is not None:
        if not exemplar_file.exists():
            raise ManifestError(f"{problem_id}: exemplar library {exemplar_file} missing")
        exemplars = _load_exemplars(exemplar_file)
    return Problem(problem_id, problem_dir, description, design, signature, exemplars)


def load_corpus(corpus_root) -> list[Problem]:
    """All problems under <root>/problems, in the order of their directory
    names; two with one id are a ManifestError naming both."""
    corpus_root = Path(corpus_root)
    problems_dir = corpus_root / "problems"
    if not problems_dir.is_dir():
        raise ManifestError(f"{corpus_root} has no problems/ directory")
    problems = {}
    for sub in sorted(problems_dir.iterdir()):
        if sub.is_dir() and (sub / PROBLEM_MANIFEST).exists():
            problem = load_problem(sub)
            if problem.id in problems:
                raise ManifestError(f"{problems[problem.id].root / PROBLEM_MANIFEST} and "
                                    f"{sub / PROBLEM_MANIFEST} both have id {problem.id!r}")
            problems[problem.id] = problem
    if not problems:
        raise ManifestError(f"no problems found under {problems_dir}")
    return list(problems.values())


def write_mutation_corpus(
    problem: Problem,
    records: list[MutantRecord],
    skipped: list[SkippedOperator],
    seed: int,
) -> Path:
    """Write bcXX.sv files plus the corpus manifest; deterministic bytes."""
    for record in records:
        name = f"{record.bc_id.lower()}.sv"
        _write_bytes(problem.root / name, record.source.text.encode())
    manifest = {
        "problem": problem.id,
        "seed": seed,
        "records": [
            dict(record.as_dict(), file=f"{record.bc_id.lower()}.sv") for record in records
        ],
        "skipped": [asdict(s) for s in skipped],
    }
    out = problem.root / CORPUS_MANIFEST
    _write_json(out, manifest)
    return out


@dataclass(frozen=True)
class RunConfig:
    """The settings of a run, from the command line to the loops."""

    strategy: str = "nlsc"
    shots: int = 0
    provider: str = "mock"
    script_dir: Optional[str] = None
    seed: int = 1
    iteration_cap: int = 5
    mismatch_limit: int = 20
    jobs: int = 1

    def __post_init__(self):
        # the rules report applies to run_config.json; `svloop mutate` builds
        # no RunConfig, so it does not load report
        from .report import validate_report

        validate_report({"config": self.as_dict()}, "run configuration", ValueError)
        # every number the schema allows is an integer, and it takes an
        # integral float as one (draft-07): keep the int it stands for
        for name, value in vars(self).items():
            if isinstance(value, float):
                object.__setattr__(self, name, int(value))

    def as_dict(self) -> dict:
        # every field is a str, an int or None; the tool version comes last
        return {**vars(self), "version": __version__}
