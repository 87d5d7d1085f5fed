"""Output checks that do not trust the code under test.

Tree digests pin every byte a command wrote. AR/DR/DA are recomputed
from the stored VCD files with a naive loop and a VCD reader of the
benchmark's own, never through ``svloop.metrics`` or ``svloop.sim.vcd``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from svloop.frontend.ast import DesignSource
from svloop.frontend.elaborate import elaborate_source
from svloop.manifest import load_corpus
from svloop.sim.engine import run
from svloop.sim.stimulus import parse_stimulus


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root``: relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def read_vcd_values(path: Path) -> tuple[int, dict[str, list[int]]]:
    """(cycles, name -> per-cycle values) from a timestamp-per-cycle VCD."""
    names = {}
    changes: list[dict[str, int]] = []
    in_body = False
    for line in path.read_text("ascii").splitlines():
        if not in_body:
            parts = line.split()
            if parts[:1] == ["$var"]:
                names[parts[3]] = parts[4]
            elif parts[:1] == ["$enddefinitions"]:
                in_body = True
            continue
        if line.startswith("#"):
            changes.append({})
        elif line.startswith("b"):
            bits, ident = line[1:].split()
            changes[-1][names[ident]] = int(bits, 2)
        elif line and line[0] in "01" and line[1:] in names:
            changes[-1][names[line[1:]]] = int(line[0])
    values = {name: [] for name in names.values()}
    current: dict[str, int] = {}
    for cycle in changes:
        current.update(cycle)
        for name in values:
            values[name].append(current[name])
    return len(changes), values


def _pair(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def recompute_cells(problem_dir: Path, outputs: list[str]) -> list[str]:
    """Re-derive every evaluated cell's verdicts and AR/DR/DA from the
    oracle and cell VCDs; return one message per disagreement."""
    errors = []
    for result_file in sorted(problem_dir.glob("cells/*/*/result.json")):
        cell = json.loads(result_file.read_text("utf-8"))
        if "skipped" in cell:
            continue
        where = f"{problem_dir.name}/{cell['source']}->{cell['target']}"
        first_fail = None
        for row in cell["tests"]:
            oracle_file = problem_dir / "oracle" / cell["source"].lower() / f"{row['id']}.vcd"
            target_file = result_file.parent / "traces" / f"{row['id']}.vcd"
            n_oracle, oracle = read_vcd_values(oracle_file)
            n_target, target = read_vcd_values(target_file)
            if n_oracle != n_target or n_oracle != row["cycles"]:
                errors.append(f"{where}/{row['id']}: cycle counts disagree")
                continue
            mismatches = 0
            for c in range(n_oracle):
                for name in outputs:
                    if oracle[name][c] != target[name][c]:
                        mismatches += 1
                        break
            if mismatches != row["mismatch_cycles"] or row["outcome"] != ("fail" if mismatches else "pass"):
                errors.append(f"{where}/{row['id']}: stored verdict disagrees with the traces")
            if mismatches and first_fail is None:
                first_fail = (row["id"], Fraction(mismatches, n_oracle))
        ar = 0 if first_fail is None else 1
        dr = Fraction(0) if first_fail is None else first_fail[1]
        expected = {"ar": ar, "dr": _pair(dr), "da": _pair(dr if ar else Fraction(0)),
                    "first_failing": None if first_fail is None else first_fail[0]}
        stored = {key: cell[key] for key in expected}
        if stored != expected:
            errors.append(f"{where}: stored {stored} != recomputed {expected}")
    return errors


def witness_errors(corpus_root: Path) -> list[str]:
    """Every manifest witness must make the reference and its mutant
    produce different outputs."""
    errors = []
    for problem in load_corpus(corpus_root):
        manifest = json.loads((problem.root / "manifest.json").read_text("utf-8"))
        outputs = [p.name for p in problem.signature.outputs]
        for record in manifest["records"]:
            mutant = elaborate_source(DesignSource((problem.root / record["file"]).read_text("utf-8")))
            witness = parse_stimulus(record["witness"], problem.signature, "witness")
            ref = run(problem.design, witness, problem.signature)
            mut = run(mutant, witness, problem.signature)
            if all(ref.values[o] == mut.values[o] for o in outputs):
                errors.append(f"{problem.id}/{record['bc_id']}: witness does not distinguish")
    return errors


def corrupt_one_cell_vcd(run_dir: Path) -> Path:
    """Flip one value of the last declared port (an output, since ports are
    declared inputs first) after cycle 0 in the first cell trace where it
    changes; the self-test uses it to prove that corruption is caught."""
    for vcd in sorted(run_dir.glob("problems/*/cells/*/*/traces/*.vcd")):
        lines = vcd.read_bytes().split(b"\n")
        declared = [line.split() for line in lines if line.startswith(b"$var")]
        width, ident = declared[-1][2], declared[-1][3]
        if width != b"1" or b"#1" not in lines:
            continue
        for i in range(lines.index(b"#1"), len(lines)):
            if lines[i] in (b"0" + ident, b"1" + ident):
                lines[i] = (b"1" if lines[i][:1] == b"0" else b"0") + ident
                vcd.write_bytes(b"\n".join(lines))
                return vcd
    raise RuntimeError(f"no scalar output change to corrupt under {run_dir}")
