"""Attack rate, divergence rate, divergent attack, 5-bin histograms, and
the records of the run directory that hold them.

AR is the fraction of targets whose suite produced a failing trace.
DR is read off the verdict of the suite's first failing test: the
fraction of its cycles on which any output disagrees with the oracle.
DA gates DR by attack success: the set-intersection notation in the
source material has no formal definition, so the gating reading lives
entirely behind ``divergent_attack``.

Each record (``genstate.json``, ``result.json``, ``state.json`` and a
``matrix.json`` cell) has one encoder here, and a resume and ``report``
accept a record exactly when encoding the facts read from it gives it back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .verdict import Verdict

METRICS = ("ar", "dr", "da")


@dataclass(frozen=True)
class BinnedDistribution:
    counts: tuple[int, int, int, int, int]
    median: Fraction
    median_bin: int              # 1-based

    def as_dict(self) -> dict:
        return {
            "counts": list(self.counts),
            "median": float(self.median),
            "median_bin": self.median_bin,
        }


def attack_rate(verdicts) -> Fraction:
    """Fraction of per-problem suite verdicts that failed (detected a bug)."""
    verdicts = list(verdicts)
    if not verdicts:
        raise ValueError("attack_rate of an empty verdict list")
    failed = sum(1 for v in verdicts if not v.passed)
    return Fraction(failed, len(verdicts))


def divergence_rate(verdict: Verdict) -> Fraction:
    """Fraction of the verdict's cycles on which any output differs."""
    return Fraction(verdict.mismatch_count, verdict.cycles)


def divergent_attack(ar: int, dr: Fraction) -> Fraction:
    """DR gated by attack success; (1, 0) is rejected as inconsistent since
    a failing run diverges on at least one cycle by construction."""
    if ar not in (0, 1):
        raise ValueError("ar must be 0 or 1")
    dr = Fraction(dr)
    if not 0 <= dr <= 1:
        raise ValueError("dr must lie in [0, 1]")
    if ar == 0:
        return Fraction(0)
    if dr == 0:
        raise ValueError("inconsistent pair: attack succeeded but divergence is zero")
    return dr


def stored_ratio(value, name: str) -> Fraction:
    """Decode the ratio ``name`` as ``stored_pair`` writes it: an
    ``[numerator, denominator]`` pair of ints in [0, 1], where a bool is
    not an int."""
    if not (type(value) is list and len(value) == 2 and all(type(part) is int for part in value)):
        raise ValueError(f"{name} {value!r} (not a pair of integers)")
    ratio = Fraction(*value)
    if not 0 <= ratio <= 1:
        raise ValueError(f"{name} {value!r} (outside [0, 1])")
    return ratio


def stored_pair(ratio: Fraction) -> list[int]:
    """The ``[numerator, denominator]`` pair that ``stored_ratio`` reads."""
    return [ratio.numerator, ratio.denominator]


# --- the records of the run directory --------------------------------------
# A fresh run writes each record with its encoder. A reader reads only the
# record's facts and works out every other field again from them.

def unit_test_id(prefix: str, iteration: int) -> str:
    """The id of the test that generation iteration ``iteration`` accepts."""
    return f"{prefix}{iteration:02d}"


def _same(a, b) -> bool:
    """Whether the JSON values ``a`` and ``b`` are equal and of one type
    throughout: a ``true`` is not a ``1``, nor a ``1`` a ``1.0``."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _given_back(record, encoded: dict) -> dict:
    """``record``, when ``encoded``, the encoding of the facts read from it,
    is ``record`` exactly; otherwise a ValueError naming the first field, in
    sorted order, that differs."""
    if not _same(record, encoded):
        name = next(name for name in sorted(record.keys() | encoded.keys())
                    if name not in record or name not in encoded
                    or not _same(record[name], encoded[name]))
        raise ValueError(f"{name!r} (not what a fresh run writes with the rest of the record)")
    return record


def _rejection(iteration: int, reason, detail) -> dict:
    """A rejection as a record holds it, each field of the type a fresh run
    writes, so that one read with another type does not come back."""
    return {"iteration": iteration, "reason": str(reason), "detail": str(detail)}


def _unanswered(rejections: list[dict]) -> int:
    """The iterations that made no provider call: their prompt was refused,
    or the provider failed."""
    return sum(r["reason"] in ("prompt", "provider") for r in rejections)


def _by_iteration(rejections) -> dict:
    """Each stored rejection's ``(reason, detail)``, keyed by its iteration."""
    return {r["iteration"]: (r["reason"], r["detail"]) for r in rejections}


def gen_record(prefix: str, coverage, rejections) -> dict:
    """genstate.json of a source whose tests are named ``prefix`` and their
    iteration: each accepted test's scalar coverage, in order, and each
    rejected iteration's ``(reason, detail)``, keyed by iteration. Every
    other iteration accepted a test, and the best coverage is the last
    test's."""
    iterations = range(1, len(coverage) + len(rejections) + 1)
    rejected = [_rejection(i, *rejections[i]) for i in iterations if i in rejections]
    return {
        "tests": [unit_test_id(prefix, i) for i in iterations if i not in rejections],
        "best_coverage": stored_pair(coverage[-1] if coverage else Fraction(0)),
        "accepted_coverage": [stored_pair(c) for c in coverage],
        "iterations": len(iterations),
        "provider_calls": len(iterations) - _unanswered(rejected),
        "rejections": rejected,
    }


def read_gen_record(record: dict, prefix: str) -> dict:
    """The genstate.json ``record`` of the source whose tests are named
    ``prefix``."""
    coverage = [stored_ratio(c, "accepted_coverage") for c in record["accepted_coverage"]]
    return _given_back(record, gen_record(prefix, coverage, _by_iteration(record["rejections"])))


def cell_entry(ar: int, dr: Fraction) -> dict:
    """A cell's matrix.json entry: its AR and DR, and the DA they give."""
    return {"ar": ar, "dr": stored_pair(dr), "da": stored_pair(divergent_attack(ar, dr))}


def read_cell_entry(entry: dict) -> dict[str, Fraction]:
    """The AR, DR and DA of the matrix.json cell ``entry``."""
    ar, dr = int(entry["ar"]), stored_ratio(entry["dr"], "dr")
    _given_back(entry, cell_entry(ar, dr))
    return {"ar": Fraction(ar), "dr": dr, "da": divergent_attack(ar, dr)}


def cell_record(source: str, target: str, outcome) -> dict:
    """result.json of the cell ``source`` -> ``target``: ``outcome`` is the
    reason the cell was skipped, or each test's ``(id, verdict)`` in suite
    order. The cell is attacked when a test fails, and its DR is the first
    failing test's divergence rate."""
    if isinstance(outcome, str):
        return {"source": source, "target": target, "skipped": outcome}
    first = next(((tid, v) for tid, v in outcome if not v.passed), None)
    ar = int(first is not None)
    return {
        "source": source,
        "target": target,
        **cell_entry(ar, divergence_rate(first[1]) if ar else Fraction(0)),
        "first_failing": first[0] if ar else None,
        "tests": [{"id": tid, "outcome": v.outcome, "mismatch_cycles": v.mismatch_count,
                   "cycles": v.cycles} for tid, v in outcome],
    }


def read_cell_record(record: dict, source: str, target: str, test_ids) -> dict:
    """The result.json ``record`` of the cell ``source`` -> ``target``, whose
    suite is the tests ``test_ids`` of its source, in order."""
    from .verdict import Verdict  # not at the top: report loads this module, never verdict

    if "skipped" in record:
        outcome = str(record["skipped"])
    else:
        outcome = [(tid, Verdict(int(t["mismatch_cycles"]), int(t["cycles"])))
                   for tid, t in zip(test_ids, record["tests"])]
    return _given_back(record, cell_record(source, target, outcome))


def debug_record(outcome, attempts=()) -> dict:
    """state.json of a debug target: ``outcome`` is the reason the target was
    skipped, or its initial pass fraction, with each repair iteration's
    ``(accepted, pass fraction, rejection)`` in ``attempts``. An accepted
    patch sets the best pass fraction, and one that is not is a
    ``pass-fraction`` rejection; an iteration without a pass fraction failed
    as its ``(reason, detail)`` rejection says."""
    if isinstance(outcome, str):
        return {"skipped": outcome}
    best, history, rejections = outcome, [], []
    for iteration, (accepted, fraction, rejection) in enumerate(attempts, 1):
        if accepted:
            reason = "pass fraction increased"
        elif fraction is not None:
            rejections.append(_rejection(iteration, "pass-fraction",
                                         "patch did not improve pass fraction"))
            reason = (f"pass fraction {float(fraction):.3f} did not improve on "
                      f"{float(best):.3f}")
        else:
            rejections.append(_rejection(iteration, *rejection))
            reason = f"{rejections[-1]['reason']}: {rejections[-1]['detail']}"
        history.append({"iteration": iteration, "accepted": accepted, "reason": reason,
                        "pass_fraction": None if fraction is None else stored_pair(fraction)})
        if accepted:
            best = fraction
    return {
        "initial_pass": stored_pair(outcome),
        "best_pass": stored_pair(best),
        "solved": best == 1,
        "iterations": len(history),
        "provider_calls": len(history) - _unanswered(rejections),
        "history": history,
        "rejections": rejections,
    }


def read_debug_record(record: dict) -> dict:
    """The state.json ``record`` of a debug target, which matrix.json holds
    too: an iteration's rejection is read only for an iteration without a
    pass fraction, and every other is worked out again."""
    if "skipped" in record:
        return _given_back(record, debug_record(str(record["skipped"])))
    failures = _by_iteration(record["rejections"])
    attempts = [(bool(h["accepted"]), None, failures[i]) if h["pass_fraction"] is None
                else (bool(h["accepted"]), stored_ratio(h["pass_fraction"], "pass_fraction"), None)
                for i, h in enumerate(record["history"], 1)]
    initial_pass = stored_ratio(record["initial_pass"], "initial_pass")
    return _given_back(record, debug_record(initial_pass, attempts))


def bin_index(value) -> int:
    """1-based bin for a ratio: [0,.2) [.2,.4) [.4,.6) [.6,.8) [.8,1]."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    n, d = value.numerator, value.denominator  # d > 0
    if not 0 <= n <= d:
        raise ValueError(f"ratio {value} outside [0, 1]")
    # n/d < k/5 exactly when 5n // d < k: the bin of the first edge above n/d
    return min(5 * n // d, 4) + 1


def bin_values(values) -> BinnedDistribution:
    """Equally spaced 5-bin histogram with the lower-middle median.

    Order-independent; boundary values fall upward except 100%, which
    closes the top bin.
    """
    values = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    if not values:
        raise ValueError("cannot bin an empty value list")
    counts = [0, 0, 0, 0, 0]
    for v in values:
        counts[bin_index(v) - 1] += 1
    ordered = sorted(values)
    median = ordered[(len(ordered) - 1) // 2]
    return BinnedDistribution(tuple(counts), median, bin_index(median))
