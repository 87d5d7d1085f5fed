"""Attack rate, divergence rate, divergent attack, and 5-bin histograms.

AR is the fraction of targets whose suite produced a failing trace.
DR is read off the verdict of the suite's first failing test: the
fraction of its cycles on which any output disagrees with the oracle.
DA gates DR by attack success: the set-intersection notation in the
source material has no formal definition, so the gating reading lives
entirely behind ``divergent_attack``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .verdict import Verdict


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
    """Decode the ratio ``name`` as the run directory stores it: an int or
    an ``[numerator, denominator]`` pair of ints, in [0, 1], where a bool
    is not an int; ``ar`` is the int 0 or 1."""
    parts = value if isinstance(value, list) and len(value) == 2 and name != "ar" else [value]
    if not all(type(part) is int for part in parts):
        raise ValueError(f"{name} {value!r} (not an integer"
                         f"{'' if name == 'ar' else ' or a pair of integers'})")
    ratio = Fraction(*parts)
    if not 0 <= ratio <= 1:
        raise ValueError(f"{name} {value!r} (outside [0, 1])")
    return ratio


def stored_pair(ratio: Fraction) -> list[int]:
    """The ``[numerator, denominator]`` pair that ``stored_ratio`` reads."""
    return [ratio.numerator, ratio.denominator]


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
