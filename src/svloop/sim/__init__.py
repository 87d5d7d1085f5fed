"""Cycle-based simulator: execution, coverage, stimulus format, VCD."""

from .coverage import CoverageCollector, CoverageReport, collect_coverage
from .engine import Trace, run
from .stimulus import UnitTest, parse_stimulus
from .vcd import export_vcd, read_vcd

__all__ = [
    "CoverageCollector",
    "CoverageReport",
    "Trace",
    "UnitTest",
    "collect_coverage",
    "export_vcd",
    "parse_stimulus",
    "read_vcd",
    "run",
]
