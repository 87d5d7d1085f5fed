"""Cycle-based simulator: execution, coverage, stimulus format, VCD."""
