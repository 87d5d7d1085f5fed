"""Deterministic, oracle-backed stand-in for the LLM, and the recording of
a digest-keyed mock script from it.

The responder answers generation prompts with seeded pseudo-random
stimulus and debug prompts with the reference module text, so an
`evaluate` run needs no network. The benchmark keeps its own copy so
that edits to the test suite cannot move the benchmark's inputs.
"""

from __future__ import annotations

import hashlib
import random
import re
from pathlib import Path

from svloop.gateway.providers import RecordingProvider
from svloop.manifest import RunConfig
from svloop.matrix import evaluate_problem


class OracleBackedResponder:
    """Fake provider; the answer is a pure function of (prompt, seed)."""

    def __init__(self, problems, seed):
        self.by_module = {p.signature.module_name: p for p in problems}
        self.seed = seed

    def _problem_of(self, prompt):
        match = re.search(r"^module (\w+) \($", prompt, re.M)
        if match is None:
            match = re.search(r"^module (\w+)$", prompt, re.M)
        return self.by_module[match.group(1)]

    def complete(self, prompt, cfg):
        problem = self._problem_of(prompt)
        if "corrected SystemVerilog module" in prompt:
            return "Here is the corrected module:\n\n" + problem.reference.text
        signature = problem.signature
        rng = random.Random(hashlib.sha256(f"{prompt}|{self.seed}".encode()).hexdigest())
        cycles = 8 if signature.clock is None else 16
        reset = signature.reset
        rows = []
        for n in range(cycles):
            row = []
            for port in signature.stimulus_inputs:
                if reset is not None and port.name == reset.name:
                    asserted = n < 2 or rng.random() < 0.08
                    level = 1 if reset.active_high else 0
                    row.append(f"{level if asserted else 1 - level:01b}")
                else:
                    row.append(f"{rng.getrandbits(port.width):0{port.width}b}")
            rows.append(" ".join(row))
        return ("A unit test that exercises the design:\n\n"
                + signature.stimulus_header() + "\n" + "\n".join(rows) + "\n")


def record_mock_script(problems, script_dir: str, record_dir: Path, seed: int) -> None:
    """Evaluate every problem through the public API with the responder,
    then save the prompts it saw as a digest-keyed script.

    ``script_dir`` is the relative path the CLI run will be given, so the
    configuration recorded here matches the replay's byte for byte.
    """
    recorder = RecordingProvider(OracleBackedResponder(problems, seed))
    config = RunConfig(provider="mock", script_dir=script_dir, seed=1)
    for problem in sorted(problems, key=lambda p: p.id):
        evaluate_problem(problem, config, recorder, record_dir / problem.id)
    recorder.save_script(script_dir)
