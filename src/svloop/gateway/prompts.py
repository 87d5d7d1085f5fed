"""Structured prompt construction from editable template files.

Section order for generation: task description, signature, buggy source
(NLSC only), few-shot exemplars, coverage feedback with the prior test,
then the output-format contract. Debug prompts end with the named
debugging-strategies block.
"""

from __future__ import annotations

from functools import cache
from importlib import resources
from string import Template
from typing import TYPE_CHECKING, Optional

from ..errors import ManifestError, PromptOverflow
from ..frontend.ast import DesignSource
from ..sim.coverage import CoverageReport
from ..sim.stimulus import UnitTest
from ..verdict import MismatchSummary
from .config import DEFAULT_INPUT_WINDOW, NLSC

if TYPE_CHECKING:
    from ..manifest import Problem, RunConfig

TOKENS_PER_WORD = 1.3


def estimate_tokens(text: str) -> int:
    """Whitespace-word heuristic; provider-neutral soft guard."""
    return int(len(text.split()) * TOKENS_PER_WORD)


@cache  # read once per process: a template is package data, not edited mid-run
def _load_template(name: str) -> Template:
    text = resources.files("svloop.gateway.templates").joinpath(name).read_text("utf-8")
    return Template(text)


def _check_window(prompt: str) -> str:
    tokens = estimate_tokens(prompt)
    if tokens > DEFAULT_INPUT_WINDOW:
        raise PromptOverflow(f"prompt estimated at {tokens} tokens exceeds the "
                             f"{DEFAULT_INPUT_WINDOW}-token input window")
    return prompt


def build_testgen_prompt(
    cfg: RunConfig,
    problem: Problem,
    buggy: Optional[DesignSource] = None,
    feedback: Optional[tuple[CoverageReport, UnitTest]] = None,
) -> str:
    """Render the unit-test generation prompt. Deterministic in its inputs."""
    if cfg.strategy == NLSC and buggy is None:
        raise ValueError("NLSC generation requires the buggy source")
    if cfg.strategy != NLSC and buggy is not None:
        raise ValueError("NLS generation must not receive source code")
    if cfg.shots > len(problem.exemplars):
        # a data error of the problem, not of one prompt: it escapes the loops
        raise ManifestError(f"problem {problem.design.name}: a {cfg.shots}-shot prompt needs "
                            f"{cfg.shots} exemplars, it has {len(problem.exemplars)}")

    buggy_section = ""
    if buggy is not None:
        buggy_section = (
            "\n## Implementation under test (possibly buggy)\n"
            + buggy.text.rstrip("\n")
            + "\n"
        )

    exemplar_section = ""
    if cfg.shots:
        parts = ["\n## Worked examples"]
        for i, ex in enumerate(problem.exemplars[: cfg.shots], start=1):
            parts.append(
                f"\n### Example {i}\nDescription: {ex.description}\n"
                f"Signature:\n{ex.signature_text.rstrip()}\n"
                f"Unit test:\n{ex.unit_test_text.rstrip()}"
            )
        exemplar_section = "\n".join(parts) + "\n"

    feedback_section = ""
    if feedback is not None:
        report, prior = feedback
        uncovered = "\n".join(f"- {item}" for item in report.uncovered) or "- (none)"
        feedback_section = (
            "\n## Coverage feedback from the previous iteration\n"
            f"Best coverage so far (scalar): {float(report.scalar):.4f}\n"
            f"Previous unit test:\n{prior.to_text().rstrip()}\n"
            f"Still uncovered:\n{uncovered}\n"
            "Generate a different unit test that reaches the uncovered items.\n"
        )

    prompt = _load_template("testgen.txt").substitute(
        description=problem.description.strip(),
        signature=problem.signature.to_text(),
        buggy_section=buggy_section,
        exemplar_section=exemplar_section,
        feedback_section=feedback_section,
        stimulus_header=problem.signature.stimulus_header(),
    )
    return _check_window(prompt)


def build_debug_prompt(
    problem: Problem,
    buggy: DesignSource,
    failing_test: UnitTest,
    summary: MismatchSummary,
) -> str:
    """Render the debugging prompt around one failing test's evidence."""
    prompt = _load_template("debug.txt").substitute(
        description=problem.description.strip(),
        buggy_source=buggy.text.rstrip("\n"),
        test_id=failing_test.id,
        stimulus=failing_test.to_text().rstrip(),
        mismatch_table=summary.to_table(),
    )
    return _check_window(prompt)
