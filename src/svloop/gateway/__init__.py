"""LLM gateway: prompt construction, providers, and response parsing."""

from .config import DEFAULT_INPUT_WINDOW, DEFAULT_TEMPERATURE, NLS, NLSC, Exemplar
from .extract import parse_patch, parse_unit_test
from .prompts import build_debug_prompt, build_testgen_prompt, estimate_tokens
from .providers import (
    LiveHttpProvider,
    RecordingProvider,
    ScriptedMockProvider,
    build_provider,
    prompt_digest,
    save_mock_script,
)

__all__ = [
    "DEFAULT_INPUT_WINDOW",
    "DEFAULT_TEMPERATURE",
    "Exemplar",
    "LiveHttpProvider",
    "NLS",
    "NLSC",
    "RecordingProvider",
    "ScriptedMockProvider",
    "build_debug_prompt",
    "build_provider",
    "build_testgen_prompt",
    "estimate_tokens",
    "parse_patch",
    "parse_unit_test",
    "prompt_digest",
    "save_mock_script",
]
