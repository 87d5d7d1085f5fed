"""Generation constants and few-shot exemplars."""

from __future__ import annotations

from dataclasses import dataclass

NLS = "nls"
NLSC = "nlsc"

DEFAULT_TEMPERATURE = 0.8
DEFAULT_INPUT_WINDOW = 16384
OUTPUT_TOKENS = {NLSC: 2048, NLS: 512}


@dataclass(frozen=True)
class Exemplar:
    description: str
    signature_text: str
    unit_test_text: str
