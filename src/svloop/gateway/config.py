"""Generation constants and problem bundles."""

from __future__ import annotations

from dataclasses import dataclass

from ..frontend.elaborate import ElaboratedDesign
from ..frontend.signature import DesignSignature

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


@dataclass(frozen=True)
class ProblemSpec:
    """Everything the generator may see about one problem."""

    description: str
    signature: DesignSignature
    oracle: ElaboratedDesign
    exemplars: tuple[Exemplar, ...] = ()

    def __post_init__(self):
        if not self.description.strip():
            raise ValueError("problem description is empty")
