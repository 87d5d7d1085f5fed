"""Generator configuration, problem bundles, and provider bindings."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ProviderRejection
from ..frontend.elaborate import ElaboratedDesign
from ..frontend.signature import DesignSignature

NLS = "nls"
NLSC = "nlsc"

DEFAULT_TEMPERATURE = 0.8
DEFAULT_INPUT_WINDOW = 16384
OUTPUT_TOKENS = {NLSC: 2048, NLS: 512}

ENV_ENDPOINT = "SVLOOP_PROVIDER_ENDPOINT"
ENV_MODEL = "SVLOOP_PROVIDER_MODEL"
ENV_KEY = "SVLOOP_PROVIDER_KEY"


@dataclass(frozen=True)
class GenConfig:
    strategy: str = NLSC
    shots: int = 0

    def __post_init__(self):
        if self.strategy not in (NLS, NLSC):
            raise ValueError(f"strategy must be '{NLS}' or '{NLSC}'")
        if self.shots not in (0, 5):
            raise ValueError("shots must be 0 or 5")


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


@dataclass(frozen=True)
class ProviderBinding:
    kind: str                       # "mock" | "live"
    script_dir: Optional[str] = None
    endpoint: Optional[str] = None
    model: Optional[str] = None
    credential: Optional[str] = field(default=None, repr=False)
    timeout: float = 60.0
    retries: int = 2

    def __post_init__(self):
        if self.kind == "mock":
            if not self.script_dir:
                raise ProviderRejection("mock binding requires a response script directory")
        elif self.kind == "live":
            if not (self.endpoint and self.model and self.credential):
                raise ProviderRejection(
                    "live binding requires endpoint, model, and credential "
                    f"(set {ENV_ENDPOINT}, {ENV_MODEL}, {ENV_KEY})"
                )
        else:
            raise ProviderRejection(f"unknown provider kind {self.kind!r}")

    @classmethod
    def mock(cls, script_dir: str, **kw) -> "ProviderBinding":
        return cls("mock", script_dir=script_dir, **kw)

    @classmethod
    def live_from_env(cls, env=os.environ, **kw) -> "ProviderBinding":
        return cls(
            "live",
            endpoint=env.get(ENV_ENDPOINT),
            model=env.get(ENV_MODEL),
            credential=env.get(ENV_KEY),
            **kw,
        )
