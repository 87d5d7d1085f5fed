"""HDL frontend: parse, elaborate, and extract signatures for the
supported SystemVerilog subset."""

from .ast import DesignAst, DesignSource, PortDecl
from .elaborate import ElaboratedDesign, elaborate, elaborate_source, mask
from .parser import parse_design
from .printer import ast_to_source
from .signature import (
    DesignSignature,
    ResetSpec,
    SignaturePort,
    extract_signature,
)

__all__ = [
    "DesignAst",
    "DesignSource",
    "DesignSignature",
    "ElaboratedDesign",
    "PortDecl",
    "ResetSpec",
    "SignaturePort",
    "ast_to_source",
    "elaborate",
    "elaborate_source",
    "extract_signature",
    "mask",
    "parse_design",
]
