"""Parse LLM responses into validated unit tests or patched designs.

Both parsers refuse anything that violates the target type's invariants;
failures surface as typed errors the loops turn into logged rejections.
"""

from __future__ import annotations

import re

from ..errors import (
    ElaborationError,
    FrontendError,
    NoModuleFound,
    ParseError,
    PatchRejected,
    UnsupportedConstruct,
)
from ..frontend.ast import DesignSource
from ..frontend.elaborate import ElaboratedDesign, elaborate
from ..frontend.parser import parse_design
from ..frontend.signature import DesignSignature, extract_signature
from ..sim.stimulus import UnitTest, parse_stimulus

# require an identifier after 'module' so prose like "the corrected
# module:" cannot anchor the extraction
_MODULE_RE = re.compile(r"\bmodule\s+[A-Za-z_][\w$]*\s*[#(].*?\bendmodule\b", re.DOTALL)


def parse_unit_test(response: str, signature: DesignSignature, test_id: str = "t0") -> UnitTest:
    """Extract the first stimulus block of a response and validate it
    against the signature (column order, widths, binary values)."""
    return parse_stimulus(response, signature, test_id)


def parse_patch(response: str, expected: DesignSignature) -> ElaboratedDesign:
    """Extract the first complete module, require it to parse, elaborate
    and preserve the expected signature, inferred with its clock, and
    return its elaboration."""
    match = _MODULE_RE.search(response)
    if match is None:
        raise NoModuleFound("response contains no module ... endmodule block")
    source = DesignSource(match.group(0) + "\n", origin="patched")
    try:
        ast = parse_design(source)
    except (ParseError, UnsupportedConstruct) as exc:
        raise PatchRejected("parse", exc.diagnostic()) from exc
    try:
        design = elaborate(ast, source)
    except ElaborationError as exc:
        raise PatchRejected("elaborate", exc.diagnostic()) from exc
    try:
        signature = extract_signature(design, expected.clock)
    except FrontendError as exc:
        raise PatchRejected("signature", exc.diagnostic()) from exc
    if signature != expected:
        raise PatchRejected(
            "signature",
            f"patch signature {signature.module_name}({signature.inputs} -> "
            f"{signature.outputs}) does not preserve the expected interface",
        )
    return design
