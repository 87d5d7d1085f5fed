"""Value Change Dump export.

Output is deliberately timestamp-free in the header so reruns are
byte-identical; one ``#n`` marker is emitted per cycle and only value
changes follow each marker.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import ne

from ..errors import SvLoopError
from ..frontend.signature import DesignSignature
from .engine import Trace

_ID_CHARS = (
    "!\"#$%&'()*+-./:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    "[\\]^_`abcdefghijklmnopqrstuvwxyz{|}~"
)


def _var_id(index: int) -> str:
    if index < len(_ID_CHARS):
        return _ID_CHARS[index]
    return _ID_CHARS[index // len(_ID_CHARS) - 1] + _ID_CHARS[index % len(_ID_CHARS)]


def export_vcd(trace: Trace, signature: DesignSignature) -> bytes:
    """Serialize the signature-visible part of a trace as VCD."""
    ports = list(signature.inputs) + list(signature.outputs)
    missing = [p.name for p in ports if p.name not in trace.values]
    if missing:
        raise SvLoopError(f"trace lacks signature signals: {', '.join(missing)}")

    out = ["$version svloop $end", "$timescale 1ns $end",
           f"$scope module {signature.module_name} $end"]
    ids = [_var_id(i) for i in range(len(ports))]
    for port, var in zip(ports, ids):
        out.append(f"$var wire {port.width} {var} {port.name} $end")
    out.append("$upscope $end")
    out.append("$enddefinitions $end")
    header = "\n".join(out)
    if not trace.cycles:
        return (header + "\n").encode("ascii")

    # a grid of texts, one row per cycle: its marker, then each port's change
    # ("" if none), so joining each row keeps the changes in port order
    markers = [f"\n#{n}" for n in range(trace.cycles)]
    markers[0] += "\n$dumpvars"
    grid = [markers]
    for port, var in zip(ports, ids):
        column = trace.values[port.name]
        cells = [""] * trace.cycles
        changed = chain((0,), compress(range(1, trace.cycles), map(ne, column[1:], column)))
        if port.width == 1:
            texts = ("\n0" + var, "\n1" + var)
            for n in changed:
                cells[n] = texts[column[n]]
        else:
            for n in changed:
                cells[n] = f"\nb{column[n]:b} {var}"
        grid.append(cells)
    rows = list(map("".join, zip(*grid)))
    rows[0] += "\n$end"
    return (header + "".join(rows) + "\n").encode("ascii")
