"""Value Change Dump export and a matching reader.

Output is deliberately timestamp-free in the header so reruns are
byte-identical; one ``#n`` marker is emitted per cycle and only value
changes follow each marker.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import ne

from ..errors import SvLoopError
from ..frontend.signature import DesignSignature, SignaturePort
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


def read_vcd(data: bytes) -> tuple[Trace, DesignSignature]:
    """Parse VCD produced by export_vcd back into a trace.

    The reconstructed signature has no clock/reset roles; it only carries
    names and widths, with every signal listed as an input-order port.
    """
    lines = data.decode("ascii").splitlines()
    widths: dict[str, int] = {}
    by_id: dict[str, str] = {}
    order: list[str] = []
    module = "unknown"
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if line.startswith("$scope"):
            parts = line.split()
            if len(parts) >= 3:
                module = parts[2]
        elif line.startswith("$var"):
            _, _, width_text, var_id, name = line.split()[:5]
            widths[name] = int(width_text)
            by_id[var_id] = name
            order.append(name)
        elif line.startswith("$enddefinitions"):
            break

    values: dict[str, list[int]] = {name: [] for name in order}
    current: dict[str, int] = {name: 0 for name in order}
    cycle = -1

    def close_cycle():
        if cycle >= 0:
            for name in order:
                values[name].append(current[name])

    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line in ("$dumpvars", "$end"):
            continue
        if line.startswith("#"):
            close_cycle()
            cycle = int(line[1:])
            continue
        if line.startswith("b"):
            value_text, var_id = line[1:].split()
            current[by_id[var_id]] = int(value_text, 2)
        else:
            current[by_id[line[1:]]] = int(line[0], 2)
    close_cycle()

    trace = Trace({name: tuple(vals) for name, vals in values.items()}, cycle + 1)
    ports = tuple(SignaturePort(name, widths[name]) for name in order)
    return trace, DesignSignature(module, ports, ())
