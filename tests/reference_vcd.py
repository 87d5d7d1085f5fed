"""Reference VCD writer for differential tests of the per-port one.

This is the cycle-at-a-time exporter the toolkit used before columns were
scanned per port: for every cycle it visits every port and compares the
value with the last one it wrote. ``export_vcd_reference`` mirrors
``svloop.sim.vcd.export_vcd``.
"""

from __future__ import annotations

from svloop.errors import SvLoopError
from svloop.frontend.signature import DesignSignature, SignaturePort
from svloop.sim.engine import Trace
from svloop.sim.vcd import _var_id


def export_vcd_reference(trace: Trace, signature: DesignSignature) -> bytes:
    ports = list(signature.inputs) + list(signature.outputs)
    missing = [p.name for p in ports if p.name not in trace.values]
    if missing:
        raise SvLoopError(f"trace lacks signature signals: {', '.join(missing)}")

    out = ["$version svloop $end", "$timescale 1ns $end",
           f"$scope module {signature.module_name} $end"]
    ids = {}
    for i, port in enumerate(ports):
        ids[port.name] = _var_id(i)
        out.append(f"$var wire {port.width} {ids[port.name]} {port.name} $end")
    out.append("$upscope $end")
    out.append("$enddefinitions $end")

    def value_text(port: SignaturePort, value: int) -> str:
        if port.width == 1:
            return f"{value}{ids[port.name]}"
        return f"b{value:b} {ids[port.name]}"

    last: dict[str, int] = {}
    for cycle in range(trace.cycles):
        out.append(f"#{cycle}")
        if cycle == 0:
            out.append("$dumpvars")
        for port in ports:
            value = trace.values[port.name][cycle]
            if cycle == 0 or last[port.name] != value:
                out.append(value_text(port, value))
                last[port.name] = value
        if cycle == 0:
            out.append("$end")
    return ("\n".join(out) + "\n").encode("ascii")
