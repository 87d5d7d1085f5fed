"""Reference stimulus parser for differential tests of ``parse_stimulus``.

This is the line-at-a-time parser and the row-at-a-time ``UnitTest``
validation the toolkit used before each distinct stimulus line was decoded
once and the rows were checked together: every line goes through
``split("#")``, ``strip`` and ``split``, and every value is checked and
converted on its own. ``parse_stimulus_reference`` mirrors
``svloop.sim.stimulus.parse_stimulus`` and ``check_rows_reference`` mirrors
the checks of ``UnitTest.__post_init__``.
"""

from __future__ import annotations

from svloop.errors import MalformedStimulus, NoStimulusFound
from svloop.frontend.signature import DesignSignature, SignaturePort
from svloop.sim.stimulus import UnitTest


def check_rows_reference(columns: tuple[SignaturePort, ...], rows) -> None:
    """Raise the ValueError ``UnitTest`` raises for these rows, if any."""
    if len(rows) < 1:
        raise ValueError("unit test must have at least one cycle")
    for r, row in enumerate(rows):
        if len(row) != len(columns):
            raise ValueError(f"row {r} has {len(row)} values for {len(columns)} columns")
        for value, port in zip(row, columns):
            if value < 0 or value >= (1 << port.width):
                raise ValueError(
                    f"row {r}: value {value} does not fit {port.name}[{port.width}]"
                )


def parse_stimulus_reference(text: str, signature: DesignSignature,
                             test_id: str = "t0") -> UnitTest:
    expected = signature.stimulus_inputs
    lines = text.splitlines()
    header_at = None
    for i, line in enumerate(lines):
        if line.strip().lower().startswith("inputs:"):
            header_at = i
            break
    if header_at is None:
        raise NoStimulusFound("no 'inputs:' stimulus header found")

    header = lines[header_at].strip()[len("inputs:"):].strip()
    columns: list[SignaturePort] = []
    if header:
        for part in header.split(","):
            part = part.strip()
            if not part:
                raise MalformedStimulus("empty column name", line=header_at + 1)
            if "[" in part:
                if not part.endswith("]"):
                    raise MalformedStimulus(f"malformed column {part!r}", line=header_at + 1)
                name, width_text = part[:-1].split("[", 1)
                try:
                    width = int(width_text)
                except ValueError:
                    raise MalformedStimulus(
                        f"malformed column width in {part!r}", line=header_at + 1
                    ) from None
            else:
                name, width = part, 1
            columns.append(SignaturePort(name.strip(), width))
    if tuple(columns) != expected:
        raise MalformedStimulus(
            "columns {} do not match signature inputs {}".format(
                ", ".join(f"{p.name}[{p.width}]" for p in columns) or "(none)",
                ", ".join(f"{p.name}[{p.width}]" for p in expected) or "(none)",
            ),
            line=header_at + 1,
        )

    rows: list[tuple[int, ...]] = []
    for offset, raw in enumerate(lines[header_at + 1:], start=header_at + 2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if rows:
                break  # blank line ends the block once rows have started
            continue
        fields = line.split()
        if len(fields) != len(expected):
            if rows and any(f.strip("01") for f in fields):
                break  # trailing prose after the block
            raise MalformedStimulus(
                f"expected {len(expected)} values, found {len(fields)}", line=offset
            )
        row = []
        for value_text, port in zip(fields, expected):
            if value_text.strip("01"):
                # pure prose that happens to split into m words ends the
                # block; a row mixing binary and garbage is corruption
                if rows and all(f.strip("01") for f in fields):
                    fields = None
                    break
                raise MalformedStimulus(
                    f"non-binary value {value_text!r} for {port.name}", line=offset
                )
            if len(value_text) != port.width:
                raise MalformedStimulus(
                    f"value {value_text!r} is {len(value_text)} bits; "
                    f"{port.name} needs exactly {port.width}",
                    line=offset,
                )
            row.append(int(value_text, 2))
        if fields is None:
            break
        rows.append(tuple(row))
    if not rows:
        raise MalformedStimulus("stimulus block has no cycle rows", line=header_at + 1)
    rows = tuple(rows)
    check_rows_reference(expected, rows)
    return UnitTest(test_id, expected, rows)
