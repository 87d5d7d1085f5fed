"""Unit tests: binary stimulus matrices and their on-disk text format.

Format (also the format generators are instructed to emit):
the first line is ``inputs: name[width], ...`` in signature order with the
clock excluded, followed by one line per cycle of space-separated
fixed-width binary values. ``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat

from ..errors import MalformedStimulus, NoStimulusFound
from ..frontend.signature import DesignSignature, SignaturePort


@dataclass(frozen=True)
class UnitTest:
    id: str
    columns: tuple[SignaturePort, ...]
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.rows) < 1:
            raise ValueError("unit test must have at least one cycle")
        if set(map(len, self.rows)) == {len(self.columns)} and all(
            min(column) >= 0 and max(column) < (1 << port.width)
            for column, port in zip(zip(*self.rows), self.columns)
        ):
            return
        # some row is bad: find the first one
        for r, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ValueError(f"row {r} has {len(row)} values for {len(self.columns)} columns")
            for value, port in zip(row, self.columns):
                if value < 0 or value >= (1 << port.width):
                    raise ValueError(
                        f"row {r}: value {value} does not fit {port.name}[{port.width}]"
                    )

    @classmethod
    def _checked(cls, test_id: str, columns: tuple[SignaturePort, ...],
                 rows: tuple[tuple[int, ...], ...]) -> "UnitTest":
        """A unit test whose rows the caller has already checked against
        ``columns``: built without the second check of ``__post_init__``."""
        test = object.__new__(cls)
        test.__dict__.update(id=test_id, columns=columns, rows=rows)
        return test

    @property
    def cycles(self) -> int:
        return len(self.rows)

    def to_text(self) -> str:
        lines = ["inputs: " + ", ".join(f"{p.name}[{p.width}]" for p in self.columns)]
        for row in self.rows:
            lines.append(" ".join(f"{v:0{p.width}b}" for v, p in zip(row, self.columns)))
        return "\n".join(lines) + "\n"


def parse_stimulus(text: str, signature: DesignSignature, test_id: str = "t0") -> UnitTest:
    """Parse a stimulus block and validate it against the signature.

    Raises NoStimulusFound if there is no ``inputs:`` line at all, and
    MalformedStimulus (with a line number) for any violation of the format
    or of the signature's column order and widths.
    """
    expected = signature.stimulus_inputs
    lines = text.splitlines(keepends=True)
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

    # the leading run of lines the loop below would accept as they stand is
    # split and converted whole, one column at a time
    body = header_at + 1
    block = _clean_rows(expected).match(text, sum(map(len, lines[:body]))).group()
    fields = block.split()
    m = len(expected)
    rows = list(zip(*(map(int, fields[j::m], repeat(2)) for j in range(m))))
    body += len(rows)
    for offset, raw in enumerate(lines[body:], start=body + 1):
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
    # every row holds one binary field of exactly its column's width
    return UnitTest._checked(test_id, expected, tuple(rows))


def _clean_rows(columns: tuple[SignaturePort, ...]) -> re.Pattern:
    """Lines of binary fields of exactly each column's width, separated and
    padded by spaces or tabs only, each ending in ``\\n``. Not ``\\s``: it
    also matches characters that ``str.splitlines`` breaks lines at."""
    fields = "[ \t]+".join(f"[01]{{{port.width}}}" for port in columns)
    return re.compile(f"(?:[ \t]*{fields}[ \t]*\n)*")
