"""Unit tests: binary stimulus matrices and their on-disk text format.

Format (also the format generators are instructed to emit):
the first line is ``inputs: name[width], ...`` in signature order with the
clock excluded, followed by one line per cycle of space-separated
fixed-width binary values. ``#`` starts a comment. The text is read as
its ``str.splitlines`` lines, and a line's words are its ``str.split``
words before the first ``#``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat, takewhile
from operator import is_not

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
                    raise ValueError(f"row {r}: value {value} does not fit {port}")

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
        lines = ["inputs: " + ", ".join(map(str, self.columns))]
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
    lines = text.splitlines()
    header_at = next((i for i, line in enumerate(lines)
                      if line.strip().lower().startswith("inputs:")), None)
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
                ", ".join(map(str, columns)) or "(none)",
                ", ".join(map(str, expected)) or "(none)",
            ),
            line=header_at + 1,
        )

    # the block starts at the first line with words after the header and
    # ends at the first line that is not a row; each distinct line is decoded once
    widths = [port.width for port in expected]
    start = next((i for i in range(header_at + 1, len(lines)) if _words(lines[i])), len(lines))
    block = lines[start:]
    decoded = {line: _row(_words(line), widths) for line in set(block)}
    rows = tuple(takewhile(partial(is_not, None), map(decoded.__getitem__, block)))
    stop = start + len(rows)
    if stop < len(lines):
        _refuse(_words(lines[stop]), expected, bool(rows), stop + 1)
    if not rows:
        raise MalformedStimulus("stimulus block has no cycle rows", line=header_at + 1)
    # every row holds one binary field of exactly its column's width
    return UnitTest._checked(test_id, expected, rows)


def _words(line: str) -> list[str]:
    """A stimulus line's words: its ``str.split`` words before any ``#``."""
    return line.split("#", 1)[0].split()


def _row(words: list[str], widths: list[int]) -> tuple[int, ...] | None:
    """The values of a line's ``words`` if they are a row, one binary word
    of exactly each width in ``widths``; None if they are not."""
    if list(map(len, words)) == widths and not "".join(words).strip("01"):
        return tuple(map(int, words, repeat(2)))
    return None


def _refuse(words: list[str], columns: tuple[SignaturePort, ...], after_rows: bool,
            line: int) -> None:
    """Raise the error of the line the rows stop at, given its ``words``,
    unless it ends the block: a line without words, or prose after the rows
    (not one word per column with some non-binary, or no binary word at
    all)."""
    prose = sum(1 for word in words if word.strip("01"))
    if not words or after_rows and prose and (len(words) != len(columns) or prose == len(words)):
        return
    if len(words) != len(columns):
        raise MalformedStimulus(f"expected {len(columns)} values, found {len(words)}", line=line)
    for value_text, port in zip(words, columns):
        if value_text.strip("01"):
            raise MalformedStimulus(f"non-binary value {value_text!r} for {port.name}", line=line)
        if len(value_text) != port.width:
            raise MalformedStimulus(
                f"value {value_text!r} is {len(value_text)} bits; "
                f"{port.name} needs exactly {port.width}",
                line=line,
            )
