"""Tokenizer for the SystemVerilog subset.

One compiled pattern splits the text, as in the tokenizer recipe of the
``re`` module docs. Identifiers and numbers are ASCII, as IEEE 1800
simple identifiers are; comments may hold any character.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseError, UnsupportedConstruct

KEYWORDS = {
    "module", "endmodule", "input", "output", "wire", "reg", "logic",
    "assign", "always", "begin", "end", "if", "else", "case", "endcase",
    "default", "posedge", "negedge", "parameter", "localparam", "or",
}

# Constructs we recognize well enough to reject by name.
UNSUPPORTED_KEYWORDS = {
    "inout", "initial", "function", "endfunction", "task", "endtask",
    "generate", "endgenerate", "genvar", "for", "while", "repeat",
    "forever", "integer", "signed", "casez", "casex", "assert",
    "interface", "typedef", "enum", "struct", "package", "import",
    "always_ff", "always_comb", "always_latch", "wait", "fork", "join",
    "real", "time", "event", "specify", "primitive", "defparam",
}

_TOKEN = re.compile(r"""
    (?P<space>[ \t\r]+)
  | (?P<newline>\n)
  | (?P<comment>//[^\n]*|/\*(?s:.*?)\*/)
  | (?P<word>[A-Za-z_][A-Za-z0-9_$]*)
  | (?P<based>(?:[0-9][0-9_]*)?'[bBdDhH][A-Za-z0-9_]+)
  | (?P<number>[0-9][0-9_]*(?![0-9_']))
  | (?P<op><=|>=|==|!=|<<|>>|&&|\|\||[~&|^+\-<>!?:()\[\]{};,=@*\#.])
  | (?P<bad>.)
""", re.VERBOSE)

# what follows the digits of a literal that ``based`` and ``number`` refused
_BAD_LITERAL = re.compile(r"[0-9_]*'(?:(?P<signed>[sS])|(?P<base>[bBdDhH]))?")


class Token(NamedTuple):
    kind: str      # ident | keyword | number | based | op | eof
    text: str
    line: int
    col: int


def _fail(text: str, pos: int, line: int, col: int):
    if text.startswith("/*", pos):
        raise ParseError("unterminated block comment", line, col)
    literal = _BAD_LITERAL.match(text, pos)
    if literal is None:
        raise ParseError(f"unexpected character {text[pos]!r}", line, col)
    if literal["signed"]:
        raise UnsupportedConstruct("signed literal", line, col)
    if literal["base"]:
        raise ParseError("based literal missing digits", line, col)
    raise ParseError("malformed based literal", line, col)


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    eof = len(text)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            continue
        start, end = m.span()
        if kind == "newline":
            line += 1
            line_start = end
        elif kind == "comment":
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", start, end) + 1
            elif end == eof and text[start + 1] == "/":
                eof = start  # a last line comment leaves end of input at its start
        elif kind == "bad":
            _fail(text, start, line, start - line_start + 1)
        else:
            word = m.group()
            if kind == "word":
                kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, start - line_start + 1))
    tokens.append(Token("eof", "", line, eof - line_start + 1))
    return tokens
