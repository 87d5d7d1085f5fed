"""Differential tests: the master-pattern lexer and the two-stack expression
parser against the per-character lexer and tier-by-tier parser they
replaced (``reference_frontend.py``).

Both must agree on every token and every AST, source positions
included, and on malformed input on the exact error type, message, line
and column: parse errors reach ``genstate.json`` and debug rejections.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_frontend
from svloop.errors import ParseError, SvLoopError, UnsupportedConstruct
from svloop.frontend.ast import PRECEDENCE, Literal
from svloop.frontend.lexer import tokenize
from svloop.frontend.parser import parse_design
from svloop.frontend.printer import ast_to_source
from svloop.mutate import make_corpus

# characters and fragments a corruption inserts: every lexer path, its
# error cases and the parser's keywords
FRAGMENTS = list("ab_$019'sSbdhxz /*\n\r\t;()=+-<>!&|^~?:[]{}#@.,\\\"`") + [
    "module", "endmodule", "input", "output", "reg", "wire", "begin", "end", "case",
    "default", "initial", "for", "signed", "posedge", "or", "if", "else",
    "'b", "'d", "'h", "4'b", "12'sb1", "//", "/*", "*/", "<=", "==", "&&", "||", "\r\n",
]
NON_ASCII = ["\u00e9", "\u00b2", "\u00df", "\u216b", "\u0663", "\uff46", "\u00a0", "\u2028",
             "\x85", "\u85e4", "\U0001f600"]


def dump(node):
    """A node as nested tuples, source positions included (AST equality
    leaves them out)."""
    if dataclasses.is_dataclass(node):
        return (type(node).__name__,) + tuple(
            dump(getattr(node, f.name)) for f in dataclasses.fields(node))
    if isinstance(node, list):
        return [dump(item) for item in node]
    return node


def outcome(fn, *args):
    try:
        return fn(*args)
    except SvLoopError as exc:
        return type(exc), exc.message, exc.line, exc.col


def lexed(tokenize_fn, text):
    return [(t.kind, t.text, t.line, t.col) for t in tokenize_fn(text)]


def parsed(parse_fn, text):
    return dump(parse_fn(text))


def assert_same(text):
    assert outcome(lexed, reference_frontend.tokenize, text) == outcome(lexed, tokenize, text)
    assert (outcome(parsed, reference_frontend.parse_design, text)
            == outcome(parsed, parse_design, text))


@pytest.fixture(scope="module")
def texts(problems):
    """Desk references plus every seed-1 and seed-2 mutant."""
    out = []
    for problem in problems.values():
        out.append(problem.reference.text)
        out.extend(source.text for _, source, _ in problem.mutants())
        records, _ = make_corpus(problem, seed=2)
        out.extend(record.source.text for record in records)
    return out


@st.composite
def corrupted(draw, text):
    """``text`` with a few characters or fragments deleted, inserted or
    replaced, and sometimes cut short."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        piece = draw(st.sampled_from(FRAGMENTS))
        kind = draw(st.sampled_from(["delete", "insert", "replace"]))
        if kind == "insert":
            text = text[:at] + piece + text[at:]
        else:
            text = text[:at] + (piece if kind == "replace" else "") + text[at + 1:]
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(1, len(text)))]
    return text if text.strip() else "x"


@st.composite
def with_comment(draw, text):
    """``text`` with a line or block comment holding non-ASCII text put
    in at a line start or after a semicolon."""
    body = draw(st.text(st.sampled_from(NON_ASCII + list("ab */\t")), max_size=12))
    places = [0] + [i + 1 for i, c in enumerate(text) if c in "\n;"]
    at = draw(st.sampled_from(places))
    if draw(st.booleans()):
        comment = "//" + body.replace("\n", "") + "\n"
    else:
        comment = "/*" + body.replace("*/", "") + "*/"
    return text[:at] + comment + text[at:]


@st.composite
def expressions(draw, depth=0):
    """Operands joined by every binary operator, under unary operators,
    parentheses and conditionals, nested up to five deep so that many
    operators and conditionals are open at once."""
    parts = []
    for i in range(draw(st.integers(1, 5))):
        if i:
            parts.append(draw(st.sampled_from([op for op in PRECEDENCE if op != "?:"])))
        prefix = "".join(draw(st.lists(st.sampled_from("~!-+"), max_size=2)))
        if depth < 5 and draw(st.integers(0, 4)) == 0:
            parts.append(f"{prefix}({draw(expressions(depth + 1))})")
        else:
            parts.append(prefix + draw(st.sampled_from(["a", "b", "1", "4'b1010", "'hf"])))
    text = " ".join(parts)
    if depth < 5 and draw(st.integers(0, 3)) == 0:
        text += f" ? {draw(expressions(depth + 1))} : {draw(expressions(depth + 1))}"
    return text


class TestFrontendMatchesReference:
    def test_references_and_mutants(self, texts):
        assert len(texts) > 60
        for text in texts:
            assert_same(text)

    @given(data=st.data())
    @settings(max_examples=400)
    def test_corrupted_texts(self, texts, data):
        assert_same(data.draw(corrupted(data.draw(st.sampled_from(texts)))))

    @given(data=st.data())
    @settings(max_examples=100)
    def test_non_ascii_comments(self, texts, data):
        text = data.draw(with_comment(data.draw(st.sampled_from(texts))))
        assert_same(data.draw(st.sampled_from([text, text.replace("\n", "\r\n")])))

    @given(expr=expressions())
    @settings(max_examples=150)
    def test_expressions(self, expr):
        text = "module m (input [3:0] a, input [3:0] b, output [3:0] y);\n" \
               f"  assign y = {expr};\nendmodule\n"
        assert_same(text)
        # the printer parenthesizes by the precedence table the parser folds by
        ast = parse_design(text)
        assert parse_design(ast_to_source(ast)) == ast


DESIGN = "module m (input [3:0] a, output [3:0] y);\n  assign y = {};\nendmodule\n"


class TestQuirks:
    """Behaviour of the old frontend that the new one keeps on purpose,
    each pinned to its expected value as well as to the oracle."""

    def error(self, text):
        assert_same(text)
        with pytest.raises(SvLoopError) as exc:
            parse_design(text)
        return type(exc.value), exc.value.message, exc.value.line, exc.value.col

    def test_end_of_input_after_a_last_line_comment_stays_at_its_start(self):
        text = "module m (input a, output y);\n  assign y = a;  // no endmodule"
        assert tokenize(text)[-1] == ("eof", "", 2, 18)
        assert self.error(text) == (ParseError, "missing 'endmodule'", 2, 18)
        assert tokenize("a\n// c\n")[-1] == ("eof", "", 3, 1)

    def test_signed_literal_is_reported_at_its_first_digit(self):
        assert self.error(DESIGN.format("a + 12'sb1")) == (
            UnsupportedConstruct, "signed literal", 2, 18)

    @pytest.mark.parametrize("literal,message", [
        ("4'", "malformed based literal"),
        ("4'x1", "malformed based literal"),
        ("'", "malformed based literal"),
        ("'b", "based literal missing digits"),
        ("4'h;", "based literal missing digits"),
    ])
    def test_bad_based_literals(self, literal, message):
        assert self.error(DESIGN.format(literal)) == (ParseError, message, 2, 14)

    @pytest.mark.parametrize("literal,value,size", [("'b101", 5, None), ("1_'b0", 0, 1),
                                                     ("4'b1_0", 2, 4), ("1_0", 10, None)])
    def test_literal_shapes(self, literal, value, size):
        text = DESIGN.format(literal)
        assert_same(text)
        expr = parse_design(text).items[0].expr
        assert isinstance(expr, Literal) and (expr.value, expr.size) == (value, size)

    def test_carriage_return_is_a_space_not_a_line_break(self):
        text = "module m (input a, output y);\r\n  assign y = a $;\r\nendmodule\r\n"
        assert self.error(text) == (ParseError, "unexpected character '$'", 2, 16)
        assert_same("a\r\nb\r c")
        assert tokenize("a\r\nb\r c")[1:] == [("ident", "b", 2, 1), ("ident", "c", 2, 4),
                                               ("eof", "", 2, 5)]

    def test_unterminated_block_comment_is_reported_at_its_start(self):
        text = "module m (input a, output y);\n  /* open\n  assign y = a;\nendmodule\n"
        assert self.error(text) == (ParseError, "unterminated block comment", 2, 3)

    def test_block_comment_moves_lines_and_columns(self):
        text = "module m (input a, output y);\n /* one\n two */ assign y = a $;\nendmodule\n"
        assert self.error(text) == (ParseError, "unexpected character '$'", 3, 22)


class TestAsciiTokens:
    """Identifiers and numbers are ASCII: any other character outside a
    comment is an unexpected character at its own position."""

    @pytest.mark.parametrize("char", NON_ASCII)
    def test_non_ascii_outside_comments(self, char):
        for text, col in [(f"a{char}", 2), (f"1{char}", 2), (f"4'b1{char}", 5), (char, 1)]:
            with pytest.raises(ParseError) as exc:
                tokenize(text)
            assert (exc.value.message, exc.value.line, exc.value.col) == (
                f"unexpected character {char!r}", 1, col)

    @pytest.mark.parametrize("char", NON_ASCII)
    def test_non_ascii_inside_comments(self, char):
        text = f"a // {char}\n/* {char}\n{char} */ b"
        assert_same(text)
        assert tokenize(text)[1] == ("ident", "b", 3, 6)
