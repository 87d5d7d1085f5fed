"""Differential tests: the stimulus parser, which decodes each distinct
line once, and the per-port VCD writer against the line-at-a-time and
cycle-at-a-time versions they replaced (``reference_stimulus.py``,
``reference_vcd.py``)."""

import random
import sys
import tracemalloc
from operator import add
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_stimulus import check_rows_reference, parse_stimulus_reference
from reference_vcd import export_vcd_reference
from support import read_vcd
from svloop.errors import SvLoopError
from svloop.frontend.signature import DesignSignature, SignaturePort
from svloop.sim import stimulus
from svloop.sim.engine import Trace
from svloop.sim.stimulus import UnitTest, parse_stimulus
from svloop.sim.vcd import _ID_CHARS, _var_id, export_vcd

DESK = ["adder4", "arbiter2", "counter3", "full_adder", "seq_detect"]

# characters ``str.split`` treats as whitespace inside a line, and line
# breaks other than "\n" that ``str.splitlines`` honours
ODD_SPACES = ["\t", "\xa0", "\x1f", "\u2000", "\u3000"]
ODD_ENDS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\x1d", "\x1e", "\u2029"]
# whitespace inside a line must not break it
assert all(len(("a" + c + "b").splitlines()) == 1 for c in ODD_SPACES)
# "\r\n" and every code point where ``str.splitlines`` breaks a line (10)
# or ``str.split`` splits words (19 more)
SEPARATORS = ["\r\n"] + [
    c for c in map(chr, range(sys.maxunicode + 1))
    if len(("a" + c + "b").splitlines()) == 2 or len(("a" + c + "b").split()) == 2]
PROSE = ["Here is the test:", "```", "done", "that is all", "so so so", "1 0 x"]


def outcome(parse, text, signature):
    try:
        return parse(text, signature, "t")
    except (SvLoopError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def binary(draw, width):
    return format(draw(st.integers(0, (1 << width) - 1)), f"0{width}b")


@st.composite
def stimulus_lines(draw, signature, noisy):
    """The lines of a stimulus for ``signature``, without line ends: an
    optional preamble, the header and rows, with comments, blank lines and
    trailing prose when ``noisy``."""
    lines = []
    if noisy and draw(st.booleans()):
        lines.append(draw(st.sampled_from(PROSE + ["# preamble", ""])))
    lines.append(draw(st.sampled_from(["", " ", "\t"])) + signature.stimulus_header())
    if noisy and draw(st.booleans()):
        lines.append(draw(st.sampled_from(["", "# first", "  "])))
    for _ in range(draw(st.integers(1, 25))):
        fields = [binary(draw, port.width) for port in signature.stimulus_inputs]
        gaps = [draw(st.sampled_from(["", " ", "\t "]))]
        gaps += [draw(st.sampled_from([" ", "  ", "\t", " \t "])) for _ in fields[1:]]
        gaps.append(draw(st.sampled_from(["", " ", "\t "])))
        row = "".join(gap + field for gap, field in zip(gaps, fields + [""]))
        if noisy and draw(st.integers(0, 5)) == 0:
            row += draw(st.sampled_from(["# note", "  # cycle", "#"]))
        lines.append(row)
        if noisy and draw(st.integers(0, 10)) == 0:
            lines.append(draw(st.sampled_from(["# between", "", " "])))
    if noisy and draw(st.booleans()):
        lines.extend(draw(st.lists(st.sampled_from(PROSE + [""]), min_size=1, max_size=3)))
    return lines


@st.composite
def stimulus_texts(draw, signature, noisy=False, odd=False):
    """A stimulus text; when ``odd``, one to three of its lines get an odd
    line end or an odd whitespace character somewhere inside."""
    lines = draw(stimulus_lines(signature, noisy))
    ends = ["\n"] * len(lines)
    for _ in range(draw(st.integers(1, 3)) if odd else 0):
        k = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            ends[k] = draw(st.sampled_from(ODD_ENDS))
        else:
            at = draw(st.integers(0, len(lines[k])))
            lines[k] = lines[k][:at] + draw(st.sampled_from(ODD_SPACES)) + lines[k][at:]
    text = "".join(map(add, lines, ends))
    if odd and draw(st.booleans()):
        text = text.rstrip("\n")  # no final newline
    return text


@st.composite
def long_texts(draw, signature, noisy=False, odd=False):
    """A stimulus text of a thousand rows drawn from the few lines of a
    short one: its header and anything before, then its rows and the lines
    among them repeated in a seeded order, then its last line."""
    lines = draw(stimulus_texts(signature, noisy, odd)).splitlines(keepends=True)
    at = next((i + 1 for i, line in enumerate(lines) if "inputs:" in line), len(lines))
    middle = lines[at:-1] or lines[at:]
    if middle:
        rng = random.Random(draw(st.integers(0, 2**32)))
        lines[at:at + len(middle)] = rng.choices(middle, k=1000)
    return "".join(lines)


@st.composite
def corrupted(draw, text):
    """``text`` with a few characters deleted, inserted or replaced."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(list("01 \t\n#xa,[]") + ODD_SPACES + ODD_ENDS))
        kind = draw(st.sampled_from(["delete", "insert", "replace"]))
        if kind == "insert":
            text = text[:at] + char + text[at:]
        else:
            text = text[:at] + (char if kind == "replace" else "") + text[at + 1:]
    return text


class TestStimulusParserMatchesReference:
    @given(data=st.data())
    @settings(max_examples=60)
    def test_valid_texts(self, problems, data):
        sig = problems[data.draw(st.sampled_from(DESK))].signature
        text = data.draw(stimulus_texts(sig))
        test = parse_stimulus(text, sig, "t")
        assert test == parse_stimulus_reference(text, sig, "t")

    @given(data=st.data())
    @settings(max_examples=100)
    def test_comments_blank_lines_and_prose(self, problems, data):
        sig = problems[data.draw(st.sampled_from(DESK))].signature
        text = data.draw(stimulus_texts(sig, noisy=True))
        assert outcome(parse_stimulus, text, sig) == outcome(parse_stimulus_reference, text, sig)

    @given(data=st.data())
    @settings(max_examples=100)
    def test_odd_whitespace_and_line_ends(self, problems, data):
        sig = problems[data.draw(st.sampled_from(DESK))].signature
        text = data.draw(stimulus_texts(sig, noisy=data.draw(st.booleans()), odd=True))
        assert outcome(parse_stimulus, text, sig) == outcome(parse_stimulus_reference, text, sig)

    @given(data=st.data())
    @settings(max_examples=120)
    def test_corrupted_texts(self, problems, data):
        sig = problems[data.draw(st.sampled_from(DESK))].signature
        text = data.draw(corrupted(data.draw(stimulus_texts(sig, noisy=data.draw(st.booleans())))))
        assert outcome(parse_stimulus, text, sig) == outcome(parse_stimulus_reference, text, sig)

    @given(data=st.data())
    @settings(max_examples=40)
    def test_long_texts_of_repeated_lines(self, problems, data):
        sig = problems[data.draw(st.sampled_from(DESK))].signature
        text = data.draw(long_texts(sig, noisy=data.draw(st.booleans()),
                                    odd=data.draw(st.booleans())))
        if data.draw(st.booleans()):
            text = data.draw(corrupted(text))
        assert outcome(parse_stimulus, text, sig) == outcome(parse_stimulus_reference, text, sig)

    @pytest.mark.parametrize("bad, message", [
        ("0a10 0000 0", "non-binary value '0a10' for a"),
        ("1010 010 1", "value '010' is 3 bits; b needs exactly 4"),
        ("1010 0101", "expected 3 values, found 2"),
        ("1010 0101 1 1", "expected 3 values, found 4"),
    ])
    def test_error_line_after_a_thousand_repeated_rows(self, problems, bad, message):
        sig = problems["adder4"].signature
        text = "inputs: a[4], b[4], cin[1]\n" + "1010 0101 1\n0000 1111 0 # two\n" * 500 \
            + bad + "\n1010 0101 1\n"
        result = outcome(parse_stimulus, text, sig)
        assert result == outcome(parse_stimulus_reference, text, sig)
        assert result[1:] == (message, 1002)

    def test_a_long_stimulus_is_parsed_in_little_memory(self, problems):
        # 50,000 rows of 3 columns peak at about 4 MB; one pattern matched
        # over the whole block keeps about 450 B of backtracking state per
        # row in ``re`` until it ends, and peaks at about 28 MB
        sig = problems["adder4"].signature
        rng = random.Random(5)
        text = "inputs: a[4], b[4], cin[1]\n" + "".join(
            f"{rng.getrandbits(4):04b} {rng.getrandbits(4):04b} {rng.getrandbits(1)}\n"
            for _ in range(50_000))
        parse_stimulus(text, sig)  # a first parse outside the measurement
        tracemalloc.start()
        try:
            test = parse_stimulus(text, sig)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert test.cycles == 50_000
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("char", SEPARATORS)
    def test_one_odd_character_at_every_place_of_a_row(self, problems, char):
        for pid in DESK:
            sig = problems[pid].signature
            rows = [tuple(n % (1 << p.width) for p in sig.stimulus_inputs) for n in range(5)]
            lines = UnitTest("t", sig.stimulus_inputs, tuple(rows)).to_text().splitlines(True)
            for at in range(len(lines[3]) + 1):
                text = "".join(lines[:3]) + lines[3][:at] + char + lines[3][at:] + "".join(lines[4:])
                assert outcome(parse_stimulus, text, sig) == \
                    outcome(parse_stimulus_reference, text, sig), (pid, text)

    @pytest.mark.parametrize("text, line", [
        ("inputs: a[4], b[4], cin[1]\n1010 0101 1\n0a10 0000 0\n", 3),
        ("inputs: a[4], b[4], cin[1]\n1010 0101 1\n1010 0101 1\r\n1010 010 1\n", 4),
        ("inputs: a[4], b[4], cin[1]\n1010 0101 1\n1010\x0b0101 1\n", 3),
    ])
    def test_error_line_after_clean_rows(self, problems, text, line):
        sig = problems["adder4"].signature
        result = outcome(parse_stimulus, text, sig)
        assert result == outcome(parse_stimulus_reference, text, sig)
        assert result[2] == line

    @pytest.mark.parametrize("text, line", [
        ("inputs: a[4], b[4], cin[1]\nHere is the test:\n1010 0101 1\n", 2),
        ("inputs: a[4], b[4], cin[1]\n\n# rows\nso so so\n1010 0101 1\n", 4),
        ("inputs: a[4], b[4], cin[1]\r\n# rows\r\n1010 0101\r\n", 3),
        ("inputs: a[4], b[4], cin[1]\n# only a comment\n\n", 1),
    ])
    def test_error_line_before_any_row(self, problems, text, line):
        # before the first row, prose and blank-ended texts are errors
        sig = problems["adder4"].signature
        result = outcome(parse_stimulus, text, sig)
        assert result == outcome(parse_stimulus_reference, text, sig)
        assert result[2] == line

    @pytest.mark.parametrize("text", ["inputs:\n\n\n", "inputs:\n \n0\n", "inputs: clk\n0\n"])
    def test_signature_without_stimulus_inputs(self, text):
        sig = DesignSignature("m", (SignaturePort("clk", 1),), (), clock="clk")
        assert outcome(parse_stimulus, text, sig) == outcome(parse_stimulus_reference, text, sig)

    @pytest.mark.parametrize("end, last", [("\n", "\n"), ("\r\n", "\r\n"), ("\n", "")])
    def test_readme_example(self, problems, end, last):
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        example = readme.split("## Stimulus format", 1)[1].split("```")[1].strip("\n")
        text = end.join(example.splitlines()) + last
        sig = problems["arbiter2"].signature
        test = parse_stimulus(text, sig, "t")
        assert test == parse_stimulus_reference(text, sig, "t")
        assert test.rows == ((1, 0, 0), (0, 1, 0))

    @given(data=st.data())
    @settings(max_examples=100)
    def test_refused_line_is_read_at_most_once(self, problems, data):
        sig = problems[data.draw(st.sampled_from(DESK))].signature
        text = data.draw(stimulus_texts(sig, noisy=True, odd=data.draw(st.booleans())))
        if data.draw(st.booleans()):
            text = data.draw(corrupted(text))
        with patch.object(stimulus, "_refuse", wraps=stimulus._refuse) as refuse:
            result = outcome(parse_stimulus, text, sig)
        assert refuse.call_count <= 1
        assert result == outcome(parse_stimulus_reference, text, sig)

    @pytest.mark.parametrize("tail, calls", [("", 0), ("\n", 1), ("so done\n", 1),
                                             ("1010 0101 2\n", 1)])
    def test_refused_line_is_the_line_after_the_rows(self, problems, tail, calls):
        sig = problems["adder4"].signature
        text = "inputs: a[4], b[4], cin[1]\n\n# rows\r\n1010 0101 1 # one\n0000 1111 0\n" + tail
        with patch.object(stimulus, "_refuse", wraps=stimulus._refuse) as refuse:
            result = outcome(parse_stimulus, text, sig)
        assert result == outcome(parse_stimulus_reference, text, sig)
        assert refuse.call_count == calls
        if calls:
            assert refuse.call_args.args[3] == 6  # the line number it would name

    @given(data=st.data())
    @settings(max_examples=100)
    def test_unit_test_rejects_the_same_first_bad_row(self, problems, data):
        # valid rows with a value just out of range or a row of the wrong
        # length put in here and there
        columns = problems[data.draw(st.sampled_from(DESK))].signature.stimulus_inputs
        row = st.tuples(*(st.integers(0, (1 << port.width) - 1) for port in columns))
        rows = [list(r) for r in data.draw(st.lists(row, max_size=12))]
        for _ in range(data.draw(st.integers(0, 2)) if rows else 0):
            r = data.draw(st.integers(0, len(rows) - 1))
            c = data.draw(st.integers(0, len(columns) - 1))
            top = 1 << columns[c].width
            rows[r][c] = data.draw(st.sampled_from([-1, top, top + 1]))
        if rows and data.draw(st.integers(0, 3)) == 0:
            r = data.draw(st.integers(0, len(rows) - 1))
            rows[r] = rows[r][:-1] if data.draw(st.booleans()) else rows[r] + [0]
        rows = [tuple(r) for r in rows]
        try:
            check_rows_reference(columns, rows)
            expected = None
        except ValueError as exc:
            expected = str(exc)
        try:
            UnitTest("t", columns, tuple(rows))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == expected

    @pytest.mark.parametrize("pid", DESK)
    def test_parsed_tests_skip_no_check_that_direct_ones_keep(self, problems, pid):
        # parse_stimulus builds its UnitTest without checking the rows twice;
        # the result is the test a direct UnitTest makes of the same rows,
        # and a direct UnitTest still refuses a value out of range
        signature = problems[pid].signature
        columns = signature.stimulus_inputs
        rows = ((0,) * len(columns), tuple((1 << p.width) - 1 for p in columns))
        parsed = parse_stimulus(UnitTest("t", columns, rows).to_text(), signature, "t")
        direct = UnitTest("t", columns, rows)
        assert parsed == direct and hash(parsed) == hash(direct)
        with pytest.raises(ValueError, match="does not fit"):
            UnitTest("t", columns, rows + ((1 << columns[0].width,) + rows[0][1:],))


@st.composite
def traces(draw, ports=st.integers(1, 12)):
    """A signature of 1-bit and multi-bit ports split into inputs and
    outputs, and a trace over it whose columns are constant or changing."""
    count = draw(ports)
    widths = draw(st.lists(st.sampled_from([1, 1, 2, 4, 8]), min_size=count, max_size=count))
    cycles = draw(st.integers(1, 30))
    values = {}
    for i, width in enumerate(widths):
        value = st.integers(0, (1 << width) - 1)
        if draw(st.booleans()):
            column = [draw(value)] * cycles
        else:
            column = draw(st.lists(value, min_size=cycles, max_size=cycles))
        values[f"p{i}"] = tuple(column)
    ports = tuple(SignaturePort(f"p{i}", width) for i, width in enumerate(widths))
    split = draw(st.integers(0, count))
    return Trace(values, cycles), DesignSignature("m", ports[:split], ports[split:])


class TestVcdMatchesReference:
    def check(self, trace, signature):
        blob = export_vcd(trace, signature)
        assert blob == export_vcd_reference(trace, signature)
        loaded, loaded_sig = read_vcd(blob)
        assert loaded.cycles == trace.cycles
        assert loaded.values == trace.values
        assert loaded_sig.inputs == signature.inputs + signature.outputs
        return blob

    @given(traces())
    @settings(max_examples=100)
    def test_small_signatures(self, case):
        self.check(*case)

    @given(traces(ports=st.integers(90, 110)))
    @settings(max_examples=15)
    def test_wide_signatures_use_every_id_character(self, case):
        blob = self.check(*case)
        ids = {line.split()[3] for line in blob.decode().splitlines()
               if line.startswith("$var")}
        assert {"{", "|", "}", "~", "!!"} <= ids

    def test_one_cycle_lists_every_port_once(self):
        ports = tuple(SignaturePort(f"p{i}", 1 + i % 3) for i in range(4))
        trace = Trace({"p0": (0,), "p1": (1,), "p2": (2,), "p3": (1,)}, 1)
        signature = DesignSignature("m", ports[:2], ports[2:])
        text = self.check(trace, signature).decode()
        assert text.endswith("#0\n$dumpvars\n0!\nb1 \"\nb10 #\n1$\n$end\n")

    def test_ids_extend_the_two_character_ones_without_end(self):
        def two_characters(index):  # the ids of the first 83 + 83 * 83 ports, fixed in VCD bytes
            if index < len(_ID_CHARS):
                return _ID_CHARS[index]
            return _ID_CHARS[index // len(_ID_CHARS) - 1] + _ID_CHARS[index % len(_ID_CHARS)]

        assert [_var_id(i) for i in range(6972)] == [two_characters(i) for i in range(6972)]
        ids = [_var_id(i) for i in range(20_000)]
        assert len(set(ids)) == len(ids)
        assert ids[6971:6973] == ["~~", "!!!"]

    def test_a_signature_past_the_two_character_ids_exports(self):
        ports = tuple(SignaturePort(f"p{i}", 1) for i in range(6973))
        trace = Trace({p.name: (i % 2,) for i, p in enumerate(ports)}, 1)
        text = export_vcd(trace, DesignSignature("m", ports, ())).decode()
        assert "$var wire 1 !!! p6972 $end" in text and text.endswith("\n0!!!\n$end\n")

    def test_no_cycles_is_the_header_alone(self):
        ports = (SignaturePort("a", 1), SignaturePort("y", 4))
        signature = DesignSignature("m", ports[:1], ports[1:])
        blob = export_vcd(Trace({"a": (), "y": ()}, 0), signature)
        assert blob == export_vcd_reference(Trace({"a": (), "y": ()}, 0), signature)
        assert blob.endswith(b"$enddefinitions $end\n")
