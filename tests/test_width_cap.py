"""The width cap: no patch can ask the frontend or the simulator for a
vector wider than ``MAX_WIDTH`` bits, or for a constant shift outside
0..``MAX_WIDTH``. Such a patch is a positioned ``WidthMismatch``, so
``debug`` logs it as a ``patch`` rejection instead of crashing."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import ListProvider, OracleBackedResponder, oracle_traces
from svloop import matrix
from svloop.errors import SvLoopError, WidthMismatch
from svloop.frontend.elaborate import MAX_WIDTH, elaborate_source
from svloop.gateway.extract import parse_patch
from svloop.loops import debug
from svloop.manifest import RunConfig
from svloop.matrix import evaluate_matrix
from svloop.metrics import debug_record
from svloop.sim.engine import run

CFG = RunConfig(strategy="nlsc", shots=0)
F5000 = "f" * 5000

# (items added to a design that reads input r1, the error they raise on
# their first line)
ESCAPES = {
    "net": ("wire [20000:0] big;\n  assign big = ~r1 + r1;",
            "'big' is wider than the 4096-bit limit"),
    "parameter": (f"localparam P = 'h{F5000};\n  wire w;\n  assign w = r1 ^ P;",
                  "parameter 'P' is wider than the 4096-bit limit"),
    "literal": (f"assign w = r1 + 32'h{F5000};\n  wire w;",
                "literal value of 20000 bits does not fit in 32 bits"),
    "unsized-literal": (f"assign w = r1 + 'h{F5000};\n  wire w;",
                        "unsized literal of 20000 bits exceeds the 4096-bit limit"),
    "negative-shl": ("localparam P = 1 << (0 - 1);",
                     "parameter 'P' shifts by an amount outside 0..4096"),
    "negative-shr": ("localparam P = 1 >> (0 - 1);",
                     "parameter 'P' shifts by an amount outside 0..4096"),
    # these two try to allocate gigabytes without the cap
    "huge-net": ("wire [10000000000:0] big;\n  assign big = ~r1 + r1;",
                 "'big' is wider than the 4096-bit limit"),
    "huge-shift": ("localparam P = 1 << 40'hffffffffff;",
                   "parameter 'P' shifts by an amount outside 0..4096"),
}


def with_declarations(text, declarations):
    return text.replace("endmodule", f"  {declarations}\nendmodule")


class TestElaboration:
    @pytest.mark.parametrize("name", sorted(ESCAPES))
    def test_past_the_cap_is_a_positioned_width_mismatch(self, problems, name):
        declarations, message = ESCAPES[name]
        text = with_declarations(problems["arbiter2"].reference.text, declarations)
        with pytest.raises(WidthMismatch) as caught:
            elaborate_source(text)
        assert caught.value.message == message
        assert caught.value.line == text[:text.index(declarations)].count("\n") + 1

    def test_exactly_the_cap_elaborates(self):
        top = MAX_WIDTH - 1
        design = elaborate_source(
            f"module m (input [{top}:0] a, output [{top}:0] y);\n"
            f"  localparam P = {MAX_WIDTH}'h{'f' * (MAX_WIDTH // 4)};\n"
            f"  assign y = (a ^ P) << {MAX_WIDTH};\nendmodule\n")
        assert design.signals["y"].width == MAX_WIDTH
        assert design.params["P"] == ((1 << MAX_WIDTH) - 1, MAX_WIDTH)

    @pytest.mark.parametrize("bounds", [f"[{MAX_WIDTH}:0]", f"[{MAX_WIDTH + 7}:7]",
                                        f"[0:'h{F5000}]", "[1 << 4096:0]"])
    def test_range_past_the_cap_names_the_net(self, bounds):
        with pytest.raises(WidthMismatch, match="'big'"):
            elaborate_source(f"module m (input a, output y);\n  wire {bounds} big;\n"
                             "  assign y = a;\nendmodule\n")

    def test_port_past_the_cap_names_the_port(self):
        with pytest.raises(WidthMismatch, match="'a' is wider than the 4096-bit limit"):
            elaborate_source(f"module m (input [{MAX_WIDTH}:0] a, output y);\n"
                             "  assign y = a;\nendmodule\n")

    def test_sized_literal_past_the_cap(self):
        with pytest.raises(WidthMismatch, match="literal size exceeds the 4096-bit limit"):
            elaborate_source("module m (input a, output y);\n"
                             "  assign y = a + 99999999999'd1;\nendmodule\n")


class TestDebug:
    @pytest.mark.parametrize("name", sorted(ESCAPES))
    def test_past_the_cap_is_a_logged_patch_rejection(self, problems, name):
        p = problems["arbiter2"]
        mutants = {bc: (src, wit) for bc, src, wit in p.mutants()}
        source, witness = mutants["BC06"]
        declarations, message = ESCAPES[name]
        provider = ListProvider([with_declarations(p.reference.text, declarations),
                                 p.reference.text])
        state = debug(p, elaborate_source(source), [witness],
                      oracle_traces(p, [witness]), CFG, provider)
        record = debug_record(state.initial_pass, state.history)
        assert record["solved"] and record["iterations"] == 2
        assert [r["reason"] for r in record["rejections"]] == ["patch"]
        assert message in record["rejections"][0]["detail"]


class PastTheCapResponder(OracleBackedResponder):
    """Answers every debug prompt with the reference plus one escape,
    picked by the prompt's digest."""

    def complete(self, prompt, cfg):
        answer = super().complete(prompt, cfg)
        if "corrected SystemVerilog module" not in prompt:
            return answer
        names = sorted(ESCAPES)
        name = names[int(hashlib.sha256(prompt.encode()).hexdigest(), 16) % len(names)]
        return with_declarations(answer, ESCAPES[name][0])


def test_evaluate_matrix_logs_escapes_as_rejections(problems, tmp_path, monkeypatch):
    p = problems["arbiter2"]
    monkeypatch.setattr(matrix, "build_provider",
                        lambda binding, log_dir: PastTheCapResponder([p]))
    config = RunConfig(provider="mock", script_dir="(in-memory)", seed=1)
    summary = evaluate_matrix([p], config, tmp_path)
    assert "error" not in summary["problems"]["arbiter2"]
    rejections = [r for state in sorted((tmp_path / "problems" / "arbiter2").glob(
                  "debug/*/state.json")) for r in json.loads(state.read_text())["rejections"]]
    messages = {message for _, message in ESCAPES.values()}
    assert rejections
    for rejection in rejections:
        assert rejection["reason"] == "patch"
        assert any(message in rejection["detail"] for message in messages)


# --- property: patch-shaped texts aimed at the cap ---------------------------------

widths = st.one_of(st.integers(MAX_WIDTH - 2, MAX_WIDTH + 2), st.integers(1, 10**6))
hex_digits = st.one_of(st.integers(1, 8), st.integers(MAX_WIDTH // 4 - 1, MAX_WIDTH // 4 + 1),
                       st.integers(4295, 4305))
dec_digits = st.one_of(st.integers(1, 8), st.integers(1230, 1240), st.integers(4295, 4305))


@st.composite
def literals(draw):
    kind = draw(st.sampled_from(["sized-hex", "sized-dec", "unsized-hex", "unsized-dec"]))
    if kind == "sized-hex":
        return f"{draw(widths)}'h{'f' * draw(hex_digits)}"
    if kind == "sized-dec":
        return f"{draw(widths)}'d{'9' * draw(dec_digits)}"
    if kind == "unsized-hex":
        return f"'h{'f' * draw(hex_digits)}"
    return "9" * draw(dec_digits)


shift_amounts = st.one_of(
    st.integers(-2, 2).map(lambda v: f"(0 - {-v})" if v < 0 else str(v)),
    st.integers(MAX_WIDTH - 2, MAX_WIDTH + 2).map(str),
    st.just("40'hffffffffff"),
    literals(),
)


@st.composite
def additions(draw):
    """(declarations, operand) to add to adder4, which reads input a."""
    kind = draw(st.sampled_from(["net", "param", "shifted-param", "literal"]))
    if kind == "net":
        width, lsb = draw(widths), draw(st.sampled_from([0, 1, 7]))
        msb = width - 1 + lsb
        bounds = f"[{msb}:{lsb}]" if draw(st.booleans()) else f"[{lsb}:{msb}]"
        declarations = f"wire {bounds} big;\n  assign big = ~a + {draw(literals())};"
        use = "big"
    elif kind == "param":
        declarations, use = f"localparam P = {draw(literals())};", "P"
    elif kind == "shifted-param":
        op = draw(st.sampled_from(["<<", ">>"]))
        declarations = f"localparam P = {draw(literals())} {op} {draw(shift_amounts)};"
        use = "P"
    else:
        declarations, use = "", draw(literals())
    return declarations, use


@settings(max_examples=150)
@given(addition=additions())
def test_patches_near_the_cap_raise_only_toolkit_errors(problems, addition):
    p = problems["adder4"]
    _, _, witness = p.mutants()[0]
    declarations, use = addition
    text = p.reference.text.replace("  assign sum = total;",
                                    f"  {declarations}\n  assign sum = total ^ {use};")
    assert text != p.reference.text
    try:
        design = parse_patch(text, p.signature)
        run(design, witness, p.signature)
    except SvLoopError:
        return
    assert all(info.width <= MAX_WIDTH for info in design.signals.values())
    assert all(width <= MAX_WIDTH for _, width in design.params.values())
