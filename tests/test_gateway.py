from dataclasses import replace
from pathlib import Path

import pytest

from svloop.errors import (
    MalformedStimulus,
    NoModuleFound,
    NoStimulusFound,
    PatchRejected,
    PromptOverflow,
    ProviderRejection,
    ScriptExhausted,
)
from svloop.gateway import prompts
from svloop.gateway.config import DEFAULT_INPUT_WINDOW, DEFAULT_TEMPERATURE, OUTPUT_TOKENS
from svloop.gateway.extract import parse_patch, parse_unit_test
from svloop.gateway.prompts import TOKENS_PER_WORD, build_debug_prompt, build_testgen_prompt
from svloop.gateway.providers import (
    ENV_ENDPOINT,
    ENV_MODEL,
    LiveHttpProvider,
    ScriptedMockProvider,
    build_provider,
    prompt_digest,
    save_mock_script,
)
from svloop.manifest import RunConfig
from svloop.sim.coverage import collect_coverage
from svloop.sim.engine import run
from svloop.sim.stimulus import UnitTest
from svloop.verdict import compare, summarize


# one word more than the fixed input window holds
OVERLONG_DESCRIPTION = "word " * (int(DEFAULT_INPUT_WINDOW / TOKENS_PER_WORD) + 1)


@pytest.fixture()
def fa_problem(problems):
    return problems["full_adder"]


@pytest.fixture()
def arb_problem(problems):
    return problems["arbiter2"]


class TestGenerationConfig:
    def test_defaults_follow_strategy(self):
        assert (RunConfig().strategy, RunConfig().shots) == ("nlsc", 0)
        assert OUTPUT_TOKENS == {"nlsc": 2048, "nls": 512}

    def test_temperature_and_window_defaults(self):
        assert DEFAULT_TEMPERATURE == 0.8
        assert DEFAULT_INPUT_WINDOW == 16384

    def test_validation(self):
        with pytest.raises(ValueError, match="field 'strategy'"):
            RunConfig(strategy="chain")
        with pytest.raises(ValueError, match="field 'shots'"):
            RunConfig(shots=3)


class TestTestgenPrompt:
    def test_nls_zero_shot_has_no_source_section(self, fa_problem):
        cfg = RunConfig(strategy="nls")
        prompt = build_testgen_prompt(cfg, fa_problem)
        assert fa_problem.description.strip()[:40] in prompt
        assert "inputs (in port order): a[1], b[1], c[1]" in prompt
        assert "Implementation under test" not in prompt
        assert "endmodule" not in prompt

    def test_nlsc_embeds_buggy_source_verbatim(self, arb_problem, problems):
        mutants = problems["arbiter2"].mutants()
        bc_id, source, _ = mutants[0]
        prompt = build_testgen_prompt(RunConfig(strategy="nlsc"), arb_problem, source)
        assert source.text.rstrip() in prompt

    def test_strategy_preconditions(self, fa_problem, problems):
        with pytest.raises(ValueError):
            build_testgen_prompt(RunConfig(strategy="nlsc"), fa_problem, None)
        source = problems["full_adder"].reference
        with pytest.raises(ValueError):
            build_testgen_prompt(RunConfig(strategy="nls"), fa_problem, source)

    def test_five_shot_includes_exemplars(self, fa_problem):
        prompt = build_testgen_prompt(RunConfig(strategy="nls", shots=5), fa_problem)
        assert "Example 5" in prompt
        assert fa_problem.exemplars[0].unit_test_text.strip() in prompt

    def test_feedback_section_carries_prior_test_and_uncovered(self, arb_problem, problems):
        p = problems["arbiter2"]
        prior = UnitTest("t01", p.signature.stimulus_inputs, ((1, 0, 0),))
        report = collect_coverage(p.design, [prior], p.signature)
        prompt = build_testgen_prompt(
            RunConfig(strategy="nlsc"),
            arb_problem,
            p.reference,
            feedback=(report, prior),
        )
        assert "Coverage feedback" in prompt
        assert prior.to_text().strip() in prompt
        assert "never" in prompt  # uncovered items listed

    def test_deterministic(self, arb_problem, problems):
        args = (RunConfig(strategy="nlsc", shots=5), arb_problem, problems["arbiter2"].reference)
        assert build_testgen_prompt(*args) == build_testgen_prompt(*args)

    def test_section_order(self, arb_problem, problems):
        p = problems["arbiter2"]
        prior = UnitTest("t01", p.signature.stimulus_inputs, ((1, 0, 0),))
        report = collect_coverage(p.design, [prior], p.signature)
        prompt = build_testgen_prompt(
            RunConfig(strategy="nlsc", shots=5), arb_problem, p.reference, (report, prior)
        )
        order = [
            prompt.index("## Task description"),
            prompt.index("## Module signature"),
            prompt.index("## Implementation under test"),
            prompt.index("## Worked examples"),
            prompt.index("## Coverage feedback"),
            prompt.index("## Required output format"),
        ]
        assert order == sorted(order)

    def test_overflow(self, fa_problem):
        overlong = replace(fa_problem, description=OVERLONG_DESCRIPTION)
        with pytest.raises(PromptOverflow, match="16384-token"):
            build_testgen_prompt(RunConfig(strategy="nlsc"), overlong, fa_problem.design.source)


class TestDebugPrompt:
    def make_summary(self, problems):
        p = problems["arbiter2"]
        mutants = {bc: (src, wit) for bc, src, wit in p.mutants()}
        source, witness = mutants["BC06"]
        from svloop.frontend.elaborate import elaborate_source

        mutant = elaborate_source(source)
        outputs = [q.name for q in p.signature.outputs]
        actual = run(mutant, witness, p.signature)
        expected = run(p.design, witness, p.signature)
        verdict = compare(actual, expected, outputs)
        summary = summarize(actual, expected, verdict, outputs, RunConfig().mismatch_limit)
        return p, source, witness, summary

    def test_lists_mismatch_rows(self, problems):
        p, source, witness, summary = self.make_summary(problems)
        prompt = build_debug_prompt(p, source, witness, summary)
        entry = summary.entries[0]
        assert f"{entry.output} | {entry.cycle} | {entry.expected} | {entry.actual}" in prompt
        assert entry.output in ("g1", "g2")

    def test_truncation_disclosed(self, problems):
        p, source, witness, summary = self.make_summary(problems)
        if summary.total <= 3:
            from dataclasses import replace

            summary = replace(summary, entries=summary.entries[:1], total=10)
        prompt = build_debug_prompt(p, source, witness, summary)
        assert "of" in summary.to_table() or f"({summary.total} mismatches" in prompt

    def test_overflow(self, problems):
        p, source, witness, summary = self.make_summary(problems)
        overlong = replace(p, description=OVERLONG_DESCRIPTION)
        with pytest.raises(PromptOverflow, match="16384-token"):
            build_debug_prompt(overlong, source, witness, summary)

    def test_each_template_is_read_once_per_process(self, problems, monkeypatch):
        p, source, witness, summary = self.make_summary(problems)
        prompts._load_template.cache_clear()
        reads = []
        real = Path.read_text

        def read_text(path, *args, **kwargs):
            if path.parent.name == "templates":
                reads.append(path.name)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", read_text)
        built = [(build_testgen_prompt(RunConfig(strategy="nlsc"), p, source),
                  build_debug_prompt(p, source, witness, summary)) for _ in range(2)]
        assert reads == ["testgen.txt", "debug.txt"]
        assert built[0] == built[1]

    def test_ends_with_strategies_block(self, problems):
        p, source, witness, summary = self.make_summary(problems)
        prompt = build_debug_prompt(p, source, witness, summary)
        for name in (
            "Clock Domain Analysis",
            "Reset Logic Verification",
            "State Machine Analysis",
            "Edge Detection",
            "Data Path Synchronization",
        ):
            assert name in prompt
        assert prompt.rstrip().endswith("Data Path Synchronization")
        assert prompt.index("## Debugging strategies") > prompt.index("## Required output format")


class TestMockProvider:
    def test_sequence_exhaustion(self):
        provider = ScriptedMockProvider(["only response"])
        cfg = RunConfig()
        assert provider.complete("p1", cfg) == "only response"
        with pytest.raises(ScriptExhausted):
            provider.complete("p2", cfg)

    def test_digest_replay_is_stable_and_unconsuming(self):
        digest = prompt_digest("the prompt")
        provider = ScriptedMockProvider(["fallback"], {digest: "keyed"})
        cfg = RunConfig()
        assert provider.complete("the prompt", cfg) == "keyed"
        assert provider.complete("the prompt", cfg) == "keyed"
        assert provider.complete("other", cfg) == "fallback"

    def test_script_dir_round_trip(self, tmp_path):
        digest = prompt_digest("hello")
        save_mock_script(tmp_path / "s", ["a", "b"], {digest: "keyed"})
        provider = ScriptedMockProvider.from_dir(tmp_path / "s")
        cfg = RunConfig()
        assert provider.complete("hello", cfg) == "keyed"
        assert provider.complete("x", cfg) == "a"
        assert provider.complete("y", cfg) == "b"

    def test_live_provider_requires_credentials(self):
        env = {ENV_ENDPOINT: "http://x", ENV_MODEL: "m"}
        with pytest.raises(ProviderRejection):
            LiveHttpProvider.from_env(env=env)
        with pytest.raises(ProviderRejection):
            LiveHttpProvider.from_env(env={})

    def test_mock_run_requires_script(self):
        with pytest.raises(ProviderRejection, match="--mock-script"):
            build_provider(RunConfig(provider="mock"))

    def test_unknown_provider_is_rejected(self):
        with pytest.raises(ValueError, match="field 'provider' is 'mock-ish'"):
            RunConfig(provider="mock-ish", script_dir="s")

    def test_one_shot_complete_surface(self, tmp_path):
        save_mock_script(tmp_path / "s", ["scripted answer"])
        provider = build_provider(RunConfig(provider="mock", script_dir=str(tmp_path / "s")))
        assert provider.complete("any prompt", RunConfig()) == "scripted answer"


class TestParseUnitTest:
    def test_embedded_block(self, problems):
        p = problems["full_adder"]
        response = (
            "Sure. Here is a test that covers the carry cases:\n\n"
            "```\ninputs: a[1], b[1], c[1]\n"
            "0 0 0\n0 0 1\n0 1 0\n0 1 1\n1 0 0\n1 0 1\n1 1 0\n1 1 1\n```\n"
            "This exercises every input combination.\n"
        )
        test = parse_unit_test(response, p.signature, "t1")
        assert test.cycles == 8

    def test_column_order_violation(self, problems):
        p = problems["full_adder"]
        with pytest.raises(MalformedStimulus):
            parse_unit_test("inputs: c[1], b[1], a[1]\n0 0 0\n", p.signature)

    def test_prose_only(self, problems):
        with pytest.raises(NoStimulusFound):
            parse_unit_test("I am unable to help with that.", problems["full_adder"].signature)


class TestParsePatch:
    def test_valid_patch(self, problems):
        p = problems["arbiter2"]
        response = "The corrected module:\n\n" + p.reference.text + "\nThat fixes it."
        patch = parse_patch(response, p.signature)
        assert patch.source.origin == "patched"
        assert patch.source.text.strip().startswith("module arbiter2")

    def test_port_rename_rejected(self, problems):
        p = problems["arbiter2"]
        renamed = p.reference.text.replace("r1", "req1")
        with pytest.raises(PatchRejected) as exc:
            parse_patch(renamed, p.signature)
        assert exc.value.reason == "signature"

    def test_syntax_error_rejected(self, problems):
        with pytest.raises(PatchRejected) as exc:
            parse_patch("module m (input a;\nendmodule", problems["arbiter2"].signature)
        assert exc.value.reason == "parse"

    def test_non_ascii_digit_is_a_parse_rejection(self, problems):
        p = problems["full_adder"]
        text = p.reference.text.replace("assign propagate = a ^ b;", "assign propagate = a ^ \u00b2;")
        with pytest.raises(PatchRejected) as exc:
            parse_patch(text, p.signature)
        assert exc.value.reason == "parse"
        assert exc.value.detail == "<input>:12:26: unexpected character '\u00b2'"

    def test_no_module(self, problems):
        with pytest.raises(NoModuleFound):
            parse_patch("the fix is to invert the condition", problems["arbiter2"].signature)

    def test_elaboration_failure_rejected(self, problems):
        p = problems["full_adder"]
        text = (
            "module full_adder (\n  input a,\n  input b,\n  input c,\n"
            "  output reg s,\n  output reg cout\n);\n"
            "  wire x;\n  wire y;\n  assign x = y;\n  assign y = x;\n"
            "  always @(*) begin\n    s = a;\n    cout = b;\n  end\nendmodule\n"
        )
        with pytest.raises(PatchRejected) as exc:
            parse_patch(text, p.signature)
        assert exc.value.reason == "elaborate"
