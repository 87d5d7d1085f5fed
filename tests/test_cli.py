import argparse
import copy
import fcntl
import functools
import hashlib
import importlib
import json
import operator
import os
import random
import shutil
import subprocess
import sys
import types
from dataclasses import fields
from pathlib import Path

import pytest

import svloop
from support import (
    REPORT_SCHEMA, OracleBackedResponder, record_mock_script, tree_digest, tree_listing,
    valid_arbiter_stimulus,
)
from svloop.cli import (
    EXIT_DATA, EXIT_PROVIDER, EXIT_USAGE, _COMMANDS, _run_config, main, make_parser,
)
from svloop import matrix
from svloop.data import default_corpus_root
from svloop.errors import CheckpointError
from svloop.gateway.providers import ENV_ENDPOINT, ENV_KEY, ENV_MODEL
from svloop.manifest import RunConfig, load_corpus
from svloop.report import build_report
from svloop.sim import engine
from svloop.sim.coverage import collect_coverage
from svloop.sim.stimulus import UnitTest, parse_stimulus


@pytest.fixture(scope="module")
def cli_corpus(corpus_dir):
    return str(corpus_dir)


@pytest.fixture(scope="module")
def finished_run(corpus_dir, tmp_path_factory):
    """(corpus, mock script, run directory) of a clean two-problem evaluate."""
    base = tmp_path_factory.mktemp("finished")
    corpus = base / "corpus"
    for pid in ("adder4", "full_adder"):
        shutil.copytree(corpus_dir / "problems" / pid, corpus / "problems" / pid)
    shutil.copy(corpus_dir / "exemplars.json", corpus / "exemplars.json")
    script = record_mock_script(load_corpus(corpus), base / "script", base / "scratch")
    run_dir = base / "run"
    assert main([
        "evaluate", "--problems", str(corpus), "--out", str(run_dir),
        "--mock-script", str(script), "--seed", "1",
    ]) == 0
    return corpus, script, run_dir


class StallingResponder(OracleBackedResponder):
    """Answers a debug prompt with the design it shows, a patch that does not
    improve the pass fraction, and the same prompt again with the reference."""

    def __init__(self, problems):
        super().__init__(problems)
        self.answered = set()

    def complete(self, prompt, cfg):
        if "corrected SystemVerilog module" not in prompt or prompt in self.answered:
            return super().complete(prompt, cfg)
        self.answered.add(prompt)
        return next(source.text for _, source, _ in self._problem_of(prompt).mutants()
                    if source.text.rstrip("\n") in prompt)


@pytest.fixture(scope="module")
def stalled_run(problems, tmp_path_factory):
    """(arbiter2, its run configuration, run directory) of an evaluate in
    which each debug target's first patch does not improve, so that its
    record holds a ``pass-fraction`` rejection, and whose sources generate
    suites of two and three tests, with rejected iterations."""
    arbiter2 = problems["arbiter2"]
    run_dir = tmp_path_factory.mktemp("stalled") / "run"
    config = RunConfig(provider="mock", script_dir=str(run_dir.parent / "script"), seed=1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix, "build_provider",
                      lambda config, log_dir: StallingResponder([arbiter2]))
        summary = matrix.evaluate_matrix([arbiter2], config, run_dir)
    assert summary["problems"]["arbiter2"]["debug_solved"] == 10
    return arbiter2, config, run_dir


def _assigning(expression, declaration=""):
    """A design that assigns ``expression`` on the line after its statement's,
    with ``declaration`` after it."""
    return (f"module m (input a, output [3:0] y);\n  assign y =\n    {expression};\n"
            f"{declaration}\nendmodule\n")


# one design per front-end diagnostic that no other test reaches, with the
# position and message `svloop parse` prints for it. An elaboration error is
# positioned at its literal, or at column 0 of the declaration that is too wide.
FRONT_END_DIAGNOSTICS = [
    (_assigning("4'd20"), "3:5: literal value of 5 bits does not fit in 4 bits"),
    (_assigning("0'd0"), "3:5: literal size must be positive"),
    (_assigning("4097'd0"), "3:5: literal size exceeds the 4096-bit limit"),
    (_assigning("'h" + "f" * 1100),
     "3:5: unsized literal of 4400 bits exceeds the 4096-bit limit"),
    (_assigning("a", "wire [4096:0] big;"), "4:0: 'big' is wider than the 4096-bit limit"),
    (_assigning("a", "parameter P = 'h" + "f" * 1100 + ";"),
     "4:0: parameter 'P' is wider than the 4096-bit limit"),
    ("// no design here\n", "1:1: no module found in source"),
    ("module m (inout a);\nendmodule\n", "1:11: unsupported construct: inout port"),
    ("module m (input a, output reg y);\n  always @(*) begin\n    y = a;\n",
     "2:15: missing 'end'"),
    ("module m (input a, output reg y);\n  always @(*)\n    case (a)\n      1'b0: y = a;\n",
     "3:5: missing 'endcase'"),
    ("module m (input a, output reg y);\n  always @(*)\n    case (a)\n"
     "      default: y = a;\n      default: y = 0;\n    endcase\nendmodule\n",
     "5:7: duplicate default arm"),
    ("module m (input a, output reg y);\n  always @(*)\n    #5 y = a;\nendmodule\n",
     "3:5: unsupported construct: delay control"),
    ("module m (input a, output y);\n  assign y = f(a);\nendmodule\n",
     "2:15: unsupported construct: function call"),
    ("module m (input a, output y);\n  wire w = a;\n  assign y = w;\nendmodule\n",
     "2:12: unsupported construct: declaration initializer"),
    ("module m (input a, output [1:0] y);\n  assign y[0] = a;\nendmodule\n",
     "2:11: unsupported construct: bit/part-select assignment target"),
    ("module m (input a, output reg [1:0] y);\n  always @(*)\n    y[0] = a;\nendmodule\n",
     "3:6: unsupported construct: bit/part-select assignment target"),
]


class TestParseCommand:
    def test_parse_prints_signature(self, cli_corpus, capsys):
        ref = Path(cli_corpus) / "problems" / "arbiter2" / "ref.sv"
        assert main(["parse", str(ref)]) == 0
        out = capsys.readouterr().out
        assert "module arbiter2" in out and "clock: clk" in out

    def test_parse_json(self, cli_corpus, capsys):
        ref = Path(cli_corpus) / "problems" / "full_adder" / "ref.sv"
        assert main(["parse", str(ref), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["module"] == "full_adder"
        assert [p["name"] for p in data["inputs"]] == ["a", "b", "c"]

    def test_parse_error_exit_code_and_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.sv"
        bad.write_text("module m (input a output y);\nendmodule\n")
        assert main(["parse", str(bad)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{bad}:1:" in err

    def test_missing_file(self, capsys):
        assert main(["parse", "/nonexistent/x.sv"]) == EXIT_DATA

    def test_non_ascii_digit_is_a_positioned_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.sv"
        bad.write_text("module m (input a, output y);\n  assign y = a ^ \u00b2;\nendmodule\n",
                       "utf-8")
        assert main(["parse", str(bad)]) == EXIT_DATA
        assert capsys.readouterr().err == f"{bad}:2:18: unexpected character '\u00b2'\n"

    @pytest.mark.parametrize("text, diagnostic", FRONT_END_DIAGNOSTICS)
    def test_front_end_errors_are_positioned_diagnostics(self, tmp_path, capsys, text,
                                                         diagnostic):
        bad = tmp_path / "bad.sv"
        bad.write_text(text)
        assert main(["parse", str(bad)]) == EXIT_DATA
        assert capsys.readouterr().err == f"{bad}:{diagnostic}\n"

    def test_statements_past_the_nesting_cap_are_a_positioned_diagnostic(self, tmp_path, capsys):
        deep = tmp_path / "deep.sv"
        deep.write_text("module m (input a, output reg y);\n"
                        f"  always @(*) {'if (a) ' * 600}y = a;\nendmodule\n")
        assert main(["parse", str(deep)]) == EXIT_DATA
        col = len("  always @(*) ") + len("if (a) ") * 128 + 1
        assert capsys.readouterr().err == (
            f"{deep}:2:{col}: statements nest deeper than 128 levels\n")


class TestSimulateCommand:
    def test_simulate_table_and_vcd(self, cli_corpus, tmp_path, capsys):
        ref = Path(cli_corpus) / "problems" / "arbiter2" / "ref.sv"
        stim = tmp_path / "walk.stim"
        stim.write_text(valid_arbiter_stimulus())
        vcd = tmp_path / "out.vcd"
        assert main(["simulate", str(ref), "--stim", str(stim), "--vcd", str(vcd)]) == 0
        out = capsys.readouterr().out
        assert "cycle" in out and "g1" in out
        assert vcd.read_bytes().startswith(b"$version")

    def test_simulate_coverage(self, cli_corpus, tmp_path, capsys):
        ref = Path(cli_corpus) / "problems" / "full_adder" / "ref.sv"
        stim = tmp_path / "t.stim"
        stim.write_text("inputs: a[1], b[1], c[1]\n0 0 0\n1 1 1\n")
        assert main(["simulate", str(ref), "--stim", str(stim), "--coverage"]) == 0
        assert '"scalar"' in capsys.readouterr().out

    def test_non_ascii_port_is_a_positioned_data_error(self, tmp_path, capsys):
        design = tmp_path / "m.sv"
        design.write_text("module m (input \u00e9, output y);\n  assign y = \u00e9;\nendmodule\n",
                          "utf-8")
        stim = tmp_path / "t.stim"
        stim.write_text("inputs: \u00e9[1]\n0\n1\n", "utf-8")
        vcd = tmp_path / "out.vcd"
        argv = ["simulate", str(design), "--stim", str(stim), "--vcd", str(vcd)]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {design}:1:17: unexpected character '\u00e9'\n"
        assert not vcd.exists()

    def test_stimulus_mismatch_is_data_error(self, cli_corpus, tmp_path, capsys):
        ref = Path(cli_corpus) / "problems" / "full_adder" / "ref.sv"
        stim = tmp_path / "t.stim"
        stim.write_text("inputs: b[1], a[1], c[1]\n0 0 0\n")
        assert main(["simulate", str(ref), "--stim", str(stim)]) == EXIT_DATA

    @pytest.mark.parametrize("text, where, message", [
        ("inputs: rst[1], r1[1], r2[1]\n1 0 0\n0 1\n", ":3", "expected 3 values, found 2\n"),
        ("inputs: rst[1], r2[1], r1[1]\n1 0 0\n", ":1", "columns rst[1], r2[1], r1[1] do not"),
        ("1 0 0\n", "", "no 'inputs:' stimulus header found\n"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "debug"])
    def test_malformed_stimulus_file_names_the_file_and_line(self, cli_corpus, tmp_path, capsys,
                                                            command, text, where, message):
        suite = tmp_path / "suite"
        suite.mkdir()
        stim = suite / "bad.stim"
        stim.write_text(text)
        (tmp_path / "script").mkdir()
        argv = {
            "simulate": ["simulate", str(Path(cli_corpus) / "problems" / "arbiter2" / "ref.sv"),
                         "--stim", str(stim)],
            "debug": ["debug", "arbiter2", "--problems", cli_corpus, "--target", "BC01",
                      "--tests", str(suite), "--out", str(tmp_path / "out"),
                      "--mock-script", str(tmp_path / "script")],
        }[command]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {stim}{where}: {message}")
        assert not (tmp_path / "out").exists()

    def test_coverage_simulates_once_and_reports_the_union(self, problems, tmp_path,
                                                          monkeypatch, capsys):
        p = problems["arbiter2"]
        stim = tmp_path / "walk.stim"
        stim.write_text(valid_arbiter_stimulus())
        expected = collect_coverage(p.design, [parse_stimulus(stim.read_text(), p.signature)],
                                    p.signature).as_dict()
        calls = []
        real = engine.run

        def counting(*args):
            calls.append(args[1].id)
            return real(*args)

        monkeypatch.setattr(engine, "run", counting)
        assert main(["simulate", str(p.root / "ref.sv"), "--stim", str(stim), "--coverage"]) == 0
        assert calls == ["walk"]
        out = capsys.readouterr().out
        assert json.loads(out[out.index("\n{") + 1:]) == expected


def seeded_stimulus(signature, cycles, seed) -> str:
    """A stimulus of random rows that holds the reset asserted for the first
    two cycles and now and then after."""
    rng = random.Random(seed)
    reset = signature.reset
    rows = []
    for n in range(cycles):
        row = []
        for port in signature.stimulus_inputs:
            if reset is not None and port.name == reset.name:
                asserted = n < 2 or rng.random() < 0.05
                row.append(int(asserted == reset.active_high))
            else:
                row.append(rng.getrandbits(port.width))
        rows.append(tuple(row))
    return UnitTest("seeded", signature.stimulus_inputs, tuple(rows)).to_text()


class TestSimulateOutputPinned:
    """`simulate --vcd --coverage` on each desk reference and each seed-1
    mutant with a 200-cycle seeded stimulus prints and writes the same bytes
    as before: SHA-256 over stdout followed by the VCD file."""

    PINNED = {
        "adder4": "3a04dabc5bf5b42048d54b42503c6e83ed3b256d5b4f24721a8d15014bd404a9",
        "arbiter2": "5736e4a6abb1b39904a8c50548a4ad859b2429a9fbf050a0c999dce1bb1bdb33",
        "counter3": "2158dd3cc0f0f37b21849fd1339a6877612feef45f7789e4e714cb53bcf165ae",
        "full_adder": "a69c4f9b35e06c4f21eb0d2950d283f4009ad33b2fde3c32ef37fc55514f685f",
        "seq_detect": "2ec71271e9097f05ddd5f0c80aef78de1332dcf0fd715b148b505c65f7569a7d",
    }

    # the seed-1 mutants: negedge-clocked (BC10), async-reset variants and
    # every other operator the corpus applies
    PINNED_MUTANTS = {
        "adder4/bc02": "4479b3fad5db3c7f2f96e1f16ba314e2b54f123f1e5ccc58a252d11bcffc5f3c",
        "adder4/bc03": "c3ac240df0c26ab18be5ae87999d4fbeed3509824bd77252a23b1bb1be747386",
        "adder4/bc04": "98e984f5758663b0f80359715ab5b52bde79d60b3ed3eb5beb5025711b8755df",
        "adder4/bc05": "a02b37b49c232380b8a27bd274061d7e53f3b28e2d9ed2ef8a4d80c2945105e4",
        "arbiter2/bc01": "7c9d8dccfb0b97a1f6d2ce57d88c22dbf2b28506eb5092444315f8f30bc62ea6",
        "arbiter2/bc02": "3cb79ab5d0bc81a0de67c3b28ec4a4aa968be6afe0042ee04478eeb6de023745",
        "arbiter2/bc03": "8e4dc9960d47bd2774ee86c16f41d3c99818c4f388eb7d5cc8dba18fac9e6a38",
        "arbiter2/bc04": "c6f2dc5630dab731418266de0abf6fd16ab84396c3c8a67db3c1cd4e5e939ff7",
        "arbiter2/bc05": "fadb8f96b766b38009b062390d1d80348493d5eeca3c63914e3110fd90fc4afc",
        "arbiter2/bc06": "e0d070bcd46697b7887d99f79f180b0b2cec0a88dc7332f0846403517cf94fc2",
        "arbiter2/bc07": "365854545d8cb8928500f88ebd0899d6282a824e5471af99e68b652a216ea2d0",
        "arbiter2/bc08": "aa1a6aa2562a6d7b839e53b3f239fc605618cdd914e1a0686391571a41915d2e",
        "arbiter2/bc09": "06a36f77f4faa41183b8f9bb4327d2ae0e608a95916467874fa4a4e8ba2eea0d",
        "arbiter2/bc10": "312d45138af1970b5c7593183aef6839fc392d5aec26114fcd5ba7ca766746c7",
        "counter3/bc03": "af12162fa08660b086664d0cada576559b522a72d8de27e5c07d05e225ab5a38",
        "counter3/bc04": "62548784bf68130fe410358bf7dda5fc73971fd93e844fd75ea07e5171bcffd5",
        "counter3/bc05": "ed9ebc850cfdc78517c8f4dacf83cb272cf0ab3f3a899713ca33ece89eab4c59",
        "counter3/bc08": "692c88f21e34dbeb3fcb358bd18719f62f4e038516f76f1ccec9d82fd2a91ff9",
        "counter3/bc10": "d9e8baf5906884fbc8266447e90ab76492489978084f762ae28e63af88b43552",
        "full_adder/bc01": "0b27b3709bf064cbea38ef8039a6438617c08b6e7fc29eb90a4e437ffac25d83",
        "full_adder/bc02": "2b61785957864f74ae6f501db6402ab0b8a0fbc4d3d9c40a22c2a7a93b3aa1d6",
        "full_adder/bc03": "1d2aae38a37bc957fd784f1e7b6f55c62aa45e07a0f70e24fdb0489c4c7dc526",
        "full_adder/bc04": "76f2d320ef584514991a8b3e50e1e755d9695ed36eff78040bcbd68efcf87cfb",
        "full_adder/bc05": "72c0f68479aea94f3f28d08bd0d993835d29e5aa24b1092c88bcb07525a593e8",
        "full_adder/bc09": "9a871670287bd936cc3fdedfad5a8f1db8b827c43568cc119fd59442427a8f93",
        "seq_detect/bc02": "d1997bd4fa547707bb7a896be0f2073115d054fd98c2bd906366c04994985583",
        "seq_detect/bc03": "b75abe02953b8554320b823cba8851e63a9149196904d561884031a03dc65af4",
        "seq_detect/bc04": "bac1eef8ba909ec611c3fb155cc4d141628d6bc421f921f5135b51698dd7f7b8",
        "seq_detect/bc05": "d42094c2b7682a244446baba24b48b50faaae68cdb3da33422319cad36bbf2f1",
        "seq_detect/bc06": "e6a76480970c94cb42b8823650177cff4ef161bd2cd8805c7db07b180d71edc9",
        "seq_detect/bc07": "64ab753b0791984593f16736c42c0436a6bd52eb426951e30407fb48e05296b9",
        "seq_detect/bc08": "3957007ae4f80604599abb76a5b9b06c7a55f2417f68f3dbc8e6d0ac3759fb1e",
        "seq_detect/bc10": "8ab7f98c84c4ebb4050c9515aacab60898b2fc3eaa1d36a6eac3de9e46a5a83d",
    }

    @staticmethod
    def digest(problem, design_file, seed, tmp_path, monkeypatch, capsys) -> str:
        monkeypatch.chdir(tmp_path)
        Path("long.stim").write_text(seeded_stimulus(problem.signature, 200, seed))
        assert main(["simulate", str(problem.root / design_file), "--stim", "long.stim",
                     "--vcd", "long.vcd", "--coverage"]) == 0
        printed = capsys.readouterr().out.encode()
        return hashlib.sha256(printed + Path("long.vcd").read_bytes()).hexdigest()

    @pytest.mark.parametrize("pid", sorted(PINNED))
    def test_stdout_and_vcd_bytes(self, problems, pid, tmp_path, monkeypatch, capsys):
        digest = self.digest(problems[pid], "ref.sv", pid, tmp_path, monkeypatch, capsys)
        assert digest == self.PINNED[pid]

    @pytest.mark.parametrize("key", sorted(PINNED_MUTANTS))
    def test_mutant_stdout_and_vcd_bytes(self, problems, key, tmp_path, monkeypatch, capsys):
        pid, bc = key.split("/")
        assert {b.lower() for b, _, _ in problems[pid].mutants()} >= {bc}
        digest = self.digest(problems[pid], f"{bc}.sv", key, tmp_path, monkeypatch, capsys)
        assert digest == self.PINNED_MUTANTS[key]


class TestRunDirectoryPinned:
    """A scripted `evaluate` of the seed-1 desk corpus, replaying the
    responder of seed 1, then `report`, writes the same bytes as before:
    ``tree_digest`` of the run directory, which the benchmark pins for the
    same run of its evaluate-desk workload."""

    CORPUS = "a83509fc9ba7b763e88219680047a23d5ba9cb4a2c0d5ee12ea57f7ae462b9c3"
    EVALUATED = "b4cb9bc3ccbf1adc136723b6150d83a02d6c4b3e100e7a0fded99d93b022a3b2"
    REPORTED = "294c46aa7ba5f577cb3dec292ebe9667803c8211a34d9c85530e5369ae5c62f0"

    def test_evaluate_resume_and_report_trees(self, corpus_dir, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # run_config.json records the script directory as given
        shutil.copytree(corpus_dir, "corpus")
        assert tree_digest("corpus") == self.CORPUS
        record_mock_script(load_corpus(Path("corpus")), "script1", "record1", seed=1)
        evaluate = ["evaluate", "--out", "run", "--problems", "corpus",
                    "--mock-script", "script1", "--strategy", "nlsc", "--shots", "0"]
        assert main(evaluate) == 0
        assert tree_digest("run") == self.EVALUATED
        assert main(evaluate) == 0  # a resume of a finished run changes nothing
        assert tree_digest("run") == self.EVALUATED
        assert main(["report", "run"]) == 0
        assert tree_digest("run") == self.REPORTED


class TestMutateCommand:
    def test_mutate_writes_corpus(self, fresh_corpus, capsys):
        assert main(["mutate", "arbiter2", "--problems", str(fresh_corpus), "--seed", "1"]) == 0
        problem_dir = fresh_corpus / "problems" / "arbiter2"
        files = sorted(p.name for p in problem_dir.glob("bc*.sv"))
        assert files == [f"bc{i:02d}.sv" for i in range(1, 11)]
        manifest = json.loads((problem_dir / "manifest.json").read_text())
        assert len(manifest["records"]) == 10
        out = capsys.readouterr().out
        assert "10 mutants" in out

    def test_rerun_same_seed_is_stable(self, fresh_corpus, capsys):
        main(["mutate", "counter3", "--problems", str(fresh_corpus), "--seed", "2"])
        problem_dir = fresh_corpus / "problems" / "counter3"
        before = {p.name: p.read_bytes() for p in problem_dir.glob("bc*.sv")}
        before["manifest.json"] = (problem_dir / "manifest.json").read_bytes()
        main(["mutate", "counter3", "--problems", str(fresh_corpus), "--seed", "2"])
        after = {p.name: p.read_bytes() for p in problem_dir.glob("bc*.sv")}
        after["manifest.json"] = (problem_dir / "manifest.json").read_bytes()
        assert before == after

    def test_missing_reference_is_manifest_error(self, fresh_corpus, capsys):
        (fresh_corpus / "problems" / "adder4" / "ref.sv").unlink()
        assert main(["mutate", "adder4", "--problems", str(fresh_corpus)]) == EXIT_DATA

    @pytest.mark.parametrize("name", ["nosuch", "clk"])
    def test_reset_that_is_no_stimulus_input_is_a_data_error(self, fresh_corpus, tmp_path,
                                                             capsys, name):
        manifest = fresh_corpus / "problems" / "seq_detect" / "problem.json"
        raw = json.loads(manifest.read_text())
        raw["reset"]["name"] = name
        manifest.write_text(json.dumps(raw))
        expected = (f"error: seq_detect: {manifest} names reset {name!r}, "
                    "which is not a 1-bit input other than the clock\n")
        assert main(["mutate", "seq_detect", "--problems", str(fresh_corpus)]) == EXIT_DATA
        assert capsys.readouterr().err == expected
        run_dir = tmp_path / "run"
        assert main(["evaluate", "--problems", str(fresh_corpus), "--out", str(run_dir)]) \
            == EXIT_DATA
        assert capsys.readouterr().err == expected
        assert not run_dir.exists()

    def test_truncated_problem_json_is_data_error(self, fresh_corpus, capsys):
        manifest = fresh_corpus / "problems" / "adder4" / "problem.json"
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])
        assert main(["mutate", "all", "--problems", str(fresh_corpus)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(manifest) in err


    @pytest.mark.parametrize("field, value", [
        ("exemplars", 5), ("reset", {"name": "rst", "active_high": "false"}),
        # the id names the problem's directory in a run directory
        *[("id", value) for value in ("../../escaped", "a/b", "..", ".", "", "nul\0", ["x"], 5,
                                      None)],
    ])
    def test_wrongly_typed_problem_json_field_is_data_error(self, fresh_corpus, tmp_path,
                                                           capsys, field, value):
        manifest = fresh_corpus / "problems" / "seq_detect" / "problem.json"
        raw = json.loads(manifest.read_text())
        raw[field] = value
        manifest.write_text(json.dumps(raw))
        assert main(["mutate", "seq_detect", "--problems", str(fresh_corpus)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {manifest} is malformed: ")
        run_dir = tmp_path / "a" / "run"
        assert main(["evaluate", "--problems", str(fresh_corpus), "--out", str(run_dir)]) \
            == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {manifest} is malformed: ")
        assert not (tmp_path / "a").exists()

    def test_two_problems_with_one_id_are_a_data_error_naming_both(self, corpus_dir, tmp_path,
                                                                    capsys):
        corpus = shutil.copytree(corpus_dir, tmp_path / "corpus")
        shutil.copytree(corpus / "problems" / "full_adder", corpus / "problems" / "zz_copy")
        run_dir = tmp_path / "run"
        assert main(["evaluate", "--problems", str(corpus), "--out", str(run_dir)]) \
            == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {corpus}/problems/full_adder/problem.json and "
            f"{corpus}/problems/zz_copy/problem.json both have id 'full_adder'\n")
        assert not run_dir.exists()


class TestLoopCommands:
    def test_gen_tests(self, cli_corpus, tmp_path, capsys):
        script = tmp_path / "script"
        script.mkdir()
        responses = [
            "inputs: rst[1], r1[1], r2[1]\n1 0 0\n1 0 0\n",
            valid_arbiter_stimulus(),
            valid_arbiter_stimulus() + "0 1 1\n0 0 1\n0 0 0\n",
        ]
        for i, text in enumerate(responses, start=1):
            (script / f"response-{i:03d}.txt").write_text(text)
        out = tmp_path / "tests"
        code = main([
            "gen-tests", "arbiter2", "--problems", cli_corpus, "--source", "BC01",
            "--out", str(out), "--mock-script", str(script), "--iters", "3",
        ])
        assert code == 0
        assert list(out.glob("*.stim"))
        assert "accepted" in capsys.readouterr().out

    def test_debug_command(self, cli_corpus, tmp_path, capsys):
        problem_dir = Path(cli_corpus) / "problems" / "arbiter2"
        manifest = json.loads((problem_dir / "manifest.json").read_text())
        witness = next(r["witness"] for r in manifest["records"] if r["bc_id"] == "BC06")
        tests_dir = tmp_path / "suite"
        tests_dir.mkdir()
        (tests_dir / "w.stim").write_text(witness)
        script = tmp_path / "script"
        script.mkdir()
        (script / "response-001.txt").write_text((problem_dir / "ref.sv").read_text())
        out = tmp_path / "debugged"
        code = main([
            "debug", "arbiter2", "--problems", cli_corpus, "--target", "BC06",
            "--tests", str(tests_dir), "--out", str(out), "--mock-script", str(script),
        ])
        assert code == 0
        assert (out / "final.sv").exists()
        assert "repaired" in capsys.readouterr().out

    def test_debug_target_that_does_not_elaborate(self, cli_corpus, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        shutil.copytree(cli_corpus, corpus)
        problem_dir = corpus / "problems" / "arbiter2"
        manifest = json.loads((problem_dir / "manifest.json").read_text())
        witness = next(r["witness"] for r in manifest["records"] if r["bc_id"] == "BC06")
        (tmp_path / "suite").mkdir()
        (tmp_path / "suite" / "w.stim").write_text(witness)
        (tmp_path / "script").mkdir()
        # two continuous assignments that read each other: a combinational loop
        ref = (problem_dir / "ref.sv").read_text()
        looped = ref.replace("endmodule", "  wire p;\n  wire q;\n  assign p = q;\n"
                             "  assign q = p;\nendmodule")
        (problem_dir / "bc06.sv").write_text(looped)
        code = main([
            "debug", "arbiter2", "--problems", str(corpus), "--target", "BC06",
            "--tests", str(tmp_path / "suite"), "--out", str(tmp_path / "out"),
            "--mock-script", str(tmp_path / "script"),
        ])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_debug_target_with_other_ports(self, cli_corpus, tmp_path, capsys):
        # adder4's BC03 with its input cin renamed elaborates, but no
        # stimulus of the problem fits it
        corpus = tmp_path / "corpus"
        shutil.copytree(cli_corpus, corpus)
        problem_dir = corpus / "problems" / "adder4"
        manifest = json.loads((problem_dir / "manifest.json").read_text())
        witness = next(r["witness"] for r in manifest["records"] if r["bc_id"] == "BC03")
        (tmp_path / "suite").mkdir()
        (tmp_path / "suite" / "w.stim").write_text(witness)
        (tmp_path / "script").mkdir()
        mutant = problem_dir / "bc03.sv"
        mutant.write_text(mutant.read_text().replace("cin", "cix"))
        code = main([
            "debug", "adder4", "--problems", str(corpus), "--target", "BC03",
            "--tests", str(tmp_path / "suite"), "--out", str(tmp_path / "out"),
            "--mock-script", str(tmp_path / "script"),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == \
            "error: mutant BC03 does not keep the interface of adder4\n"
        assert not (tmp_path / "out").exists()

    def test_mock_without_script_is_provider_error(self, cli_corpus, tmp_path, capsys):
        code = main([
            "gen-tests", "arbiter2", "--problems", cli_corpus, "--source", "BC01",
            "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_PROVIDER

    @pytest.mark.parametrize("command", ["gen-tests", "debug", "evaluate", "evaluate --jobs 2"])
    def test_mock_without_script_names_the_flag_and_writes_nothing(
            self, cli_corpus, tmp_path, capsys, command):
        command, *jobs = command.split()
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "t.stim").write_text(valid_arbiter_stimulus())
        args = {
            "gen-tests": ["arbiter2", "--problems", cli_corpus, "--source", "BC01"],
            "debug": ["arbiter2", "--problems", cli_corpus, "--target", "BC01",
                      "--tests", str(suite)],
            "evaluate": ["--problems", cli_corpus],
        }[command]
        out = tmp_path / "out"
        assert main([command, *args, *jobs, "--out", str(out)]) == EXIT_PROVIDER
        err = capsys.readouterr().err
        assert err == "provider error: --provider mock requires --mock-script DIR\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-tests", "debug", "evaluate", "evaluate --jobs 2"])
    def test_missing_mock_script_dir_is_a_data_error_naming_it(
            self, cli_corpus, tmp_path, capsys, command):
        command, *jobs = command.split()
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "t.stim").write_text(valid_arbiter_stimulus())
        args = {
            "gen-tests": ["arbiter2", "--problems", cli_corpus, "--source", "BC01"],
            "debug": ["arbiter2", "--problems", cli_corpus, "--target", "BC01",
                      "--tests", str(suite)],
            "evaluate": ["--problems", cli_corpus],
        }[command]
        script = tmp_path / "no_such_dir"
        out = tmp_path / "out"
        code = main([command, *args, *jobs, "--out", str(out), "--mock-script", str(script)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(script) in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_live_without_env_fails_the_same_for_any_jobs(self, cli_corpus, tmp_path, capsys,
                                                          monkeypatch, jobs):
        for name in (ENV_ENDPOINT, ENV_MODEL, ENV_KEY):
            monkeypatch.delenv(name, raising=False)
        out = tmp_path / "out"
        code = main(["evaluate", "--problems", cli_corpus, "--out", str(out),
                     "--provider", "live", "--jobs", jobs])
        assert code == EXIT_PROVIDER
        assert ENV_KEY in capsys.readouterr().err
        assert not out.exists()


class TestEvaluateAndReport:
    def test_evaluate_and_report(self, corpus_dir, tmp_path, capsys):
        problems = load_corpus(corpus_dir)
        script = tmp_path / "script"
        record_mock_script(problems, script, tmp_path / "scratch")
        run_dir = tmp_path / "run"
        code = main([
            "evaluate", "--problems", str(corpus_dir), "--out", str(run_dir),
            "--mock-script", str(script), "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "arbiter2:" in out
        assert (run_dir / "summary.json").exists()
        assert main(["report", str(run_dir)]) == 0
        report = json.loads((run_dir / "report" / "report.json").read_text())
        assert report["config"]["strategy"] == "nlsc"
        assert (run_dir / "report" / "scoreboard.txt").exists()

    def test_report_on_empty_dir_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nothing")]) == EXIT_DATA

    @pytest.mark.parametrize("broken", ["run_config.json", "problems/adder4/matrix.json"])
    def test_report_on_invalid_json_names_the_file(self, tmp_path, capsys, broken):
        run_dir = tmp_path / "run"
        (run_dir / "problems" / "adder4").mkdir(parents=True)
        (run_dir / "run_config.json").write_text("{}\n")
        (run_dir / broken).write_text("{")
        assert main(["report", str(run_dir)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir / broken} is not valid JSON: ")
        assert not (run_dir / "report").exists()

    def test_report_custom_out_dir(self, corpus_dir, tmp_path, capsys):
        problems = load_corpus(corpus_dir)
        script = tmp_path / "script"
        record_mock_script([problems[0]], script, tmp_path / "scratch")
        sub = tmp_path / "sub"
        (sub / "problems").mkdir(parents=True)
        shutil.copytree(problems[0].root, sub / "problems" / problems[0].id)
        shutil.copy(corpus_dir / "exemplars.json", sub / "exemplars.json")
        run_dir = tmp_path / "run"
        assert main([
            "evaluate", "--problems", str(sub), "--out", str(run_dir),
            "--mock-script", str(script), "--seed", "1",
        ]) == 0
        out = tmp_path / "reports" / "here"
        assert main(["report", str(run_dir), "--out", str(out)]) == 0
        assert (out / "report.json").exists()

    def test_truncated_mutant_manifest_isolates_to_its_problem(self, corpus_dir, tmp_path,
                                                                capsys):
        corpus = tmp_path / "corpus"
        for pid in ("adder4", "full_adder"):
            shutil.copytree(corpus_dir / "problems" / pid, corpus / "problems" / pid)
        shutil.copy(corpus_dir / "exemplars.json", corpus / "exemplars.json")
        script = tmp_path / "script"
        record_mock_script(load_corpus(corpus)[:1], script, tmp_path / "scratch")
        manifest = corpus / "problems" / "full_adder" / "manifest.json"
        text = manifest.read_text()
        manifest.write_text(text[: len(text) // 2])
        run_dir = tmp_path / "run"
        code = main([
            "evaluate", "--problems", str(corpus), "--out", str(run_dir),
            "--mock-script", str(script), "--seed", "1",
        ])
        assert code == EXIT_DATA
        summary = json.loads((run_dir / "summary.json").read_text())
        broken = summary["problems"]["full_adder"]["error"]
        assert broken.startswith("ManifestError") and str(manifest) in broken
        assert "error" not in summary["problems"]["adder4"]
        assert summary["problems"]["adder4"]["cells"] > 0
        assert "full_adder: 0 cells" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["", " \n\t\n"])
    def test_empty_description_is_a_data_error_before_any_output(self, corpus_dir, tmp_path,
                                                                 capsys, text):
        corpus = shutil.copytree(corpus_dir, tmp_path / "corpus")
        description = corpus / "problems" / "adder4" / "description.txt"
        description.write_text(text)
        expected = f"error: adder4: description {description} is empty\n"
        for jobs in ("1", "2"):
            run_dir = tmp_path / f"run-{jobs}"
            code = main(["evaluate", "--problems", str(corpus), "--out", str(run_dir),
                         "--jobs", jobs])
            assert code == EXIT_DATA
            assert capsys.readouterr().err == expected
            assert not run_dir.exists()
        for argv in (["gen-tests", "adder4", "--source", "BC01"],
                     ["debug", "adder4", "--target", "BC01", "--tests", str(tmp_path)]):
            out = tmp_path / argv[0]
            assert main([*argv, "--problems", str(corpus), "--out", str(out)]) == EXIT_DATA
            assert capsys.readouterr().err == expected
            assert not out.exists()

    def test_shots_beyond_the_exemplars_are_a_data_error_of_their_problem(
            self, corpus_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        for pid in ("adder4", "full_adder"):
            shutil.copytree(corpus_dir / "problems" / pid, corpus / "problems" / pid)
        shutil.copy(corpus_dir / "exemplars.json", corpus / "exemplars.json")
        problem_json = corpus / "problems" / "full_adder" / "problem.json"
        raw = json.loads(problem_json.read_text())
        del raw["exemplars"]
        problem_json.write_text(json.dumps(raw))
        script = tmp_path / "script"
        config = RunConfig(provider="mock", script_dir=str(script), seed=1, shots=5)
        record_mock_script(load_corpus(corpus)[:1], script, tmp_path / "scratch", config)
        run_dir = tmp_path / "run"
        code = main([
            "evaluate", "--problems", str(corpus), "--out", str(run_dir),
            "--mock-script", str(script), "--seed", "1", "--shots", "5",
        ])
        assert code == EXIT_DATA
        summary = json.loads((run_dir / "summary.json").read_text())["problems"]
        assert summary["full_adder"]["error"] == (
            "ManifestError: problem full_adder: a 5-shot prompt needs 5 exemplars, it has 0")
        assert "error" not in summary["adder4"] and summary["adder4"]["cells"] > 0
        capsys.readouterr()
        code = main([
            "gen-tests", "full_adder", "--problems", str(corpus), "--source", "BC01",
            "--out", str(tmp_path / "tests"), "--mock-script", str(script), "--shots", "5",
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(
            "error: problem full_adder: a 5-shot prompt needs 5 exemplars")

    @pytest.mark.parametrize("checkpoint, text", [
        ("cells/bc02/bc02/result.json", None),   # truncated
        ("sources/bc02/genstate.json", '{"tests": 5}'),
        ("debug/bc02/state.json", "[]"),
    ])
    def test_corrupt_checkpoint_isolates_to_its_problem(self, finished_run, tmp_path, capsys,
                                                         checkpoint, text):
        corpus, script, finished = finished_run
        run_dir = tmp_path / "run"
        shutil.copytree(finished, run_dir)
        broken = run_dir / "problems" / "adder4" / checkpoint
        original = broken.read_text()
        broken.write_text(original[: len(original) // 2] if text is None else text)
        code = main([
            "evaluate", "--problems", str(corpus), "--out", str(run_dir),
            "--mock-script", str(script), "--seed", "1",
        ])
        assert code == EXIT_DATA
        problems = json.loads((run_dir / "summary.json").read_text())["problems"]
        assert problems["adder4"]["error"].startswith(f"CheckpointError: {broken} is ")
        before = json.loads((finished / "summary.json").read_text())["problems"]
        assert problems["full_adder"] == before["full_adder"]
        assert "adder4: 0 cells" in capsys.readouterr().out

    @pytest.mark.parametrize("checkpoint, text", [
        ("cells/bc02/bc02/result.json",
         '{"source": "BC02", "target": "BC02", "ar": 1, "dr": [1, 0], "da": [1, 0]}'),
        ("cells/bc02/bc02/result.json",
         '{"source": "BC02", "target": "BC02", "ar": 0, "dr": [1, 2], "da": [1, 2]}'),
        # da is divergent_attack(ar, dr): an attack diverges on some cycle and carries da == dr
        ("cells/bc02/bc02/result.json",
         '{"source": "BC02", "target": "BC02", "ar": 1, "dr": [0, 1], "da": [0, 1]}'),
        ("cells/bc02/bc02/result.json",
         '{"source": "BC02", "target": "BC02", "ar": 1, "dr": [1, 2], "da": [1, 4]}'),
        ("sources/bc02/genstate.json", '{"tests": [5]}'),
        # a ratio is an int or a pair of ints, never a string or a bool; ar is 0 or 1
        ("cells/bc02/bc02/result.json",
         '{"source": "BC02", "target": "BC02", "ar": 1, "dr": "1", "da": "1"}'),
        ("cells/bc02/bc02/result.json",
         '{"source": "BC02", "target": "BC02", "ar": 1, "dr": [true, true], "da": [1, 1]}'),
        ("cells/bc02/bc02/result.json",
         '{"source": "BC02", "target": "BC02", "ar": true, "dr": [1, 2], "da": [1, 2]}'),
        # a debug target that was not skipped has a best pass ratio
        ("debug/bc02/state.json", '{}'),
        ("debug/bc02/state.json", '{"best_pass": "x"}'),
        # a skip reason is a string
        ("cells/bc02/bc03/result.json", '{"source": "BC02", "target": "BC03", "skipped": 5}'),
        ("cells/bc02/bc03/result.json", '{"source": "BC02", "target": "BC03", "skipped": null}'),
        ("debug/bc02/state.json", '{"skipped": ["no tests"]}'),
        # a count too large for an int is malformed, not an OverflowError
        ("cells/bc02/bc03/result.json",
         '{"source": "BC02", "target": "BC03", "ar": 1, "dr": [1, 1], "da": [1, 1],'
         ' "first_failing": "t", "tests": [{"id": "t", "outcome": "fail",'
         ' "mismatch_cycles": 1, "cycles": Infinity}]}'),
    ])
    def test_wrongly_valued_checkpoint_isolates_to_its_problem(
            self, finished_run, tmp_path, capsys, checkpoint, text):
        corpus, script, finished = finished_run
        run_dir = tmp_path / "run"
        shutil.copytree(finished, run_dir)
        broken = run_dir / "problems" / "adder4" / checkpoint
        broken.write_text(text)
        code = main([
            "evaluate", "--problems", str(corpus), "--out", str(run_dir),
            "--mock-script", str(script), "--seed", "1",
        ])
        assert code == EXIT_DATA
        problems = json.loads((run_dir / "summary.json").read_text())["problems"]
        entry = problems["adder4"]
        assert entry["error"].startswith(f"CheckpointError: {broken} is malformed")
        assert entry == {"mutants": 0, "cells": 0, "skipped_cells": 0, "debug_solved": 0,
                         "error": entry["error"]}
        assert "error" not in problems["full_adder"]

    @pytest.mark.parametrize("checkpoint, path, value, field", [
        ("debug/bc02/state.json", ["solved"], False, "solved"),
        ("debug/bc02/state.json", ["best_pass"], [2, 2], "best_pass"),
        ("debug/bc02/state.json", ["iterations"], "x", "iterations"),
        ("debug/bc02/state.json", ["x"], 1, "x"),
        ("sources/bc02/genstate.json", ["best_coverage"], [7, 0], "best_coverage"),
        ("sources/bc02/genstate.json", ["tests", 0], "x", "tests"),
        ("cells/bc02/bc03/result.json", ["first_failing"], None, "first_failing"),
    ])
    def test_a_resumed_record_is_refused_naming_its_first_wrong_field(
            self, finished_run, tmp_path, capsys, checkpoint, path, value, field):
        # each field that is not one of the record's facts is worked out again from them
        corpus, script, finished = finished_run
        run_dir = shutil.copytree(finished, tmp_path / "run")
        broken = run_dir / "problems" / "adder4" / checkpoint
        record = json.loads(broken.read_text())
        *parents, key = path
        functools.reduce(operator.getitem, parents, record)[key] = value
        broken.write_text(json.dumps(record))
        assert main(["evaluate", "--problems", str(corpus), "--out", str(run_dir),
                     "--mock-script", str(script), "--seed", "1"]) == EXIT_DATA
        problems = json.loads((run_dir / "summary.json").read_text())["problems"]
        assert problems["adder4"]["error"] == (
            f"CheckpointError: {broken} is malformed: missing or invalid {field!r} "
            f"(not what a fresh run writes with the rest of the record)")

    @pytest.mark.parametrize("checkpoint", [
        "sources/bc02/genstate.json", "cells/bc02/bc03/result.json", "debug/bc02/state.json",
    ])
    def test_every_single_node_checkpoint_edit_is_refused_or_changes_nothing(
            self, finished_run, tmp_path, checkpoint):
        # a resume reuses only a record that a fresh run could have written
        corpus, script, finished = finished_run
        run_dir = shutil.copytree(finished, tmp_path / "run")
        adder4 = next(p for p in load_corpus(corpus) if p.id == "adder4")
        config = RunConfig(provider="mock", script_dir=str(script), seed=1)
        assert_each_edit_refused_or_a_no_op(adder4, config, run_dir, checkpoint)

    def test_every_single_node_edit_of_a_pass_fraction_rejection_is_refused_or_a_no_op(
            self, stalled_run, tmp_path):
        # a debug record with an iteration whose patch did not improve
        arbiter2, config, stalled = stalled_run
        run_dir = shutil.copytree(stalled, tmp_path / "run")
        assert_each_edit_refused_or_a_no_op(arbiter2, config, run_dir, "debug/bc02/state.json")

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda rejections: [], id="deleted"),
        pytest.param(lambda rejections: rejections * 2, id="duplicated"),
        pytest.param(lambda rejections: rejections + [{**rejections[0], "iteration": 2}],
                     id="added"),
        pytest.param(lambda rejections: [{**rejections[0], "iteration": 2}], id="moved"),
    ])
    def test_a_debug_record_whose_rejections_are_not_its_historys_is_refused(
            self, stalled_run, tmp_path, capsys, edit):
        # iteration 1 did not improve the pass fraction, iteration 2 solved
        arbiter2, config, stalled = stalled_run
        run_dir = shutil.copytree(stalled, tmp_path / "run")
        out = run_dir / "problems" / "arbiter2"
        state_file = out / "debug" / "bc02" / "state.json"
        record = json.loads(state_file.read_text())
        assert [r["reason"] for r in record["rejections"]] == ["pass-fraction"]
        assert [h["accepted"] for h in record["history"]] == [False, True]
        refusal = ("is malformed: missing or invalid 'rejections' "
                   "(not what a fresh run writes with the rest of the record)")

        state_file.write_text(json.dumps({**record, "rejections": edit(record["rejections"])}))
        with pytest.raises(CheckpointError) as refused:
            matrix.evaluate_problem(arbiter2, config, None, out)
        assert str(refused.value) == f"{state_file} {refusal}"

        matrix_file = out / "matrix.json"
        document = json.loads(matrix_file.read_text())
        document["debug"]["BC02"]["rejections"] = edit(record["rejections"])
        matrix_file.write_text(json.dumps(document))
        assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {matrix_file} {refusal}\n"

    @pytest.mark.parametrize("edit, field", [
        pytest.param(lambda tests: [{**tests[0], "id": "nosuch"}, *tests[1:]], "tests",
                     id="foreign"),
        pytest.param(lambda tests: tests[1:], "first_failing", id="dropped"),
        pytest.param(lambda tests: [tests[0], *tests], "first_failing", id="duplicated"),
    ])
    def test_a_cell_record_whose_tests_are_not_its_sources_is_refused(
            self, stalled_run, tmp_path, edit, field):
        # BC03's suite is bc03-t01, bc03-t02 and bc03-t05, of which BC01 passes the first
        arbiter2, config, stalled = stalled_run
        run_dir = shutil.copytree(stalled, tmp_path / "run")
        out = run_dir / "problems" / "arbiter2"
        result_file = out / "cells" / "bc03" / "bc01" / "result.json"
        record = json.loads(result_file.read_text())
        assert [(t["id"], t["outcome"]) for t in record["tests"]] == [
            ("bc03-t01", "pass"), ("bc03-t02", "fail"), ("bc03-t05", "fail")]
        result_file.write_text(json.dumps({**record, "tests": edit(record["tests"])}))
        with pytest.raises(CheckpointError) as refused:
            matrix.evaluate_problem(arbiter2, config, None, out)
        assert str(refused.value) == (
            f"{result_file} is malformed: missing or invalid {field!r} "
            f"(not what a fresh run writes with the rest of the record)")

    def test_resume_with_another_configuration_is_refused_and_writes_nothing(
            self, finished_run, tmp_path, capsys):
        corpus, script, finished = finished_run
        run_dir = shutil.copytree(finished, tmp_path / "run")
        script2 = shutil.copytree(script, tmp_path / "script2")
        config_file = run_dir / "run_config.json"
        before = tree_listing(run_dir)
        evaluate = ["evaluate", "--problems", str(corpus), "--out", str(run_dir), "--mock-script"]
        # (arguments, the first field that differs, its value there, its value here)
        for argv, field, there, here in [
            ([str(script2), "--iters", "2", "--seed", "9", "--mismatch-k", "3"],
             "script_dir", repr(str(script)), repr(str(script2))),
            ([str(script), "--seed", "1", "--strategy", "nls", "--shots", "5"],
             "strategy", "'nlsc'", "'nls'"),
            ([str(script), "--seed", "1", "--jobs", "2"], "jobs", "1", "2"),
        ]:
            assert main(evaluate + argv) == EXIT_DATA
            assert capsys.readouterr().err == (
                f"error: {config_file} records another configuration: "
                f"{field} is {there} there, {here} for this run\n")
            assert tree_listing(run_dir) == before
        assert main(evaluate + [str(script), "--seed", "1"]) == 0
        assert tree_listing(run_dir) == before

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_second_writer_is_refused_and_writes_nothing(self, finished_run, tmp_path, capsys,
                                                           jobs):
        corpus, script, _ = finished_run
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        evaluate = ["evaluate", "--problems", str(corpus), "--out", str(run_dir),
                    "--mock-script", str(script), "--seed", "1", "--jobs", jobs]
        holder = os.open(run_dir, os.O_RDONLY)  # another evaluate writing run_dir
        try:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert main(evaluate) == EXIT_DATA
            assert capsys.readouterr().err == (
                f"error: {run_dir} is being written by another evaluate\n")
            assert tree_listing(run_dir) == {}
        finally:
            os.close(holder)
        assert main(evaluate) == 0

    @pytest.mark.parametrize("text", [
        '{"cells": 5}',
        '[]',
        '{"problem": "adder4", "kind": "analog", "cells": {}}',
        '{"problem": "adder4", "kind": "combinational",'
        ' "cells": {"BC01->BC01": {"ar": 1, "dr": [3, 2], "da": [3, 2]}}}',
        '{"problem": "adder4", "kind": "combinational",'
        ' "cells": {"BC01->BC01": {"ar": 1, "dr": [1, 0], "da": [1, 0]}}}',
        '{"problem": "adder4", "kind": "combinational", "cells": {},'
        ' "debug": {"BC01": {"best_pass": "all"}}}',
        # a debug outcome that is not an object is refused, not dropped
        '{"problem": "adder4", "kind": "combinational", "cells": {},'
        ' "debug": {"BC01": "was skipped"}}',
        '{"problem": "adder4", "kind": "combinational", "cells": {},'
        ' "debug": {"BC01": ["skipped"]}}',
        '{"problem": 5, "kind": "combinational", "cells": {}}',
        # a ratio is an int or a pair of ints, never a string or a bool; ar is 0 or 1
        '{"problem": "adder4", "kind": "combinational",'
        ' "cells": {"BC01->BC01": {"ar": 1, "dr": "1", "da": "1"}}}',
        '{"problem": "adder4", "kind": "combinational",'
        ' "cells": {"BC01->BC01": {"ar": 1, "dr": [true, true], "da": [1, 1]}}}',
        '{"problem": "adder4", "kind": "combinational",'
        ' "cells": {"BC01->BC01": {"ar": true, "dr": [1, 2], "da": [1, 2]}}}',
        '{"problem": "adder4", "kind": "combinational",'
        ' "cells": {"BC01->BC01": {"ar": [1, 1], "dr": [1, 2], "da": [1, 2]}}}',
        '{"problem": "adder4", "kind": "combinational", "cells": {},'
        ' "debug": {"BC01": {"best_pass": [true, true]}}}',
    ])
    def test_report_on_wrongly_shaped_matrix_names_the_file(self, finished_run, tmp_path,
                                                            capsys, text):
        run_dir = tmp_path / "run"
        shutil.copytree(finished_run[2], run_dir)
        broken = run_dir / "problems" / "adder4" / "matrix.json"
        broken.write_text(text)
        assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {broken} is malformed")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("group, key, change, field", [
        ("cells", "BC02->BC03", {"ar": 0, "dr": [1, 2], "da": [1, 2]}, "da"),
        ("debug", "BC02", {"solved": "maybe"}, "solved"),
        ("debug", "BC02", {"best_pass": [2, 4]}, "best_pass"),
    ])
    def test_report_refuses_a_matrix_record_its_writer_would_not_write(
            self, finished_run, tmp_path, capsys, group, key, change, field):
        run_dir = shutil.copytree(finished_run[2], tmp_path / "run")
        broken = run_dir / "problems" / "adder4" / "matrix.json"
        document = json.loads(broken.read_text())
        document[group][key].update(change)
        broken.write_text(json.dumps(document))
        assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {broken} is malformed: missing or invalid {field!r} "
            f"(not what a fresh run writes with the rest of the record)\n")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("change, field", [
        ({"strategy": 5}, "field 'strategy' is 5"),
        ({"jobs": 0}, "field 'jobs' is 0"),
        ({"extra": 1}, "unknown field 'extra'"),
        ({"seed": None}, "field 'seed' is None"),
    ])
    def test_report_on_wrongly_valued_config_names_the_file_and_field(
            self, finished_run, tmp_path, capsys, change, field):
        run_dir = shutil.copytree(finished_run[2], tmp_path / "run")
        broken = run_dir / "run_config.json"
        broken.write_text(json.dumps({**json.loads(broken.read_text()), **change}))
        assert main(["report", str(run_dir), "--out", str(tmp_path / "report")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {broken} is malformed: {field}")
        assert not (tmp_path / "report").exists()

    def test_report_takes_an_integral_float_as_an_integer(self, finished_run, tmp_path, capsys):
        run_dir = shutil.copytree(finished_run[2], tmp_path / "run")
        config_file = run_dir / "run_config.json"
        config_file.write_text(json.dumps({**json.loads(config_file.read_text()), "seed": 1.0}))
        assert main(["report", str(run_dir)]) == 0
        assert "seed=1.0 " in (run_dir / "report" / "scoreboard.txt").read_text()

    @pytest.mark.parametrize("text, problem", [
        ('{"digests": 5', "is not valid JSON"),
        ('{"digests": 5}', "is malformed"),
        ('[]', "is malformed"),
        ('{"sequence": [7]}', "is malformed"),
    ])
    def test_malformed_mock_index_names_the_file(self, finished_run, tmp_path, capsys,
                                                 text, problem):
        corpus = finished_run[0]
        script = tmp_path / "script"
        script.mkdir()
        (script / "index.json").write_text(text)
        code = main([
            "evaluate", "--problems", str(corpus), "--out", str(tmp_path / "run"),
            "--mock-script", str(script), "--seed", "1",
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {script / 'index.json'} {problem}")

    def test_dying_worker_becomes_error_entry(self, corpus_dir, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(matrix, "_evaluate_problem_task", _task_dying_on_seq_detect)
        (tmp_path / "script").mkdir()  # the parent checks that the provider can be built
        run_dir = tmp_path / "run"
        code = main([
            "evaluate", "--problems", str(corpus_dir), "--out", str(run_dir),
            "--mock-script", str(tmp_path / "script"), "--jobs", "2",
        ])
        assert code == EXIT_DATA
        summary = json.loads((run_dir / "summary.json").read_text())
        ids = {p.id for p in load_corpus(corpus_dir)}
        assert set(summary["problems"]) == ids
        assert summary["problems"]["seq_detect"]["error"].startswith("BrokenProcessPool")
        assert "seq_detect: 0 cells" in capsys.readouterr().out


# every kind of JSON file svloop reads: (the directory of finished_run it lies
# in, its path there, the command that reads it)
JSON_KINDS = {
    "problem.json": ("corpus", "problems/adder4/problem.json", "evaluate"),
    "manifest.json": ("corpus", "problems/adder4/manifest.json", "evaluate"),
    "run_config.json": ("run", "run_config.json", "report"),
    "run_config.json, resumed": ("run", "run_config.json", "evaluate"),
    "matrix.json": ("run", "problems/adder4/matrix.json", "report"),
    "genstate.json": ("run", "problems/adder4/sources/bc02/genstate.json", "evaluate"),
    "result.json": ("run", "problems/adder4/cells/bc02/bc03/result.json", "evaluate"),
    "state.json": ("run", "problems/adder4/debug/bc02/state.json", "evaluate"),
    "index.json": ("script", "index.json", "evaluate"),
}


def _json_damage(text: str, damage: str) -> str:
    """``text`` cut short (a fraction of its length, or all but its closing
    brace) or replaced by JSON of the wrong shape."""
    cuts = {"cut-1": 1, "cut-half": len(text) // 2, "cut-brace": len(text.rstrip()) - 1}
    return text[:cuts[damage]] if damage in cuts else damage


@pytest.mark.parametrize("damage", ["cut-1", "cut-half", "cut-brace", "[]", "5"])
@pytest.mark.parametrize("kind", list(JSON_KINDS))
def test_every_damaged_json_file_is_a_data_error_naming_it(finished_run, tmp_path, capsys,
                                                            kind, damage):
    where, relative, command = JSON_KINDS[kind]
    roots = dict(zip(("corpus", "script", "run"), finished_run))
    for name in {where, "run"}:  # evaluate resumes the finished run and writes into it
        roots[name] = shutil.copytree(roots[name], tmp_path / name)
    broken = roots[where] / relative
    broken.write_text(_json_damage(broken.read_text("utf-8"), damage), "utf-8")
    argv = {
        "evaluate": ["evaluate", "--problems", str(roots["corpus"]), "--out", str(roots["run"]),
                     "--mock-script", str(roots["script"]), "--seed", "1"],
        "report": ["report", str(roots["run"]), "--out", str(tmp_path / "report")],
    }[command]
    assert main(argv) == EXIT_DATA
    out, err = capsys.readouterr()
    assert str(broken) in out + err
    assert "Traceback" not in err


# every kind of text file svloop reads: (the directory of finished_run it
# lies in, a glob for it there, the commands that read it)
TEXT_KINDS = {
    "ref.sv": ("corpus", "problems/adder4/ref.sv", ["parse", "simulate", "mutate", "evaluate"]),
    "description.txt": ("corpus", "problems/adder4/description.txt", ["mutate", "evaluate"]),
    "mutant": ("corpus", "problems/adder4/bc03.sv", ["evaluate"]),
    "response": ("script", "response-001.txt", ["evaluate", "evaluate-unindexed"]),
    "stim": ("run", "problems/adder4/sources/bc02/tests/*.stim",
             ["simulate", "debug", "evaluate-resumed"]),
}
# files evaluate reads while it runs a problem: an error entry for that problem alone
ENTRY_ERRORS = {("mutant", "evaluate"): "ManifestError",
                ("stim", "evaluate-resumed"): "CheckpointError"}


@pytest.mark.parametrize("kind, command", [
    (kind, command) for kind, (_, _, commands) in TEXT_KINDS.items() for command in commands
])
def test_every_non_utf8_text_file_is_a_data_error_naming_it(finished_run, tmp_path, capsys,
                                                             kind, command):
    where, pattern, _ = TEXT_KINDS[kind]
    roots = dict(zip(("corpus", "script", "run"), finished_run))
    for name in {where, "run"}:  # evaluate resumes the finished run and writes into it
        roots[name] = shutil.copytree(roots[name], tmp_path / name)
    corpus, script, run_dir = roots["corpus"], roots["script"], roots["run"]
    tests_dir = run_dir / "problems" / "adder4" / "sources" / "bc02" / "tests"
    broken = sorted(roots[where].glob(pattern))[0]
    data = broken.read_bytes()
    broken.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
    if command == "evaluate-unindexed":
        (script / "index.json").unlink()
    if command == "evaluate-resumed":  # a cell left to redo reads its source's tests again
        (run_dir / "problems" / "adder4" / "cells" / "bc02" / "bc03" / "result.json").unlink()
    ref = corpus / "problems" / "adder4" / "ref.sv"
    evaluate = ["evaluate", "--problems", str(corpus), "--out", str(run_dir),
                "--mock-script", str(script), "--seed", "1"]
    argv = {
        "parse": ["parse", str(ref)],
        "simulate": ["simulate", str(ref), "--stim", str(sorted(tests_dir.glob("*.stim"))[0])],
        "mutate": ["mutate", "all", "--problems", str(corpus)],
        "debug": ["debug", "adder4", "--problems", str(corpus), "--target", "BC03",
                  "--tests", str(tests_dir), "--out", str(tmp_path / "debug"),
                  "--mock-script", str(script)],
        "evaluate": evaluate, "evaluate-unindexed": evaluate, "evaluate-resumed": evaluate,
    }[command]
    assert main(argv) == EXIT_DATA
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    message = f"{broken}: not UTF-8 text (byte {len(data) // 2}: invalid start byte)"
    if (kind, command) in ENTRY_ERRORS:
        problems = json.loads((run_dir / "summary.json").read_text())["problems"]
        before = json.loads((finished_run[2] / "summary.json").read_text())["problems"]
        assert problems["adder4"]["error"] == f"{ENTRY_ERRORS[kind, command]}: {message}"
        assert message in out
        assert problems["full_adder"] == before["full_adder"]
    else:
        assert err == f"error: {message}\n"


# the single-node edits of a record: a value replaced by each of these, or a key deleted
NODE_REPLACEMENTS = [None, True, 5, -1, 2.5, "x", [], {}]


def node_paths(node, path=()):
    """The path of every value below ``node``."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def single_node_edits(record):
    """Every record one edit away from ``record``: a value replaced, a key or
    list element deleted, or a list element duplicated in place."""
    for *parents, key in node_paths(record):
        for replacement in [*NODE_REPLACEMENTS, "delete", "duplicate"]:
            edited = copy.deepcopy(record)
            parent = functools.reduce(operator.getitem, parents, edited)
            if replacement == "delete":
                del parent[key]
            elif replacement != "duplicate":
                parent[key] = copy.deepcopy(replacement)
            elif isinstance(parent, list):
                parent.insert(key, copy.deepcopy(parent[key]))
            else:
                continue
            yield edited


def assert_each_edit_refused_or_a_no_op(problem, config, run_dir, checkpoint):
    """Make each single-node edit of ``problem``'s ``checkpoint`` in the
    finished run directory ``run_dir`` and resume: each edit is refused
    naming the file, or puts a value back in its own place and changes no
    other byte of the run directory, nor its report."""
    out = run_dir / "problems" / problem.id
    edited = out / checkpoint
    original = edited.read_text()
    record = json.loads(original)
    before, report = tree_listing(run_dir), build_report(run_dir)
    refused, accepted = 0, []
    for changed in single_node_edits(record):
        text = json.dumps(changed, indent=2, sort_keys=True) + "\n"
        edited.write_text(text)
        try:
            matrix.evaluate_problem(problem, config, None, out)
        except CheckpointError as error:
            assert str(error).startswith(f"{edited} is malformed: "), error
            refused += 1
            continue
        edit = edited.relative_to(run_dir).as_posix()
        assert tree_listing(run_dir) == {**before, edit: text.encode()}, changed
        assert build_report(run_dir) == report, changed
        accepted.append(changed)
    edited.write_text(original)
    assert refused > 100
    assert [json.dumps(c, sort_keys=True) for c in accepted] == (
        [json.dumps(record, sort_keys=True)] * len(accepted))


def _task_dying_on_seq_detect(problem, config, out_dir):
    # module level, so a worker process can unpickle it
    if problem.id == "seq_detect":
        os._exit(1)
    return {"mutants": 0, "cells": 0, "skipped_cells": 0, "debug_solved": 0}


class TestUsage:
    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["mutate", "arbiter2"])
        assert exc.value.code == EXIT_USAGE

    def test_init_corpus(self, tmp_path, capsys):
        dest = tmp_path / "corpus"
        assert main(["init-corpus", str(dest)]) == 0
        assert (dest / "problems" / "full_adder" / "ref.sv").exists()
        assert (dest / "exemplars.json").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_jobs_is_usage_error(self, corpus_dir, tmp_path, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--problems", str(corpus_dir), "--out", str(tmp_path / "run"),
                  "--mock-script", str(tmp_path / "script"), "--jobs", value])
        assert exc.value.code == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_mismatch_k_is_usage_error(self, corpus_dir, tmp_path, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--problems", str(corpus_dir), "--out", str(tmp_path / "run"),
                  "--mock-script", str(tmp_path / "script"), "--mismatch-k", value])
        assert exc.value.code == EXIT_USAGE
        assert "--mismatch-k" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_smallest_accepted_integer_options_give_a_valid_report(self, finished_run, capsys):
        # the run_config.json field each integer option sets
        recorded = {"--shots": "shots", "--seed": "seed", "--iters": "iteration_cap",
                    "--mismatch-k": "mismatch_limit", "--jobs": "jobs"}
        assert set(recorded.values()) == {f.name for f in fields(RunConfig) if f.type == "int"}
        report = build_report(finished_run[2])
        parser = make_parser()
        for flag, name in recorded.items():
            for value in (-2 ** 63, -1, 0, 1):  # ascending: the first accepted is the smallest
                argv = ["evaluate", "--problems", "p", "--out", "o", "--mock-script", "s",
                        flag, str(value)]
                try:
                    args = parser.parse_args(argv)
                except SystemExit:
                    continue
                config = _run_config(args, jobs=args.jobs)
                assert getattr(config, name) == value
                REPORT_SCHEMA.validate({**report, "config": config.as_dict()})
                break
            else:
                pytest.fail(f"{flag} accepts none of the candidate values")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_iters_is_usage_error(self, cli_corpus, tmp_path, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-tests", "full_adder", "--problems", cli_corpus, "--source", "BC01",
                  "--out", str(tmp_path / "x"), "--mock-script", str(tmp_path / "script"),
                  "--iters", value])
        assert exc.value.code == EXIT_USAGE
        assert "--iters" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


# the smallest argv each command accepts
VALID_ARGV = {
    "parse": ["f.sv"],
    "simulate": ["f.sv", "--stim", "s.stim"],
    "mutate": ["all", "--problems", "p"],
    "gen-tests": ["adder4", "--problems", "p", "--source", "BC01", "--out", "o"],
    "debug": ["adder4", "--problems", "p", "--target", "BC01", "--tests", "t", "--out", "o"],
    "evaluate": ["--problems", "p", "--out", "o"],
    "report": ["run"],
    "init-corpus": ["dest"],
}
PROVIDER_COMMANDS = ("gen-tests", "debug", "evaluate")


def _argv_cases() -> list[list[str]]:
    cases = [[], ["--help"], ["-h"], ["--version"], ["nope"], ["simulat"], ["--bogus"],
             ["-"], ["--"], ["--", "simulate", "f.sv", "--stim", "s.stim"],
             ["--version", "simulate"]]
    for command, valid in VALID_ARGV.items():
        cases += [[command], [command, "--help"], [command, "--bogus"], [command, *valid],
                  [command, *valid, "extra"], [command, *valid, "--bogus"],
                  [command, "--version"], [command, *valid, "--version"]]
        if command in PROVIDER_COMMANDS:
            cases += [[command, *valid, "--iters", "0"], [command, *valid, "--iters", "x"],
                      [command, *valid, "--shots", "3"],
                      [command, *valid, "--strategy", "nls", "--shots", "5", "--seed", "-4",
                       "--mismatch-k", "3", "--mock-script", "s"]]
    return cases + [["evaluate", *VALID_ARGV["evaluate"], "--jobs", "0"]]


def _parse_outcome(parser, argv, capsys):
    """(exit code, stdout, stderr, parsed namespace) of one ``parse_args``."""
    code, namespace = None, None
    try:
        namespace = vars(parser.parse_args(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err, namespace


class TestParserPerCommand:
    @pytest.mark.parametrize("argv", _argv_cases(), ids=" ".join)
    def test_own_parser_parses_as_the_full_one(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        command = argv[0] if argv and argv[0] in _COMMANDS else None  # as main picks it
        full = _parse_outcome(make_parser(), argv, capsys)
        assert _parse_outcome(make_parser(command), argv, capsys) == full

    @pytest.mark.parametrize("argv, registered", [
        (["simulate", "REF", "--stim", "STIM"], 1), (["parse", "REF"], 1), (["--help"], 8),
        (["nope"], 8), (["--", "simulate"], 8),
    ])
    def test_main_registers_only_the_command_it_runs(self, cli_corpus, tmp_path, monkeypatch,
                                                     capsys, argv, registered):
        ref = Path(cli_corpus) / "problems" / "full_adder" / "ref.sv"
        stim = tmp_path / "t.stim"
        stim.write_text("inputs: a[1], b[1], c[1]\n0 0 0\n1 1 1\n")
        argv = [{"REF": str(ref), "STIM": str(stim)}.get(arg, arg) for arg in argv]
        names = []
        real = argparse._SubParsersAction.add_parser

        def add_parser(self, name, **kwargs):
            names.append(name)
            return real(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", add_parser)
        try:
            assert main(argv) == 0
        except SystemExit:
            pass
        assert len(names) == registered
        assert registered == len(_COMMANDS) or names == argv[:1]


# Modules a command must not load: each command imports only what it runs.
HEAVY = {"jsonschema", "concurrent.futures", "svloop.gateway", "svloop.loops",
         "svloop.matrix", "svloop.report", "svloop.mutate", "svloop.manifest"}


def modules_loaded_by(argv, cwd) -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``svloop.cli.main(argv)``."""
    script = ("import json, sys\n"
              "from svloop.cli import main\n"
              "try:\n"
              f"    code = main({argv!r})\n"
              "except SystemExit as exc:\n"   # --version exits through argparse
              "    code = exc.code\n"
              "print(json.dumps([code, sorted(sys.modules)]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(svloop.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(modules)


# Every svloop module each command loads in a fresh interpreter, so that a
# new eager import fails here. The package __init__ files load nothing.
_CORE = {"svloop", "svloop.cli", "svloop.errors"}
_FRONTEND = {"svloop.frontend", "svloop.frontend.ast", "svloop.frontend.elaborate",
             "svloop.frontend.lexer", "svloop.frontend.parser", "svloop.frontend.signature"}
_SIM = {"svloop.sim", "svloop.sim.engine", "svloop.sim.lower", "svloop.sim.stimulus"}
_MANIFEST = _CORE | _FRONTEND | _SIM | {"svloop.gateway", "svloop.gateway.config",
                                        "svloop.manifest"}
_REPORT = {"svloop.metrics", "svloop.report", "svloop.schema", "svloop.sim",
           "svloop.sim.coverage"}
_LOOPS = _MANIFEST | _REPORT | {"svloop.gateway.extract", "svloop.gateway.prompts",
                                "svloop.gateway.providers", "svloop.gateway.templates",
                                "svloop.loops", "svloop.verdict"}
LOADED_BY = {
    "--version": _CORE,
    "init-corpus": _CORE | {"svloop.data"},
    "parse": _CORE | _FRONTEND,
    "simulate": _CORE | _FRONTEND | _SIM | {"svloop.sim.coverage", "svloop.sim.vcd"},
    "mutate": _MANIFEST | {"svloop.frontend.printer", "svloop.mutate"},
    "gen-tests": _LOOPS,
    "debug": _LOOPS,
    "evaluate": _LOOPS | {"svloop.matrix", "svloop.sim.vcd"},
    "report": _CORE | _REPORT,
}


class TestImportBudget:
    @pytest.mark.parametrize("command", list(LOADED_BY))
    def test_each_command_loads_exactly_its_own_modules(self, finished_run, tmp_path, command):
        corpus = shutil.copytree(finished_run[0], tmp_path / "corpus")
        script, run_dir = finished_run[1], shutil.copytree(finished_run[2], tmp_path / "run")
        tests = run_dir / "problems" / "adder4" / "sources" / "bc02" / "tests"
        ref = str(corpus / "problems" / "adder4" / "ref.sv")
        provider = ["--problems", str(corpus), "--mock-script", str(script)]
        argv = {
            "--version": ["--version"],
            "init-corpus": ["init-corpus", "desk"],
            "parse": ["parse", ref],
            "simulate": ["simulate", ref, "--stim", str(sorted(tests.glob("*.stim"))[0]),
                         "--vcd", "t.vcd", "--coverage"],
            "mutate": ["mutate", "all", "--problems", str(corpus)],
            "gen-tests": ["gen-tests", "adder4", "--source", "BC02", "--out", "gen", *provider],
            "debug": ["debug", "adder4", "--target", "BC03", "--tests", str(tests),
                      "--out", "debug", *provider],
            "evaluate": ["evaluate", "--out", "run2", *provider],
            "report": ["report", str(run_dir)],
        }[command]
        loaded = {m for m in modules_loaded_by(argv, tmp_path) if m.split(".")[0] == "svloop"}
        assert loaded == LOADED_BY[command]

    def test_packages_export_nothing(self):
        import svloop.frontend.elaborate as elaborate_module

        assert isinstance(elaborate_module, types.ModuleType)
        for package in ("svloop.frontend", "svloop.gateway", "svloop.sim"):
            names = vars(importlib.import_module(package))
            assert not [name for name, value in names.items()
                        if not name.startswith("_") and not isinstance(value, types.ModuleType)]

    def test_init_corpus_loads_no_toolkit_layer(self, tmp_path):
        loaded = modules_loaded_by(["init-corpus", "desk"], tmp_path)
        assert (tmp_path / "desk" / "problems").is_dir()
        assert not loaded & (HEAVY | {"svloop.frontend", "svloop.sim"})

    def test_simulate_loads_only_frontend_and_sim(self, tmp_path):
        ref = default_corpus_root() / "problems" / "full_adder" / "ref.sv"
        (tmp_path / "t.stim").write_text("inputs: a[1], b[1], c[1]\n0 0 0\n1 1 1\n")
        loaded = modules_loaded_by(
            ["simulate", str(ref), "--stim", "t.stim", "--vcd", "t.vcd", "--coverage"], tmp_path)
        assert {"svloop.frontend", "svloop.sim"} <= loaded
        assert not loaded & HEAVY

    def test_mutate_does_not_load_report(self, fresh_corpus):
        # mutate loads manifest, whose RunConfig loads report only when one is built
        loaded = modules_loaded_by(["mutate", "full_adder", "--problems", str(fresh_corpus)],
                                   fresh_corpus)
        assert "svloop.manifest" in loaded
        assert not loaded & {"jsonschema", "concurrent.futures", "svloop.loops",
                             "svloop.matrix", "svloop.report"}

    def test_report_does_not_load_jsonschema(self, corpus_dir, tmp_path, capsys):
        problem = next(p for p in load_corpus(corpus_dir) if p.id == "full_adder")
        script = tmp_path / "script"
        record_mock_script([problem], script, tmp_path / "scratch")
        sub = tmp_path / "sub"
        shutil.copytree(problem.root, sub / "problems" / problem.id)
        shutil.copy(corpus_dir / "exemplars.json", sub / "exemplars.json")
        assert main(["evaluate", "--problems", str(sub), "--out", str(tmp_path / "run"),
                     "--mock-script", str(script)]) == 0
        loaded = modules_loaded_by(["report", "run"], tmp_path)
        assert not loaded & (HEAVY - {"svloop.report"})
        assert (tmp_path / "run" / "report" / "report.json").exists()
