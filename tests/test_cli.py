import json
import os
import shutil
from pathlib import Path

import pytest

from support import record_mock_script, valid_arbiter_stimulus
from svloop.cli import EXIT_DATA, EXIT_PROVIDER, EXIT_USAGE, main
from svloop import matrix
from svloop.manifest import load_corpus


@pytest.fixture(scope="module")
def cli_corpus(corpus_dir):
    return str(corpus_dir)


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

    def test_stimulus_mismatch_is_data_error(self, cli_corpus, tmp_path, capsys):
        ref = Path(cli_corpus) / "problems" / "full_adder" / "ref.sv"
        stim = tmp_path / "t.stim"
        stim.write_text("inputs: b[1], a[1], c[1]\n0 0 0\n")
        assert main(["simulate", str(ref), "--stim", str(stim)]) == EXIT_DATA


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

    def test_mock_without_script_is_provider_error(self, cli_corpus, tmp_path, capsys):
        code = main([
            "gen-tests", "arbiter2", "--problems", cli_corpus, "--source", "BC01",
            "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_PROVIDER


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

    def test_dying_worker_becomes_error_entry(self, corpus_dir, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(matrix, "_evaluate_problem_task", _task_dying_on_seq_detect)
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


def _task_dying_on_seq_detect(problem_dir, config_dict, out_dir):
    # module level, so a worker process can unpickle it
    if Path(problem_dir).name == "seq_detect":
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
