"""Smoke-size self-test of the benchmark.

Checks that every workload emits exactly the metrics BENCHMARK.json
names, with their units, in both trace modes; that outputs check clean;
that the exact counts of two traced runs agree; that a byte flipped in a
cell VCD is caught as a failed op by the AR/DR/DA recompute and makes
error_rate nonzero; and that the benchmark refuses to run without the
program's sources.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
SMOKE = ["--seed", "1", "--seconds", "1"]
EXACT_UNITS = {"count", "bytes", "ratio"}


def bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(bench(ROOT, "--workload", workload, "--trace", str(trace), *SMOKE))
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace {trace}: result has exactly the contract keys")
            expect(units == {m["name"]: m["unit"] for m in SPEC[kind]},
                   f"{workload} trace {trace}: every {kind} metric, with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace {trace}: outputs check clean")
            if trace:
                again = result_of(bench(ROOT, "--workload", workload, "--trace", "1", *SMOKE))
                exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in EXACT_UNITS]
                differ = [n for n in exact
                          if result["metrics"][n]["value"] != again["metrics"][n]["value"]]
                expect(not differ, f"{workload}: counts repeat between traced runs {differ or ''}")

    proc = bench(ROOT, "--workload", "evaluate-desk", "--trace", "0", "--corrupt", *SMOKE)
    corrupted = result_of(proc)
    expect(not corrupted["correct"] and corrupted["failed"] >= 1,
           "a flipped byte in a cell VCD is a failed op")
    # the digest checks catch it too; this shows the AR/DR/DA recompute does
    expect(any(phrase in line for line in proc.stderr.splitlines() if line.startswith("FAILED op 0")
               for phrase in ("stored verdict disagrees with the traces", "recomputed")),
           "the naive AR/DR/DA recompute flags the flipped cell VCD")
    error_rate = [float(line.split()[1]) for line in proc.stdout.splitlines()
                  if line.split()[:1] == ["error_rate"]]
    expect(error_rate and error_rate[0] > 0, f"error_rate is nonzero after the flip {error_rate}")

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, "--workload", "sim-long", "--trace", "0", *SMOKE)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "without the program's sources it exits non-zero and prints no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
