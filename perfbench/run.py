"""Offline benchmark of svloop: one closed-loop client in this process,
one workload per run.

    python3 perfbench/run.py --workload evaluate-desk --seed 1 --seconds 12 --trace 0

With ``--trace 0`` it sets the workload up several times, runs ops
between the set-ups for ``--seconds`` in all, checks every op's output,
and reports the end-to-end metrics in user-CPU seconds (see
``cputime.py``). With ``--trace 1`` it sets up once, runs one untraced
and one traced op on the same inputs, and reports the per-layer metrics. The last line of stdout is one JSON object; the lines
before it name each figure with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from cputime import Cost, Timer

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 1
CLI_PROBES = 5            # at least this many start-up probes per run


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["corpus-build", "evaluate-desk", "sim-long"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test only: flip one byte of a cell VCD in the first op")
    return parser.parse_args(argv)


def cli_start_probe(env) -> Cost:
    """Cost of `python -m svloop.cli --version` in a fresh interpreter."""
    with Timer() as timer:
        proc = subprocess.run([sys.executable, "-m", "svloop.cli", "--version"],
                              env=env, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0 or not proc.stdout.startswith("svloop "):
        raise RuntimeError(f"--version exited {proc.returncode}: {proc.stderr.strip()}")
    return timer.cost


class Run:
    def __init__(self, args, work: Path, env: dict):
        from workloads import CORPUS_SEED, WORKLOADS

        self.args, self.work, self.env = args, work, env
        self.workload = WORKLOADS[args.workload](args.seed, env)
        self.pinned = json.loads((BENCH / "pinned.json").read_text("utf-8"))
        self.corpus_pin = self.pinned["outputs"][f"corpus-build mutate seed {CORPUS_SEED}"]
        self.attempted = 0
        self.ops = self.failed_ops = 0               # for error_rate
        self.digests: dict[str, str] = {}             # inputs -> first op's output digest
        self.failures: list[tuple[str, str]] = []   # (checked unit, error)
        self.extra: dict[str, tuple] = {}            # printed, not part of the result
        self.op_lines: list[str] = []

    def _fail(self, unit: str, errors) -> None:
        self.failures += [(unit, error) for error in errors]

    def _setup(self, index: int) -> tuple[Cost, dict]:
        path = self.work / f"setup{index}"
        path.mkdir()
        os.chdir(path)
        with Timer() as timer:
            info = self.workload.setup()
        return timer.cost, info

    def _op(self, index: int, tracer=None):
        """One op with its checks; an op that raises counts as failed."""
        self.attempted += 1
        self.ops += 1
        unit = f"op {index}" + (" traced" if tracer is not None else "")
        try:
            result = self.workload.op(index, tracer, corrupt=self.args.corrupt and index == 0)
        except Exception:
            result, errors = None, [traceback.format_exc().strip()]
        else:
            errors = list(result.errors)
            first = self.digests.setdefault(result.inputs, result.digest)
            if result.digest != first:
                errors.append(f"{result.inputs}: output differs from an earlier op's")
            pinned = self.pinned["outputs"].get(result.inputs)
            if pinned is not None and result.digest != pinned:
                errors.append(f"{result.inputs}: output digest {result.digest} != pinned {pinned}")
        if errors:
            self.failed_ops += 1
            self._fail(unit, errors)
        return result

    def _probe(self, probes: list) -> None:
        self.attempted += 1
        try:
            probes.append(cli_start_probe(self.env))
        except (RuntimeError, subprocess.SubprocessError) as exc:
            self._fail(f"cli probe {self.attempted}", [str(exc)])

    def _check_setup(self, infos) -> None:
        self.attempted += 1
        if "corpus" in infos[0] and infos[0]["corpus"] != self.corpus_pin:
            self._fail("setup", [f"seed-1 corpus digest {infos[0]['corpus']} != pinned"])
        if any(info["inputs"] != infos[0]["inputs"] for info in infos):
            self._fail("setup", ["set-ups produced different inputs"])

    def measure(self) -> dict:
        """Set up the workload's ``setups`` times and spread the ops over them:
        after set-up ``k`` ops run in its directory until the time spent in
        ops reaches ``k + 1`` shares of ``--seconds``, each op followed by
        one start-up probe. Interleaving spreads every kind of sample over
        the whole run, since on a shared host the CPU's speed drifts over
        tens of seconds."""
        setups, results, probes = [], [], []
        count = self.workload.setups
        share = self.args.seconds / count
        in_ops, index = 0.0, 0
        for k in range(count):
            setups.append(self._setup(k))
            last = k == count - 1
            while in_ops < (k + 1) * share or (last and index < self.workload.min_ops):
                start = time.perf_counter()
                result = self._op(index)
                in_ops += time.perf_counter() - start
                index += 1
                if result is not None:
                    results.append(result)
                self._probe(probes)
        infos = [info for _, info in setups]
        self._check_setup(infos)
        for _ in range(CLI_PROBES - index):
            self._probe(probes)
        if not results or not probes:
            return {}

        def median(value):
            """Median over the distinct op inputs of each one's median of
            ``value(result)``, so that a run's figure does not depend on how
            often each input ran."""
            by_inputs = defaultdict(list)
            for r in results:
                by_inputs[r.inputs].append(value(r))
            return statistics.median(statistics.median(v) for v in by_inputs.values())

        metrics = {
            "setup_s": (statistics.median(cost.user for cost, _ in setups), "s"),
            "op_s": (median(lambda r: r.times["op_s"].user), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        self.extra = {key: (median(lambda r: r.times[key].user), "s")
                      for key in results[0].times if key not in metrics}
        if "corpus_build_s" not in self.extra:   # the builds inside set-up
            self.extra["corpus_build_s"] = (
                statistics.median(info["corpus_build_s"].user for info in infos), "s")
        if results[0].cycles:
            self.extra["sim_cycles_per_s"] = (median(lambda r: r.cycles / r.times["op_s"].user), "1/s")
        # printed only: its run-to-run spread on a shared host crowds the bound
        self.extra["cli_start_s"] = (statistics.median(c.user for c in probes), "s")
        self.extra["op_wall_s"] = (median(lambda r: r.times["op_s"].wall), "s")
        self.extra["op_kernel_s"] = (median(lambda r: r.times["op_s"].kernel), "s")
        self.extra["setup_wall_s"] = (statistics.median(cost.wall for cost, _ in setups), "s")
        self.extra["ops"] = (len(results), "count")
        self.op_lines = [f"{r.inputs}: " + " ".join(
            f"{k}={v.wall:.4g}/{v.user:.4g}/{v.kernel:.3g}" for k, v in sorted(r.times.items()))
            for r in results]
        return metrics

    def trace(self) -> dict:
        from tracing import Tracer, import_breakdown

        _, info = self._setup(0)
        self._check_setup([info])
        breakdown = import_breakdown(self.env, self.work)
        plain = self._op(0)
        tracer = Tracer()
        traced = self._op(0, tracer)    # same inputs: _op checks the outputs are equal
        if plain is None or traced is None:
            return {}
        missing = tracer.missing_layers(self.workload.name)
        if missing:
            self._fail("op 0 traced", [f"no calls recorded for {', '.join(missing)}"])
        tracer.write_spans(self.work.parent / f"spans-{self.workload.name}-{self.args.seed}.jsonl")
        metrics = tracer.layer_metrics()
        metrics.update(breakdown)
        metrics["trace.overhead_s"] = traced.times["op_s"].wall - plain.times["op_s"].wall
        self.extra = {"spans": (len(tracer.spans), "count")}
        units = _per_layer_units()
        return {name: (value, units[name]) for name, value in metrics.items()}


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "svloop" / "cli.py").is_file():
        print(f"perfbench: no svloop sources under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args, work, env)
        metrics = run.trace() if args.trace else run.measure()
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    failed = len({unit for unit, _ in run.failures})
    for unit, error in run.failures:
        print(f"FAILED {unit}: {error}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in sorted(metrics.items()) + sorted(run.extra.items()):
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'error_rate':<44} {run.failed_ops / max(run.ops, 1):>16.6g} ratio")
    for index, line in enumerate(run.op_lines):
        print(f"  op {index} {line}")
    for inputs, digest in sorted(run.digests.items()):
        print(f"  output digest of {inputs}: {digest}")
    print(json.dumps({
        "correct": not run.failures and bool(metrics),
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
