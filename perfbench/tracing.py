"""Outside-in tracing of svloop from the benchmark's own files.

Every public function of every loaded ``svloop.*`` module is wrapped by
identity: each module attribute bound to the same function object gets
the same wrapper, which covers names imported with ``from ... import``
(``matrix.run``, ``cli.run_sim``) and lazy imports that read the
defining module at call time (``collect_coverage``). The span name is
``<layer>.<function>``, the layer being the subpackage or module right
under ``svloop``. ``ScriptedMockProvider.complete`` is wrapped on the
class as ``gateway.provider``. ``pathlib.Path.{read,write}_{text,bytes}``
become ``<layer>.io`` spans charged to the innermost enclosing layer.

Spans stay in memory; ``write_spans`` saves them at exit. A span's self
time is its duration minus the durations of the spans directly inside it.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

from svloop.gateway.providers import ScriptedMockProvider

# Span names that must record calls on each workload; a refactor that
# moves an import must fail the run, not silently zero a layer.
EXPECTED_CALLS = {
    "corpus-build": [
        "frontend.tokenize", "frontend.parse_design", "frontend.elaborate",
        "frontend.ast_to_source", "sim.run", "mutate.find_witness",
        "manifest.load_corpus", "manifest.write_mutation_corpus", "cli.main",
    ],
    "evaluate-desk": [
        "frontend.tokenize", "frontend.parse_design", "frontend.elaborate",
        "frontend.elaborate_source", "sim.run", "sim.collect_coverage",
        "sim.export_vcd", "sim.parse_stimulus", "gateway.build_testgen_prompt",
        "gateway.build_debug_prompt", "gateway.parse_unit_test", "gateway.parse_patch",
        "gateway.provider", "loops.generate_tests", "loops.debug", "verdict.compare",
        "metrics.divergence_rate", "matrix.evaluate_problem", "matrix.io",
        "manifest.load_corpus", "report.build_report", "report.validate_report", "cli.main",
    ],
    "sim-long": [
        "frontend.tokenize", "frontend.parse_design", "frontend.elaborate",
        "frontend.elaborate_source", "sim.run", "sim.collect_coverage",
        "sim.export_vcd", "sim.parse_stimulus", "cli.main",
    ],
}

_IO_METHODS = {"read_text": "read", "read_bytes": "read",
               "write_text": "write", "write_bytes": "write"}


def _layer(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, parent index, start, end]
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()     # work counters, e.g. sim.run.cycles
        self.distinct: defaultdict = defaultdict(set)
        self._stack: list[int] = []
        self._child_s: list[float] = []
        self._hooks = {
            "sim.run": self._on_sim_run,
            "sim.export_vcd": self._on_export_vcd,
            "frontend.elaborate_source": self._on_elaborate_source,
            "mutate.find_witness": self._on_find_witness,
            "loops.generate_tests": self._on_generate_tests,
            "loops.debug": self._on_debug,
        }

    # --- span bookkeeping -----------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else None, 0.0, 0.0])
        self._stack.append(index)
        self._child_s.append(0.0)
        self.spans[index][2] = time.perf_counter()
        return index

    def _close(self, index: int, ok: bool) -> float:
        end = time.perf_counter()
        span = self.spans[index]
        span[3] = end
        self._stack.pop()
        child = self._child_s.pop()
        elapsed = end - span[2]
        if self._child_s:
            self._child_s[-1] += elapsed
        name = span[0]
        self.calls[name] += 1
        self.total_s[name] += elapsed
        self.self_s[name] += elapsed - child
        if not ok:
            self.raised[name] += 1
        return elapsed

    def _wrap(self, name, fn):
        tracer = self
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            index = tracer._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = tracer._close(index, ok)
            if hook is not None:
                hook(args, kwargs, result, elapsed)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _wrap_io(self, method, kind):
        tracer = self

        def traced(path, *args, **kwargs):
            layer = tracer.spans[tracer._stack[-1]][0].split(".", 1)[0] if tracer._stack else "bench"
            index = tracer._open(f"{layer}.io")
            ok = False
            try:
                result = method(path, *args, **kwargs)
                ok = True
            finally:
                tracer._close(index, ok)
            if kind == "read":
                tracer.counts[f"{layer}.io.files_read"] += 1
                tracer.counts[f"{layer}.io.bytes_read"] += _size(result)
            else:
                tracer.counts[f"{layer}.io.files_written"] += 1
                tracer.counts[f"{layer}.io.bytes_written"] += _size(args[0])
            return result

        return traced

    # --- work counters ------------------------------------------------------------

    def _on_sim_run(self, args, kwargs, result, elapsed):
        design, test = args[0], args[1]
        self.counts["sim.run.cycles"] += test.cycles
        self.distinct["sim.run"].add((design.source.text, test.columns, test.rows))

    def _on_export_vcd(self, args, kwargs, result, elapsed):
        self.counts["sim.export_vcd.bytes"] += len(result)

    def _on_elaborate_source(self, args, kwargs, result, elapsed):
        source = args[0]
        self.distinct["frontend.elaborate_source"].add(getattr(source, "text", source))

    def _on_find_witness(self, args, kwargs, result, elapsed):
        if result is None:
            self.counts["mutate.find_witness.equivalent"] += 1
            self.counts["mutate.find_witness.equivalent_s"] += elapsed

    def _on_generate_tests(self, args, kwargs, state, elapsed):
        self.counts["loops.testgen.accepted"] += len(state.tests)
        self.counts["loops.testgen.responses"] += state.provider_calls

    def _on_debug(self, args, kwargs, state, elapsed):
        self.counts["loops.debug.accepted"] += sum(1 for h in state.history if h.accepted)
        self.counts["loops.debug.responses"] += state.provider_calls

    # --- installation -------------------------------------------------------------

    @contextmanager
    def active(self):
        """Install every wrapper, run the body, then restore the originals."""
        restore = []
        wrappers = {}
        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == "svloop" or module_name.startswith("svloop.")):
                continue
            for attr, obj in list(vars(module).items()):
                if (not isinstance(obj, types.FunctionType) or attr.startswith("_")
                        or obj.__name__.startswith("_")
                        or not obj.__module__.startswith("svloop")):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(f"{_layer(obj.__module__)}.{obj.__name__}", obj)
                restore.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        complete = ScriptedMockProvider.complete
        restore.append((ScriptedMockProvider, "complete", complete))
        ScriptedMockProvider.complete = self._wrap("gateway.provider", complete)
        for method_name, kind in _IO_METHODS.items():
            method = getattr(pathlib.Path, method_name)
            restore.append((pathlib.Path, method_name, method))
            setattr(pathlib.Path, method_name, self._wrap_io(method, kind))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # --- results ------------------------------------------------------------------

    def missing_layers(self, workload: str) -> list[str]:
        return [name for name in EXPECTED_CALLS[workload] if self.calls[name] == 0]

    def layer_metrics(self) -> dict[str, float]:
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, float] = {}
        for fn in ("tokenize", "parse_design", "elaborate", "ast_to_source"):
            m[f"frontend.{fn}.calls"] = calls[f"frontend.{fn}"]
            m[f"frontend.{fn}.self_s"] = self_s[f"frontend.{fn}"]
        m["frontend.elaborate_source.calls"] = calls["frontend.elaborate_source"]
        m["frontend.elaborate_source.distinct_ratio"] = ratio(
            len(self.distinct["frontend.elaborate_source"]), calls["frontend.elaborate_source"])

        m["sim.run.calls"] = calls["sim.run"]
        m["sim.run.self_s"] = self_s["sim.run"]
        m["sim.run.cycles"] = counts["sim.run.cycles"]
        m["sim.run.cycles_per_s"] = ratio(counts["sim.run.cycles"], self_s["sim.run"])
        m["sim.run.distinct_ratio"] = ratio(len(self.distinct["sim.run"]), calls["sim.run"])
        for fn in ("collect_coverage", "export_vcd", "parse_stimulus"):
            m[f"sim.{fn}.calls"] = calls[f"sim.{fn}"]
            m[f"sim.{fn}.self_s"] = self_s[f"sim.{fn}"]
        m["sim.export_vcd.bytes"] = counts["sim.export_vcd.bytes"]

        m["mutate.find_witness.calls"] = calls["mutate.find_witness"]
        m["mutate.find_witness.self_s"] = self_s["mutate.find_witness"]
        m["mutate.find_witness.equivalent"] = counts["mutate.find_witness.equivalent"]
        m["mutate.find_witness.equivalent_s"] = counts["mutate.find_witness.equivalent_s"]

        prompt = ("gateway.build_testgen_prompt", "gateway.build_debug_prompt")
        extract = ("gateway.parse_unit_test", "gateway.parse_patch")
        m["gateway.prompt.calls"] = sum(calls[n] for n in prompt)
        m["gateway.prompt.self_s"] = sum(self_s[n] for n in prompt)
        m["gateway.extract.calls"] = sum(calls[n] for n in extract)
        m["gateway.extract.self_s"] = sum(self_s[n] for n in extract)
        m["gateway.extract.rejected"] = sum(self.raised[n] for n in extract)
        m["gateway.provider.calls"] = calls["gateway.provider"]
        m["gateway.provider.wait_s"] = self.total_s["gateway.provider"]

        for fn in ("generate_tests", "debug"):
            m[f"loops.{fn}.calls"] = calls[f"loops.{fn}"]
            m[f"loops.{fn}.self_s"] = self_s[f"loops.{fn}"]
        m["loops.testgen.accept_ratio"] = ratio(
            counts["loops.testgen.accepted"], counts["loops.testgen.responses"])
        m["loops.debug.accept_ratio"] = ratio(
            counts["loops.debug.accepted"], counts["loops.debug.responses"])

        m["verdict.compare.calls"] = calls["verdict.compare"]
        m["verdict.compare.self_s"] = self_s["verdict.compare"]
        m["metrics.divergence_rate.calls"] = calls["metrics.divergence_rate"]
        m["metrics.divergence_rate.self_s"] = self_s["metrics.divergence_rate"]

        m["matrix.evaluate_problem.self_s"] = self_s["matrix.evaluate_problem"]
        m["matrix.io.files_written"] = counts["matrix.io.files_written"]
        m["matrix.io.bytes_written"] = counts["matrix.io.bytes_written"]
        m["matrix.io.files_read"] = counts["matrix.io.files_read"]
        m["matrix.io.s"] = self.total_s["matrix.io"]

        m["manifest.load_corpus.self_s"] = self_s["manifest.load_corpus"]
        m["manifest.write_mutation_corpus.self_s"] = self_s["manifest.write_mutation_corpus"]
        m["manifest.io.s"] = self.total_s["manifest.io"]

        m["report.build_report.self_s"] = self_s["report.build_report"]
        m["report.validate_report.self_s"] = self_s["report.validate_report"]

        # cli.main dispatches through a dict of command functions, so its
        # self time already holds the commands' own work (table printing)
        m["cli.main.self_s"] = sum(v for k, v in self_s.items()
                                   if k.startswith("cli.") and k != "cli.io")
        return m

    def write_spans(self, path: pathlib.Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, parent, start, end in self.spans:
                out.write(json.dumps([name, parent, start, end]) + "\n")


def _size(data) -> int:
    return len(data.encode("utf-8")) if isinstance(data, str) else len(data)


# --- interpreter start-up ----------------------------------------------------------

IMPORT_BUCKETS = ("jsonschema", "concurrent")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Split ``-X importtime`` output for ``-m svloop.cli`` into the CLI's
    import time and the top-level dependencies that svloop pulls in."""
    pending: defaultdict = defaultdict(list)   # indent -> [(indent, name, seconds, children)]
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw_name = line[len("import time:"):].split("|")
        name = raw_name.rstrip()
        indent = (len(name) - len(name.lstrip())) // 2
        entry = (indent, name.strip(), int(cumulative) / 1e6, pending.pop(indent + 1, []))
        pending[indent].append(entry)
    top = pending[0]
    site = next(i for i, e in enumerate(top) if e[1] == "site")
    after_site = top[site + 1:]

    buckets = Counter()

    def visit(entry):
        _, name, cumulative, children = entry
        package = name.split(".")[0]
        if package != "svloop":
            buckets[package if package in IMPORT_BUCKETS else "other_deps"] += cumulative
            return
        for child in children:
            visit(child)

    for entry in after_site:
        visit(entry)
    total = sum(e[2] for e in after_site)
    out = {"cli.import_s": total}
    for name in IMPORT_BUCKETS + ("other_deps",):
        out[f"cli.import.{name}_s"] = buckets[name]
    out["cli.import.svloop_self_s"] = total - sum(buckets.values())
    return out


def import_breakdown(env: dict, cwd, repeats: int = 3) -> dict[str, float]:
    """Median of each import figure over ``repeats`` fresh interpreters."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "svloop.cli", "--version"],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(parse_importtime(proc.stderr))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
