"""Benchmark of the ``imbq`` CLI: one workload per run, correctness-gated.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; ``imbq`` is imported from its
``src/`` (the run fails without printing a result when that is missing).
Each workload runs in-process through ``imbq.cli.main`` with every config at
``jobs: 1`` and BLAS/OpenMP pinned to one thread, so the numbers are a
single-threaded baseline.  One untimed warm-up execution comes first, then
executions repeat until ``--seconds`` would be exceeded; times are medians.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s``, ``cpu_s``: median wall and user+system CPU time of one
  execution of the workload's CLI call(s), after import.
* ``setup_s``: median over fresh interpreters of ``import imbq`` plus
  ``parse_config`` of the workload's config(s), timed from process start,
  plus the lazy first-call set-up: how much longer the warm-up execution
  (the first in this process) took than the median of the timed ones, or 0.
* ``peak_rss_mb``: peak resident memory of the benchmark process.
* ``pass_rate``: executions that passed the gate over executions attempted
  (``failed``/``attempted`` in the result carry the fail rate).

``--trace 1`` runs untraced executions for the first half of the time and
traced ones for the second, and prints the per-layer metrics (the
``per_layer`` list of ``BENCHMARK.json``).  Span names are
``<module>.<function>`` for every public function of the package modules,
and ``fft`` for the numpy/scipy FFT entry points; ``self_s`` excludes nested
traced calls, FFTs included.

Every execution is gated: a non-zero exit, an output outside the acceptance
tolerances or off its recorded reference value, output bytes that differ
from the first execution's, or (traced) counts that differ from the first
traced execution's make it fail.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# Single-threaded baseline: the pins must precede the first numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from statistics import median  # noqa: E402

from spans import Instrumentation, SpanRecorder  # noqa: E402
from workloads import WORKLOADS, Workload, gate, hash_outputs, load_reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

MIN_SAMPLES = 3  # timed executions per run, even if that overruns --seconds
MIN_TRACED = 2  # traced executions, so their counts can be compared
SETUP_SAMPLES = 3
LAYERS = ("cli", "grid", "solver", "symbols", "inflation", "reports", "svgplot")

# The metrics, their units and bounds, and the run length are BENCHMARK.json's.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
RUN_SECONDS = SPEC["run_seconds"]
END_TO_END = SPEC["end_to_end"]
# Which end-to-end metric each layer should move, and where:
#   inflation.*        wall_s/cpu_s on inflate-p3 (~all) and deriv-check (~1/3);
#                      grid_nodes moves peak_rss_mb there.  Zero elsewhere.
#   solver.solve/picard_window  wall_s on solve-long (~90%), deriv-check (~2/3).
#   solver.rk4_solve/dispersion_check/energy*  wall_s on certify, solve-long.
#   grid.*             wall_s on solve-long, deriv-check and certify.
#   symbols.*          wall_s on certify only.
#   reports/svgplot    a small share everywhere; bytes_written must not move.
#   cli.parse_config   setup_s; cli.run is orchestration outside library calls.
# A span that never ran reads 0, except success_ratio, which reads 1 (no work lost).
PER_LAYER = SPEC["per_layer"]


def is_timed(name: str) -> bool:
    """Timings vary run to run; every other per-layer metric must repeat exactly."""
    return name.endswith((".self_s", ".share", ".overhead"))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# Counts taken at the span boundary from arguments and results; RK4 steps are
# derived from (horizon, dt) the way rk4_solve derives them.
COUNTERS = {
    "solver.picard_window": lambda a, k, r: {"iterations": r[1].iterations},
    "solver.rk4_solve": lambda a, k, r: {
        "steps": max(1, round(_arg(a, k, 1, "cfg").horizon / _arg(a, k, 2, "dt")))
    },
    "inflation.compute_Ap": lambda a, k, r: {"grid_nodes": _arg(a, k, 0, "d").grid.node_count},
    "reports.atomic_write_text": lambda a, k, r: {"bytes_written": len(_arg(a, k, 1, "text").encode())},
}

SETUP_CODE = """
import sys
src = sys.argv[1]
sys.path.insert(0, src)
import imbq, imbq.cli
if not imbq.__file__.startswith(src):
    sys.exit("imbq was not imported from " + src)
args = sys.argv[2:]
for i in range(0, len(args), 2):
    imbq.cli.parse_config([args[i], "--config", args[i + 1]])
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no result is printed)."""


@dataclass
class Execution:
    wall: float
    cpu: float
    problems: list[str]
    hashes: dict[str, str] = field(default_factory=dict)
    layers: dict[str, float] | None = None


def _cpu_now() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def import_cli():
    """Import ``imbq.cli`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "imbq", "cli.py")):
        raise BenchError(f"no imbq sources under {SRC}")
    sys.path.insert(0, SRC)
    import imbq.cli

    if not os.path.abspath(imbq.cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imbq was imported from {imbq.cli.__file__}, not {SRC}")
    return imbq.cli


def write_configs(workload: Workload, seed: int, directory: str) -> list[tuple[str, str]]:
    os.makedirs(directory, exist_ok=True)
    out = []
    for i, (cmd, cfg) in enumerate(workload.configs(seed)):
        path = os.path.join(directory, f"{i}-{cmd}.json")
        with open(path, "w") as handle:
            json.dump(cfg, handle, sort_keys=True)
        out.append((cmd, path))
    return out


def measure_setup(configs: list[tuple[str, str]], samples: int = SETUP_SAMPLES) -> list[float]:
    """Fresh-interpreter time to an imported package and parsed config(s)."""
    argv = [sys.executable, "-c", SETUP_CODE, SRC] + [x for pair in configs for x in pair]
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()[-500:]}")
    return times


class Runner:
    """Executes one workload repeatedly and gates every execution."""

    def __init__(self, cli, workload: Workload, configs, reference: dict, work: str):
        self.cli = cli
        self.workload = workload
        self.configs = configs
        self.reference = reference
        self.work = work
        self.executions: list[Execution] = []
        self._count = 0

    def execute(self) -> Execution:
        self._count += 1
        outdir = os.path.join(self.work, f"exec-{self._count}")
        problems: list[str] = []
        stderr = io.StringIO()
        wall0, cpu0 = time.perf_counter(), _cpu_now()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            for cmd, path in self.configs:
                try:
                    code = self.cli.main([cmd, "--config", path, "--out", os.path.join(outdir, cmd)])
                except Exception as err:  # a raw traceback is a failed run, not a benchmark crash
                    problems.append(f"{cmd} raised {type(err).__name__}: {err}")
                    break
                if code != 0:
                    problems.append(f"{cmd} exited {code}: {stderr.getvalue().strip()[-300:]}")
                    break
        run = Execution(wall=time.perf_counter() - wall0, cpu=_cpu_now() - cpu0, problems=problems)
        if not problems:
            run.problems = gate(self.workload, outdir, self.reference)
            run.hashes = hash_outputs(outdir)
            first = next((e.hashes for e in self.executions if e.hashes), None)
            if first is not None and run.hashes != first:
                changed = sorted(k for k in set(first) | set(run.hashes) if first.get(k) != run.hashes.get(k))
                run.problems.append(f"output bytes differ from the first execution: {', '.join(changed)}")
        shutil.rmtree(outdir, ignore_errors=True)
        self.executions.append(run)
        return run

    def repeat(self, seconds: float, min_samples: int, execute=None) -> list[Execution]:
        """Execute until the next execution would end past ``seconds``."""
        execute = execute or self.execute
        runs = []
        start = time.perf_counter()
        while True:
            runs.append(execute())
            elapsed = time.perf_counter() - start
            if len(runs) >= min_samples and elapsed + runs[-1].wall > seconds:
                return runs

    @property
    def failed(self) -> int:
        return sum(1 for e in self.executions if e.problems)


def layer_values(recorder: SpanRecorder, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced execution (``trace.overhead`` excepted)."""
    stats, extra = recorder.stats, recorder.extra

    def get(span, attr):
        s = stats.get(span)
        return getattr(s, attr) if s is not None else 0

    out = {}
    for name in (m["name"] for m in PER_LAYER):
        head, quantity = name.rsplit(".", 1)
        if name == "trace.overhead":
            continue
        if head == "fft":
            value = {
                "calls": get("fft", "calls"),
                "self_s": get("fft", "self_s"),
                "points": sum(s.fft_points for s in stats.values()),
                "flops_computed": sum(s.flops_computed for s in stats.values()),
            }[quantity]
        elif "." not in head:  # whole module
            if quantity == "self_s":
                value = sum(s.self_s for k, s in stats.items() if k.startswith(head + "."))
            else:
                value = sum(b.get(quantity, 0) for k, b in extra.items() if k.startswith(head + "."))
        elif quantity == "share":
            value = get(head, "total_s") / wall
        elif quantity == "success_ratio":
            calls = get(head, "calls")
            value = (calls - get(head, "failed")) / calls if calls else 1.0
        elif quantity in ("calls", "failed", "self_s", "fft_points"):
            value = get(head, quantity)
        else:
            value = extra.get(head, {}).get(quantity, 0)
        out[name] = value
    return out


def traced_execute(runner: Runner, recorder: SpanRecorder, instrumentation: Instrumentation):
    def execute() -> Execution:
        recorder.reset()
        with instrumentation:
            run = runner.execute()
        run.layers = layer_values(recorder, run.wall)
        first = next((e.layers for e in runner.executions if e.layers is not None), None)
        if first is not None:
            drift = [k for k in run.layers if not is_timed(k) and run.layers[k] != first[k]]
            if drift:
                run.problems.append(f"traced counts differ from the first traced execution: {', '.join(drift)}")
        return run

    return execute


def _summary(label: str, values, unit: str) -> str:
    if len(values) == 1:
        return f"  {label:<44} {values[0]:.6g} {unit}"
    return (
        f"  {label:<44} {median(values):.6g} {unit}  (median of {len(values)}, "
        f"range {min(values):.6g}..{max(values):.6g})"
    )


def end_to_end(runner: Runner, seconds: float, setup: list[float], warm_up: Execution, lines: list[str]) -> dict:
    timed = runner.repeat(seconds, MIN_SAMPLES)
    walls = [e.wall for e in timed]
    first_call = max(0.0, warm_up.wall - median(walls))
    lines.append(f"  first-call set-up (in setup_s): {first_call:.6g} s; warm-up took {warm_up.wall:.6g} s")
    samples = {
        "wall_s": walls,
        "cpu_s": [e.cpu for e in timed],
        "setup_s": [t + first_call for t in setup],
        "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "pass_rate": [(len(runner.executions) - runner.failed) / len(runner.executions)],
    }
    lines += [_summary(m["name"], samples[m["name"]], m["unit"]) for m in END_TO_END]
    return {name: median(values) for name, values in samples.items()}


def per_layer(runner: Runner, seconds: float, lines: list[str]) -> dict:
    untraced = runner.repeat(seconds / 2, 1)
    recorder = SpanRecorder(counters=COUNTERS)
    layers = {name: importlib.import_module(f"imbq.{name}") for name in LAYERS}
    instrumentation = Instrumentation(recorder, "imbq", layers)
    traced = runner.repeat(seconds / 2, MIN_TRACED, traced_execute(runner, recorder, instrumentation))
    metrics = {}
    for m in PER_LAYER:
        name = m["name"]
        if name == "trace.overhead":
            values = [median([e.wall for e in traced]) / median([e.wall for e in untraced])]
        else:
            values = [e.layers[name] for e in traced]
        metrics[name] = median(values) if is_timed(name) else values[0]
        lines.append(_summary(name, values, m["unit"]))
    return metrics


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK_ROOT, f"{workload.name}-{os.getpid()}")
    lines = [f"perfbench {workload.name}: seed={seed} seconds={seconds:g} trace={int(trace)}"]
    try:
        cli = import_cli()
        configs = write_configs(workload, seed, os.path.join(work, "configs"))
        setup = [] if trace else measure_setup(configs)
        runner = Runner(cli, workload, configs, load_reference(), work)
        warm_up = runner.execute()  # lazy first-call set-up, and the reference output hashes
        if trace:
            metrics = per_layer(runner, seconds, lines)
        else:
            metrics = end_to_end(runner, seconds, setup, warm_up, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    for i, e in enumerate(runner.executions):
        lines += [f"  FAILED execution {i}: {problem}" for problem in e.problems]
    print("\n".join(lines))
    units = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
    return {
        "correct": runner.failed == 0,
        "attempted": len(runner.executions),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
