"""Self-tests of the benchmark: span attribution, the gate, count repeatability.

    python3 -m pytest perfbench -q

They import ``imbq`` from the checkout's ``src`` and run every workload once
(about 20 s on two cores).
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import types

import numpy as np
import pytest

import run
from spans import Instrumentation, SpanRecorder, _fft_cost
from workloads import WORKLOADS, Workload, gate, load_reference

# ----------------------------------------------------------------------
# span recorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


FAKE_SOURCE = '''
import numpy as np

__all__ = ["outer", "inner", "recurse", "Thing"]


class Thing:
    pass


def inner(x):
    CLOCK.advance(1.0)
    return np.fft.fft(x)


def outer(x):
    CLOCK.advance(2.0)
    inner(x)
    inner(x)
    np.fft.ifft(x)
    return "done"


def recurse(n):
    CLOCK.advance(1.0)
    if n:
        recurse(n - 1)
    return n


def _private(x):
    return inner(x)
'''


@pytest.fixture
def fake_package():
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    work = types.ModuleType("fakepkg.work")
    work.CLOCK = clock
    exec(compile(FAKE_SOURCE, "fakepkg/work.py", "exec"), work.__dict__)
    user = types.ModuleType("fakepkg.user")
    user.inner = work.inner  # as after ``from .work import inner``
    pkg.outer = work.outer  # re-exported by the package
    sys.modules.update({"fakepkg": pkg, "fakepkg.work": work, "fakepkg.user": user})
    yield clock, pkg, work, user
    for name in ("fakepkg", "fakepkg.work", "fakepkg.user"):
        sys.modules.pop(name)


def test_nested_calls_self_time_and_fft_points_go_to_the_right_parent(fake_package):
    clock, pkg, work, user = fake_package
    recorder = SpanRecorder(clock=clock)
    with Instrumentation(recorder, "fakepkg", {"work": work}):
        assert pkg.outer(np.ones(8)) == "done"
    s = recorder.stats
    assert s["work.outer"].calls == 1 and s["work.inner"].calls == 2
    assert s["work.outer"].self_s == 2.0 and s["work.outer"].total_s == 4.0
    assert s["work.inner"].self_s == 2.0 and s["work.inner"].total_s == 2.0
    # each inner fft of 8 points is charged to inner, outer's own ifft to outer
    assert s["work.inner"].fft_points == 16 and s["work.outer"].fft_points == 8
    assert s["work.inner"].flops_computed == 2 * 5 * 8 * 3
    assert s["fft"].calls == 3
    assert "Thing" not in str(sorted(s))  # classes are not wrapped


def test_recursive_calls_count_inclusive_time_once(fake_package):
    clock, _, work, _ = fake_package
    recorder = SpanRecorder(clock=clock)
    with Instrumentation(recorder, "fakepkg", {"work": work}):
        work.recurse(3)
    stats = recorder.stats["work.recurse"]
    assert stats.calls == 4
    assert stats.self_s == 4.0
    assert stats.total_s == 4.0  # not 4 + 3 + 2 + 1


def test_imported_bindings_are_traced_and_restored(fake_package):
    clock, pkg, work, user = fake_package
    originals = (work.inner, user.inner, pkg.outer, np.fft.fft)
    recorder = SpanRecorder(clock=clock)
    with Instrumentation(recorder, "fakepkg", {"work": work}):
        user.inner(np.ones(4))
        work._private(np.ones(4))  # private caller, public callee
        np.fft.fft(np.ones(2))  # outside any span: charged to the root
    assert recorder.stats["work.inner"].calls == 2
    assert recorder.stats[SpanRecorder.ROOT].fft_points == 2
    assert (work.inner, user.inner, pkg.outer, np.fft.fft) == originals


def test_failed_calls_are_counted_and_do_not_corrupt_the_stack(fake_package):
    clock, _, work, _ = fake_package
    recorder = SpanRecorder(clock=clock)
    with Instrumentation(recorder, "fakepkg", {"work": work}):
        with pytest.raises(TypeError):
            work.recurse("x")  # "x" - 1 raises inside the outermost call
        work.outer(np.ones(2))
    assert recorder.stats["work.recurse"].calls == recorder.stats["work.recurse"].failed == 1
    assert recorder.stats["work.outer"].total_s == 4.0


@pytest.mark.parametrize(
    "name, shape, kwargs, points, flops",
    [
        ("fft", (16,), {}, 16, 5 * 16 * 4),
        ("ifft", (3, 8), {"axis": 1}, 24, 3 * 5 * 8 * 3),
        ("fft", (8,), {"n": 16}, 16, 5 * 16 * 4),
        ("rfft", (16,), {}, 16, 2.5 * 16 * 4),
        ("irfft", (9,), {}, 16, 2.5 * 16 * 4),
    ],
)
def test_fft_cost(name, shape, kwargs, points, flops):
    x = np.ones(shape)
    result = getattr(np.fft, name)(x, **kwargs)
    assert _fft_cost(name, (x,), kwargs, result) == (points, flops)


# ----------------------------------------------------------------------
# the gate on real outputs


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture(scope="module")
def workload_outputs(cli, tmp_path_factory):
    """One real execution of every workload, outputs kept for perturbation."""
    out = {}
    for workload in WORKLOADS.values():
        base = tmp_path_factory.mktemp(workload.name)
        configs = run.write_configs(workload, 7, str(base / "configs"))
        for cmd, path in configs:
            assert cli.main([cmd, "--config", path, "--out", str(base / "out" / cmd)]) == 0
        out[workload.name] = str(base / "out")
    return out


def _edit_json(path, edit):
    with open(path) as handle:
        payload = json.load(handle)
    edit(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle)


# A small change to one number per workload that the gate must catch.
PERTURB = {
    "inflate-p3": ("inflate/inflate.json", lambda p: p.update(slope=p["slope"] * (1 + 1e-5))),
    "solve-long": ("solve/solve.json", lambda p: p["energy"].__setitem__(-1, p["energy"][-1] * (1 + 1e-7))),
    "deriv-check": (
        "derivative-check/derivative.json",
        lambda p: p.update(relative_error=p["relative_error"] * 1.2),
    ),
    "certify": ("dispersion/dispersion.json", lambda p: p["rows"][1].update(fitted_omega=0.995)),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_gate_passes_real_output_and_fails_perturbed(name, workload_outputs, tmp_path):
    workload, reference = WORKLOADS[name], load_reference()
    assert gate(workload, workload_outputs[name], reference) == []
    copy = tmp_path / "out"
    shutil.copytree(workload_outputs[name], copy)
    rel, edit = PERTURB[name]
    _edit_json(copy / rel, edit)
    assert gate(workload, str(copy), reference) != []
    os.remove(copy / rel)
    assert any("unreadable" in p for p in gate(workload, str(copy), reference))


class FakeCli:
    """Stands in for imbq.cli: writes one file whose bytes can change per call."""

    def __init__(self, codes=(0,), raises=False, vary=False):
        self.calls, self.codes, self.raises, self.vary = 0, codes, raises, vary

    def main(self, argv):
        self.calls += 1
        if self.raises:
            raise OverflowError("boom")
        out = argv[argv.index("--out") + 1]
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "x.json"), "w") as handle:
            handle.write(str(self.calls if self.vary else 0))
        return self.codes[min(self.calls, len(self.codes)) - 1]


def _fake_runner(fake, tmp_path):
    workload = Workload("fake", (("solve", {}),), lambda d: [], lambda d: {})
    configs = run.write_configs(workload, 1, str(tmp_path / "configs"))
    return run.Runner(fake, workload, configs, {"fake": {}}, str(tmp_path))


def test_runner_fails_executions_whose_bytes_change(tmp_path):
    runner = _fake_runner(FakeCli(vary=True), tmp_path)
    assert runner.execute().problems == []
    assert "output bytes differ" in runner.execute().problems[0]
    assert runner.failed == 1


def test_runner_fails_nonzero_exit_and_raised_errors(tmp_path):
    runner = _fake_runner(FakeCli(codes=(0, 3)), tmp_path)
    runner.execute()
    assert "exited 3" in runner.execute().problems[0]
    raising = _fake_runner(FakeCli(raises=True), tmp_path)
    assert "raised OverflowError" in raising.execute().problems[0]


def test_setup_s_carries_the_first_execution_excess(tmp_path):
    class SlowFirstCli(FakeCli):
        def main(self, argv):
            if self.calls == 0:
                time.sleep(0.3)  # a cache built on the first call
            return super().main(argv)

    runner = _fake_runner(SlowFirstCli(), tmp_path)
    warm_up = runner.execute()
    metrics = run.end_to_end(runner, 0.0, [0.5, 0.5, 0.5], warm_up, [])
    assert warm_up.wall >= 0.3 > 0.1 > metrics["wall_s"]
    assert metrics["setup_s"] == pytest.approx(0.5 + warm_up.wall - metrics["wall_s"])


# ----------------------------------------------------------------------
# traced runs


SMALL = Workload(
    "small",  # solve and inflate at test sizes
    (
        ("solve", {"solve": {"p": 2, "T": 0.5, "nodes": 64}}),
        ("inflate", {"plot": True, "inflate": {"p": 2, "s": -0.5, "t": 0.5, "N": [2, 4, 8], "tau_nodes": 33, "dxi": 0.0625}}),
    ),
    lambda d: [],
    lambda d: {},
)


def test_traced_counts_repeat_exactly(cli, tmp_path):
    configs = run.write_configs(SMALL, 1, str(tmp_path / "configs"))
    runner = run.Runner(cli, SMALL, configs, {"small": {}}, str(tmp_path))
    assert runner.execute().problems == []  # untraced: the traced outputs must hash the same
    recorder = SpanRecorder(counters=run.COUNTERS)
    layers = {name: __import__(f"imbq.{name}", fromlist=["_"]) for name in run.LAYERS}
    execute = run.traced_execute(runner, recorder, Instrumentation(recorder, "imbq", layers))
    first, second = execute(), execute()
    assert first.problems == [] and second.problems == []
    counts = {k: v for k, v in first.layers.items() if not run.is_timed(k)}
    assert counts == {k: v for k, v in second.layers.items() if not run.is_timed(k)}
    for name in (
        "solver.picard_window.calls",
        "solver.picard_window.iterations",
        "grid.sup_norm.fft_points",
        "inflation.compute_Ap.calls",
        "inflation.compute_Ap.fft_points",
        "reports.bytes_written",
        "fft.calls",
    ):
        assert counts[name] > 0, name
    assert counts["fft.points"] >= counts["grid.sup_norm.fft_points"] + counts["inflation.compute_Ap.fft_points"]
    assert 0 < first.layers["inflation.compute_Ap.share"] < 1
    import imbq.grid

    assert not hasattr(imbq.grid.sup_norm, "__wrapped__")  # uninstalled after each execution


# ----------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_respects_the_format_limits():
    spec = run.SPEC
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(name_re.match(n) for n in names) and len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["bound"] == 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in spec["end_to_end"]
    assert 1 <= spec["run_seconds"] <= 60 and len(spec["per_layer"]) <= 128
    assert set(spec["per_layer"][0]) == {"name", "unit", "better"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_work").exists()


def test_reference_covers_every_workload_with_finite_values():
    reference = load_reference()
    assert set(reference) == set(WORKLOADS)
    assert all(math.isfinite(v["value"]) and v["rtol"] > 0 for ref in reference.values() for v in ref.values())
