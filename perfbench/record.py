"""Write the benchmark's recorded files from a source checkout.

    python3 perfbench/record.py reference          # perfbench/reference.json (headline numbers)
    python3 perfbench/record.py baseline --runs 10 # perfbench/baseline.json (environment + medians)

``baseline`` runs ``run.py`` once per seed on every workload (``--runs``
seeds at ``--trace 0``, the first ``run.MIN_TRACED`` of them at
``--trace 1``), prints each end-to-end metric's median and quartile spread
as a share of the median, and records them with the machine, versions, BLAS
threads and git revision.  It always records every workload, so the whole
file is measured at one revision.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import run  # sets the single-thread pins before numpy loads
from workloads import DEFAULT_RTOL, LOOSE_RTOL, REFERENCE_PATH, WORKLOADS

BASELINE_PATH = os.path.join(run.HERE, "baseline.json")


def _write_json(path: str, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def record_reference(seed: int):
    cli = run.import_cli()
    out = {}
    for workload in WORKLOADS.values():
        work = os.path.join(run.WORK_ROOT, f"reference-{workload.name}")
        configs = run.write_configs(workload, seed, os.path.join(work, "configs"))
        outdir = os.path.join(work, "out")
        for cmd, path in configs:
            code = cli.main([cmd, "--config", path, "--out", os.path.join(outdir, cmd)])
            if code != 0:
                raise SystemExit(f"{workload.name}: {cmd} exited {code}")
        problems = workload.check(outdir)
        if problems:
            raise SystemExit(f"{workload.name}: {problems}")
        out[workload.name] = {
            key: {"value": value, "rtol": LOOSE_RTOL.get(key, DEFAULT_RTOL)}
            for key, value in sorted(workload.headline(outdir).items())
        }
        shutil.rmtree(work)
    _write_json(REFERENCE_PATH, out)


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "jobs": 1,
        "git_revision": rev,
    }


def _one_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(run.RUN_SECONDS), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def record_baseline(runs: int, first_seed: int):
    result = {"environment": _environment(), "run_seconds": run.RUN_SECONDS, "workloads": {}}
    for name in WORKLOADS:
        seeds = list(range(first_seed, first_seed + runs))
        end = [_one_run(name, s, 0) for s in seeds]
        entry = {"seeds": seeds, "end_to_end": {}, "per_layer": {}}
        for metric in run.END_TO_END:
            stats = _stats([r[metric["name"]] for r in end])
            entry["end_to_end"][metric["name"]] = stats
            flag = "" if metric["name"] == "setup_s" or stats["spread"] <= metric["bound"] / 3 else "  WIDE"
            print(f"{name:12} {metric['name']:12} median {stats['median']:.6g} spread {stats['spread']:.4f} "
                  f"(bound {metric['bound']}){flag}", flush=True)
        traced = [_one_run(name, s, 1) for s in seeds[: run.MIN_TRACED]]
        for metric in run.PER_LAYER:
            entry["per_layer"][metric["name"]] = _stats([r[metric["name"]] for r in traced])
        result["workloads"][name] = entry
    _write_json(BASELINE_PATH, result)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    ref = sub.add_parser("reference")
    ref.add_argument("--seed", type=int, default=1)
    base = sub.add_parser("baseline")
    base.add_argument("--runs", type=int, default=10)
    base.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.what == "reference":
        record_reference(args.seed)
    else:
        record_baseline(args.runs, args.first_seed)


if __name__ == "__main__":
    main()
