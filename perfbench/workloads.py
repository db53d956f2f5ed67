"""The benchmark's workloads and the correctness gate on their outputs.

Each workload is a list of ``imbq`` CLI calls with fixed configs; the
benchmark seed becomes the config ``seed`` (only the lemma-check corpus
draws from it).  After every execution the gate checks the outputs against
the tolerances ``tests/test_acceptance.py`` states for the same quantity,
and compares each headline number with ``reference.json``, recorded at the
commit that defined the benchmark, to the relative tolerance stored with it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    calls: tuple[tuple[str, dict], ...]  # (command, config file without jobs and seed)
    check: Callable[[str], list[str]]  # output dir -> acceptance violations
    headline: Callable[[str], dict[str, float]]  # output dir -> reference numbers

    def configs(self, seed: int) -> list[tuple[str, dict]]:
        """Full config files, with single-process runs pinned (``jobs: 1``)."""
        return [(cmd, {"jobs": 1, "seed": seed, **cfg}) for cmd, cfg in self.calls]


def _load(outdir: str, *parts: str):
    with open(os.path.join(outdir, *parts)) as handle:
        return json.load(handle)


def _rows(outdir: str, *parts: str) -> list[dict]:
    with open(os.path.join(outdir, *parts), newline="") as handle:
        return list(csv.DictReader(handle))


# ----------------------------------------------------------------------
# inflate-p3


def _inflate_check(outdir: str) -> list[str]:
    s = _load(outdir, "inflate", "inflate.json")
    bad = []
    if not s["pass"]:
        bad.append("inflate.json pass is false")
    if s["slope"] is None or abs(s["slope"] - s["expected_slope"]) > 0.2:
        bad.append(f"inflation slope {s['slope']} not within 0.2 of {s['expected_slope']}")
    return bad


def _inflate_headline(outdir: str) -> dict[str, float]:
    s = _load(outdir, "inflate", "inflate.json")
    out = {"inflate.slope": s["slope"]}
    out.update({f"inflate.ratio.N{r['N']}": r["ratio"] for r in s["rows"]})
    return out


# ----------------------------------------------------------------------
# solve-long


def _solve_check(outdir: str) -> list[str]:
    energy = _load(outdir, "solve", "solve.json")["energy"]
    if not energy:
        return ["solve.json carries no energy series"]
    drift = max(abs(e - energy[0]) for e in energy) / abs(energy[0])
    return [] if drift <= 1e-8 else [f"energy drift {drift:.3e} > 1e-8 relative"]


def _solve_headline(outdir: str) -> dict[str, float]:
    by_time: dict[str, list[float]] = {}
    for row in _rows(outdir, "solve", "trajectory.csv"):
        by_time.setdefault(row["t"], []).append(float(row["u"]))
    out = {
        f"solve.u_rms.t{t}": math.sqrt(sum(u * u for u in us) / len(us)) for t, us in by_time.items()
    }
    out["solve.energy0"] = _load(outdir, "solve", "solve.json")["energy"][0]
    return out


# ----------------------------------------------------------------------
# deriv-check


def _deriv_check(outdir: str) -> list[str]:
    s = _load(outdir, "derivative-check", "derivative.json")
    bad = []
    if not s["relative_error"] <= 5e-3:
        bad.append(f"derivative residual {s['relative_error']:.3e} > 5e-3")
    if not 1.5 <= s["halving_ratio"] <= 2.5:
        bad.append(f"halving ratio {s['halving_ratio']:.3f} outside [1.5, 2.5]")
    return bad


def _deriv_headline(outdir: str) -> dict[str, float]:
    s = _load(outdir, "derivative-check", "derivative.json")
    return {"deriv.relative_error": s["relative_error"], "deriv.halving_ratio": s["halving_ratio"]}


# ----------------------------------------------------------------------
# certify


def _certify_check(outdir: str) -> list[str]:
    lemma = _load(outdir, "lemma-check", "lemma.json")
    bad = []
    if not lemma["pass"]:
        bad.append("lemma.json pass is false")
    if lemma["hs_violations"] != 0:
        bad.append(f"{lemma['hs_violations']} H^s violations")
    for row in _load(outdir, "dispersion", "dispersion.json")["rows"]:
        if not row["rel_error"] <= 1e-6:
            bad.append(f"dispersion k={row['k']:g} relative error {row['rel_error']:.3e} > 1e-6")
    return bad


def _certify_headline(outdir: str) -> dict[str, float]:
    lemma = _load(outdir, "lemma-check", "lemma.json")
    out = {f"lemma.{e['symbol']}.t{e['t']}": e["value"] for e in lemma["seminorms"]}
    out["lemma.kernel_ratio_min"] = lemma["kernel_ratio_min"]
    out["lemma.kernel_ratio_max"] = lemma["kernel_ratio_max"]
    for row in _load(outdir, "dispersion", "dispersion.json")["rows"]:
        out[f"dispersion.omega.k{row['k']:g}"] = row["fitted_omega"]
    return out


# Why each workload is in the benchmark is its "why" line in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "inflate-p3",
            (("inflate", {"plot": True, "inflate": {"p": 3, "s": -0.5, "t": 0.5, "N": [8, 16, 32]}}),),
            _inflate_check,
            _inflate_headline,
        ),
        Workload(
            "solve-long",
            (
                (
                    "solve",
                    {
                        "solve": {
                            "p": 2,
                            "T": 20.0,
                            "nodes": 512,
                            "data": {"kind": "gaussian", "amplitude": 0.2, "velocity_amplitude": 0.1},
                        }
                    },
                ),
            ),
            _solve_check,
            _solve_headline,
        ),
        Workload(
            "deriv-check",
            (("derivative-check", {"derivative-check": {"p": 2, "N": 64, "t": 0.3, "eps": 1e-3}}),),
            _deriv_check,
            _deriv_headline,
        ),
        Workload(
            "certify",
            (("lemma-check", {}), ("dispersion", {"plot": True})),
            _certify_check,
            _certify_headline,
        ),
    )
}

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Relative tolerance recorded with each headline number.  The derivative
# residual and its halving ratio come from differences of nearly equal solver
# outputs (the residual is ~3e-6 relative), so solver round-off and Picard
# stopping move them far more than any other number; they get 5%.
DEFAULT_RTOL = 1e-6
LOOSE_RTOL = {"deriv.relative_error": 0.05, "deriv.halving_ratio": 0.05}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def compare_reference(workload: Workload, outdir: str, reference: dict) -> list[str]:
    """Headline numbers that miss their recorded value by more than its rtol."""
    expected = reference[workload.name]
    got = workload.headline(outdir)
    bad = []
    for key in sorted(set(expected) | set(got)):
        if key not in expected or key not in got:
            bad.append(f"headline {key} missing from {'output' if key in expected else 'reference'}")
            continue
        ref, rtol = expected[key]["value"], expected[key]["rtol"]
        value = got[key]
        if not (math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)):
            bad.append(f"headline {key} = {value!r}, reference {ref!r} (rtol {rtol:g})")
    return bad


def gate(workload: Workload, outdir: str, reference: dict) -> list[str]:
    """All reasons the outputs in ``outdir`` fail; empty when they pass."""
    try:
        return workload.check(outdir) + compare_reference(workload, outdir, reference)
    except (OSError, KeyError, TypeError, ValueError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]


def hash_outputs(outdir: str) -> dict[str, str]:
    """SHA-256 of every output file (CSV, JSON, SVG), by path relative to ``outdir``."""
    digests = {}
    for root, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, outdir)] = hashlib.sha256(handle.read()).hexdigest()
    return dict(sorted(digests.items()))
