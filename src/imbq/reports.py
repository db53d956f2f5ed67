"""CSV/JSON emission for experiment outputs.

All writers are atomic (temp file in the target directory, then rename) and
deterministic: floats are serialized with ``repr`` (shortest round-trip)
and JSON keys are sorted, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .grid import to_position
from .inflation import InflationReport
from .solver import CONTRACTION_TARGET, QUADRATURE_TARGET, Trajectory
from .symbols import BesovEstimate

__all__ = [
    "atomic_write_text",
    "write_csv",
    "write_json",
    "write_besov_csv",
    "write_inflation_csv",
    "inflation_summary",
    "write_trajectory_csv",
    "trajectory_sidecar",
    "DispersionRow",
    "write_dispersion_csv",
]


def atomic_write_text(path: str, text: str):
    """Write text to ``path`` via a same-directory temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str, header: list[str], rows: list[tuple]):
    lines = [",".join(header)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def write_json(path: str, payload: dict):
    atomic_write_text(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# per-module schemas


def write_besov_csv(path: str, estimates: list[BesovEstimate]):
    rows = [
        (e.symbol, "" if e.t is None else repr(float(e.t)), e.value, e.resolution, e.converged)
        for e in estimates
    ]
    write_csv(path, ["symbol", "t", "seminorm", "resolution", "converged"], rows)


def write_inflation_csv(path: str, report: InflationReport):
    rows = [
        (r.N, report.t, report.p, report.s, report.sign, r.band_lo, r.band_hi, r.numerator, r.denominator, r.ratio)
        for r in report.rows
    ]
    write_csv(
        path,
        ["N", "t", "p", "s", "sign", "band_lo", "band_hi", "numerator", "denominator", "ratio"],
        rows,
    )


def inflation_summary(report: InflationReport, slope_tol: float = 0.2) -> dict:
    return {
        "p": report.p,
        "s": report.s,
        "t": report.t,
        "sign": report.sign,
        "rows": [
            {
                "N": r.N,
                "band": [r.band_lo, r.band_hi],
                "numerator": r.numerator,
                "denominator": r.denominator,
                "ratio": r.ratio,
            }
            for r in report.rows
        ],
        "slope": report.slope,
        "residual": report.residual,
        "expected_slope": report.expected_slope,
        "slope_tol": slope_tol,
        "pass": report.passes(slope_tol),
        "provenance": {
            "rows": "imbq.inflation.inflation_ratio",
            "slope": "imbq.inflation.ratio_sweep",
        },
    }


def write_trajectory_csv(path: str, traj: Trajectory, sample_times: list[float]):
    """Position samples u(t, x_j) at the trajectory times nearest each request: the bytes of
    :func:`write_csv`, formatted from Python floats with ``repr`` in one pass."""
    lines, x = ["t,x,u"], traj.grid.x.tolist()
    for t_req in sample_times:
        i = int(np.argmin(np.abs(traj.times - t_req)))
        t = repr(float(traj.times[i]))
        samples = to_position(traj.state(i)[0]).real.tolist()
        lines.extend(f"{t},{xj!r},{v!r}" for xj, v in zip(x, samples))
    atomic_write_text(path, "\n".join(lines) + "\n")


def trajectory_sidecar(marched, config: dict, energies=None, transform_lengths=None) -> dict:
    """Solver diagnostics of an ``imbq solve`` run from its ``solver._march`` result: its node times,
    window edges, each window's report and node count, the rejected runs (start, window, nodes, estimate,
    null on a Picard failure, and difference norms), how the windows were sized (window 0's length, the
    probe's window and contraction ratio, the targets, the halved windows), and the padded transform
    lengths it used (``transform_lengths``, name -> node count).

    The provenance names what that run executes: the window march, the
    Picard iteration in each window and the batched energy.
    """
    reports, probe = marched.reports, marched.probe
    return {
        "config": config,
        "window_edges": list(marched.edges),
        "iterations": [r.iterations for r in reports],
        "nodes": list(marched.nodes),
        "contraction_ratios": [list(r.ratios) for r in reports],
        "difference_norms": [list(r.differences) for r in reports],
        "quadrature_estimates": [r.quadrature_estimate for r in reports],
        "rejected": [
            {"start": t, "window": w, "nodes": n, "quadrature_estimate": e, "difference_norms": list(h)}
            for t, w, n, e, h in marched.rejected
        ],
        "window_rule": {
            "window": reports[0].window_length,
            "probe": None if probe is None else {"window": probe[0], "contraction_ratio": probe[1]},
            "contraction_target": None if probe is None else CONTRACTION_TARGET,
            "quadrature_target": QUADRATURE_TARGET,
            "halvings": marched.halvings,
        },
        "energy": None if energies is None else [float(e) for e in energies],
        "sample_times": [float(t) for t in marched.times],
        "transform_lengths": transform_lengths,
        "provenance": {
            "states": "imbq.solver._march",
            "window_rule": "imbq.solver._march",
            "contraction_ratios": "imbq.solver.picard_window",
            "quadrature_estimates": "imbq.solver.picard_window",
            "energy": "imbq.solver._energy_matrix",
            "transform_lengths": "imbq.grid._padded_node_count",
        },
    }


@dataclass(frozen=True)
class DispersionRow:
    k: float
    fitted_omega: float
    expected_omega: float

    @property
    def rel_error(self) -> float:
        return abs(self.fitted_omega - self.expected_omega) / self.expected_omega


def write_dispersion_csv(path: str, rows: list[DispersionRow]):
    cells = [(r.k, r.fitted_omega, r.expected_omega, r.rel_error) for r in rows]
    write_csv(path, ["k", "fitted_omega", "expected_omega", "rel_error"], cells)
