import json
import os

import numpy as np

from imbq.grid import make_grid
from imbq.reports import (
    atomic_write_text,
    inflation_summary,
    trajectory_sidecar,
    write_besov_csv,
    write_inflation_csv,
    write_trajectory_csv,
)
from imbq.inflation import InflationReport, InflationRow
from imbq.solver import SolverConfig, _march, gaussian_data, solve
from imbq.symbols import BesovEstimate


def sample_report():
    rows = tuple(
        InflationRow(N=n, band_lo=0.25, band_hi=0.5, numerator=0.1, denominator=0.1 / n, ratio=float(n))
        for n in (16, 32, 64)
    )
    return InflationReport(
        p=2, s=-0.5, t=0.5, sign=1, rows=rows, slope=1.0, intercept=0.0, residual=0.0,
        expected_slope=1.0,
    )


def test_atomic_write_leaves_no_partials(tmp_path):
    target = tmp_path / "deep" / "file.txt"
    atomic_write_text(str(target), "payload")
    assert target.read_text() == "payload"
    leftovers = [f for f in os.listdir(tmp_path / "deep") if f.endswith(".tmp")]
    assert leftovers == []


def test_inflation_csv_schema(tmp_path):
    path = tmp_path / "r.csv"
    write_inflation_csv(str(path), sample_report())
    lines = path.read_text().splitlines()
    assert lines[0] == "N,t,p,s,sign,band_lo,band_hi,numerator,denominator,ratio"
    assert lines[1].startswith("16,0.5,2,-0.5,1,0.25,0.5,")


def test_inflation_summary_pass_flag():
    summary = inflation_summary(sample_report())
    assert summary["pass"] is True
    assert summary["slope"] == 1.0
    assert summary["provenance"]["rows"] == "imbq.inflation.inflation_ratio"
    bad = inflation_summary(sample_report(), slope_tol=1e-9)
    assert bad["pass"] is True  # slope exactly matches here


def test_besov_csv_schema(tmp_path):
    ests = [
        BesovEstimate("m1", None, 8.9, 80, 1e4, True, 0.001, 1e-8),
        BesovEstimate("m3", 0.5, 0.18, 80, 1e4, True, 0.002, 1e-8),
    ]
    path = tmp_path / "b.csv"
    write_besov_csv(str(path), ests)
    lines = path.read_text().splitlines()
    assert lines[0] == "symbol,t,seminorm,resolution,converged"
    assert lines[1] == "m1,,8.9,80,true"
    assert lines[2].startswith("m3,0.5,0.18,80,")


def test_trajectory_csv_and_sidecar(tmp_path):
    g = make_grid(8.0, 64)
    d = gaussian_data(g, 0.1, 1.0, 0.05)
    traj = solve(d, SolverConfig(p=2, sign=1, horizon=0.2))
    path = tmp_path / "t.csv"
    write_trajectory_csv(str(path), traj, [0.0, 0.2])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 2 * g.node_count
    lengths = {"dealiased_row": 100, "sup_norm_grid": 540}
    marched = _march(d, SolverConfig(p=2, sign=1, horizon=0.2), True, lambda *rows: None)
    sidecar = trajectory_sidecar(marched, {"p": 2}, transform_lengths=lengths)
    assert sidecar["window_edges"] == list(traj.window_edges) and sidecar["window_edges"][0] == 0.0
    assert sidecar["sample_times"] == traj.times.tolist()
    assert sidecar["transform_lengths"] == lengths
    assert len(sidecar["iterations"]) == len(traj.window_reports)
    assert sidecar["nodes"] == list(marched.nodes) and sidecar["rejected"] == []
    # what `imbq solve` runs: the streamed march and the batched energy, not solve or energy
    assert sidecar["provenance"] == {
        "states": "imbq.solver._march",
        "window_rule": "imbq.solver._march",
        "contraction_ratios": "imbq.solver.picard_window",
        "quadrature_estimates": "imbq.solver.picard_window",
        "energy": "imbq.solver._energy_matrix",
        "transform_lengths": "imbq.grid._padded_node_count",
    }
    json.dumps(sidecar)  # serializable


def test_trajectory_csv_has_the_bytes_of_write_csv(tmp_path):
    # the one-pass formatting against write_csv's per-cell path, over a sized march of several windows,
    # requests between nodes and a repeated one
    from imbq.grid import to_position
    from imbq.reports import write_csv

    traj = solve(gaussian_data(make_grid(8.0, 64), 0.1, 1.0, 0.05), SolverConfig(p=2, sign=1, horizon=3.0))
    assert len(traj.window_reports) > 1
    requests = [0.0, 0.7, 1.3, 1.3, 3.0]
    rows = []
    for t_req in requests:
        i = int(np.argmin(np.abs(traj.times - t_req)))
        samples = to_position(traj.state(i)[0]).real
        rows.extend((float(traj.times[i]), float(x), float(v)) for x, v in zip(traj.grid.x, samples))
    write_csv(str(tmp_path / "cells.csv"), ["t", "x", "u"], rows)
    write_trajectory_csv(str(tmp_path / "lines.csv"), traj, requests)
    assert (tmp_path / "lines.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()


def test_float_round_trip_in_csv(tmp_path):
    path = tmp_path / "x.csv"
    value = 0.1234567890123456789
    from imbq.reports import write_csv

    write_csv(str(path), ["v"], [(value,)])
    back = float(path.read_text().splitlines()[1])
    assert back == value
    assert np.isclose(back, value, rtol=0, atol=0)
