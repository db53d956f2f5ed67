import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbq.cli import (
    COMMANDS,
    DATA_SCHEMAS,
    MAX_BESOV_RESOLUTION,
    MAX_DISPERSION_SAMPLES,
    MAX_SOLVE_PADDED_NODES,
    MAX_TAU_NODES,
    MAX_ROW_NODES,
    MAX_TERM_ENTRIES,
    SCHEMAS,
    TOP_LEVEL_KEYS,
    ConfigError,
    RunConfig,
    emit_plot,
    main,
    parse_config,
)
from imbq.grid import make_grid, sobolev_norm
from imbq.inflation import InflationReport
from imbq.reports import DispersionReport, DispersionRow, write_trajectory_csv
from imbq.solver import (
    MAX_SOLVE_WINDOWS,
    ConvergenceError,
    SolverConfig,
    energy_series,
    gaussian_data,
    picard_window,
    solve,
)
from imbq import inflation as inflation_module
from imbq import solver as solver_module


ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_minimal_inflate_config(tmp_path):
    cfg_path = write_config(
        tmp_path, {"inflate": {"p": 2, "s": -0.5, "t": 0.5, "N": [16, 32, 64, 128]}}
    )
    cfg = parse_config(["inflate", "--config", cfg_path])
    assert cfg.command == "inflate"
    assert cfg.params["p"] == 2
    assert cfg.params["tau_nodes"] == 65  # default filled
    assert cfg.params["dxi"] == 1.0 / 64.0
    assert cfg.jobs == 0 and cfg.plot is False  # jobs is accepted and has no effect


def test_parse_rejects_p_below_two(tmp_path):
    cfg_path = write_config(tmp_path, {"inflate": {"p": 1, "s": -0.5, "t": 0.5, "N": [16]}})
    with pytest.raises(ConfigError, match="integer >= 2"):
        parse_config(["inflate", "--config", cfg_path])


def test_parse_rejects_unknown_keys(tmp_path):
    cfg_path = write_config(
        tmp_path, {"inflate": {"p": 2, "s": -0.5, "t": 0.5, "N": [16], "bogus": 1}}
    )
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(["inflate", "--config", cfg_path])
    cfg_path = write_config(tmp_path, {"nonsense": {}}, "top.json")
    with pytest.raises(ConfigError, match="nonsense"):
        parse_config(["solve", "--config", cfg_path])


def test_number_list_rejects_non_numbers_with_exit_2(tmp_path, capsys):
    for bad in (["x"], [None]):
        cfg_path = write_config(tmp_path, {"inflate": {"p": 2, "s": -0.5, "t": 0.5, "N": bad}})
        with pytest.raises(ConfigError, match="list of numbers"):
            parse_config(["inflate", "--config", cfg_path])
        assert main(["inflate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("block", [5, [{"a": 1}]], ids=["number", "list"])
def test_non_object_command_block_exits_2(tmp_path, capsys, block):
    cfg_path = write_config(tmp_path, {"inflate": block})
    assert main(["inflate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert "'inflate' block must be a JSON object" in capsys.readouterr().err


def test_non_finite_float_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"solve": {"p": 2, "T": 1e400}}')  # json reads 1e400 as inf
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "expected finite float" in capsys.readouterr().err


def test_dispersion_tiny_dt_runs_at_once(tmp_path):
    # 2e301 RK4 steps per mode cost one matrix power each: 41 samples, as at the default dt
    cfg_path = write_config(tmp_path, {"dispersion": {"dt": 1e-300}})
    start = time.perf_counter()
    assert main(["dispersion", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert time.perf_counter() - start < 1.0
    rows = json.loads((tmp_path / "out" / "dispersion.json").read_text())["rows"]
    assert [r["k"] for r in rows] == [1.0, 10.0, 100.0]
    for r in rows:
        assert abs(r["fitted_omega"] - r["expected_omega"]) < 1e-6


def test_dispersion_sample_budget_exits_2_at_once(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"dispersion": {"T": 1e300}})
    start = time.perf_counter()
    assert main(["dispersion", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    # 3 modes x (5e302 steps // 250 + 1) samples
    assert "asks for 6e+300 amplitude samples" in err and f"the limit is {MAX_DISPERSION_SAMPLES}" in err


def test_dispersion_unstable_dt_exits_3(tmp_path, capsys):
    # h lam = 2.99994 for k = 100 is past the RK4 stability limit 2 sqrt(2)
    cfg_path = write_config(tmp_path, {"dispersion": {"k": [100.0], "T": 300.0, "dt": 3.0}})
    assert main(["dispersion", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 3
    assert "instability detected at step 34" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_dispersion_underflowing_mode_exits_3_without_warnings(tmp_path, capsys):
    # lambda(1e-300)^2 underflows to 0: the trace never moves and the fit fails, with no numpy warning
    cfg_path = write_config(tmp_path, {"dispersion": {"k": [1e-300]}})
    assert main(["dispersion", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: dispersion fit failed") and err.count("\n") == 1


def test_besov_resolution_budget_exits_2_at_once(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"lemma-check": {"resolution": 10**8}})
    start = time.perf_counter()
    assert main(["lemma-check", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "100000000" in err and str(MAX_BESOV_RESOLUTION) in err
    assert parse_config(["lemma-check"]).params["resolution"] == 160  # the default stays accepted


@pytest.mark.parametrize(
    "command, block, estimate",
    [
        # 201 seminorms at the largest resolution
        ("lemma-check", {"resolution": 2560, "t_values": [0.5 + 0.01 * i for i in range(100)]}, "1317273600"),
        ("lemma-check", {"corpus_size": 10**9}, "256000000000 field nodes"),
        # 4001 samples per mode, 1000 modes
        ("dispersion", {"T": 2000.0, "dt": 2e-3, "k": [1.0 + i for i in range(1000)]}, "4001000 amplitude samples"),
    ],
    ids=["lemma-seminorms", "lemma-corpus", "dispersion-modes"],
)
def test_work_budgets_count_list_lengths(tmp_path, capsys, command, block, estimate):
    cfg_path = write_config(tmp_path, {command: block})
    start = time.perf_counter()
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {command} ") and estimate in err


def test_solve_huge_power_window_is_the_horizon(tmp_path):
    # r < 1 for the default gaussian, so r^{-(p-1)/2} overflows a float here;
    # the window is then the whole horizon
    cfg_path = write_config(tmp_path, {"solve": {"p": 1001, "T": 0.1, "nodes": 64}})
    start = time.perf_counter()
    assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert time.perf_counter() - start < 5.0
    sidecar = json.loads((tmp_path / "out" / "solve.json").read_text())
    assert sidecar["window_edges"] == [0.0, 0.1]


@pytest.mark.parametrize(
    "command, block",
    [
        ("solve", {"p": 10**20, "T": 0.1, "nodes": 64}),
        # the box grid grows like p*(N+2)/dxi and its dealiased row (p+1)/2 times that
        ("derivative-check", {"p": 10**20}),
        ("derivative-check", {"p": 10**6}),
        ("derivative-check", {"N": 10**9}),
    ],
)
def test_padded_row_budget_exits_2_at_once(tmp_path, capsys, command, block):
    cfg_path = write_config(tmp_path, {command: block})
    start = time.perf_counter()
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"limit {MAX_SOLVE_PADDED_NODES}" in capsys.readouterr().err


def test_padded_row_budget_counts_the_row_the_solver_allocates(tmp_path, capsys):
    # ceil(524288 * 4/2) is exactly the limit, but the solver pads to 1,049,760 nodes, the
    # smallest even 5-smooth count above it
    cfg_path = write_config(tmp_path, {"solve": {"nodes": 524288, "p": 3, "T": 0.1}})
    start = time.perf_counter()
    assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    assert f"asks for 1049760 dealiased nodes per row; limit {MAX_SOLVE_PADDED_NODES}" in capsys.readouterr().err


def test_solve_records_its_transform_lengths(tmp_path):
    cfg_path = write_config(tmp_path, {"solve": {"p": 2, "T": 0.05, "nodes": 512}})
    assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    sidecar = json.loads((tmp_path / "out" / "solve.json").read_text())
    # 512 * 3/2 = 768 and 512 * 8 = 4096, each padded to the next even 5-smooth count above it
    assert sidecar["transform_lengths"] == {"dealiased_row": 800, "sup_norm_grid": 4320}


def test_solve_window_budget_exits_2_at_once(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"solve": {"p": 2, "T": 1.0, "nodes": 64, "window": 1e-9}})
    start = time.perf_counter()
    assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "1e+09 windows" in err and f"limit is {MAX_SOLVE_WINDOWS}" in err


@pytest.mark.parametrize(
    "command, block", [("inflate", {"p": 2, "s": 0.0, "t": 0.5, "N": [8]}), ("derivative-check", {})]
)
def test_tau_nodes_budget_is_refused_at_parse_time(tmp_path, capsys, command, block):
    # the limit itself parses; the next odd count exits 2 naming the limit, before any compute_Ap
    at_limit = write_config(tmp_path, {command: {**block, "tau_nodes": MAX_TAU_NODES}})
    assert parse_config([command, "--config", at_limit]).params["tau_nodes"] == MAX_TAU_NODES
    over = write_config(tmp_path, {command: {**block, "tau_nodes": MAX_TAU_NODES + 2}}, "over.json")
    message = f"{command} tau_nodes {MAX_TAU_NODES + 2} is above the limit {MAX_TAU_NODES}"
    with pytest.raises(ConfigError, match=f"^{message}$"):
        parse_config([command, "--config", over])
    assert main([command, "--config", over, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "block, message",
    [
        # 65 x _fast_length(3 (1e6 - 1) 63 + 1) and 65 x _fast_length(3 (1e7 - 1) + 1) term entries
        ({"p": 10**6}, "4113281250"),
        ({"dxi": 1e-7}, "1950000000"),
        # 1573 x 1999 entries would fit the limit, 1573 x _fast_length(1999) = 1573 x 2000 do not
        ({"p": 2, "dxi": 0.001, "tau_nodes": 1573}, "3146000"),
        # offsets up to 3 (1e14 + 1) 64: the nodes o * dxi need every o exact in a float
        ({"N": [8, 1e14]}, "inflate node offsets reach p (max N + 1)/dxi = 19200000000000192 >= 2^53, "
         "where a float no longer holds every integer"),
        # 1,749,600 term entries and offsets up to 170 x 101 x 2048 fit, but the 171 disjoint term ranges of
        # 170 x 2047 + 1 nodes fill 59,506,461 nodes
        ({"p": 170, "N": [100], "dxi": 1.0 / 2048, "tau_nodes": 5}, "inflate asks for 59506461 nodes in a row, "
         f"the union of the p + 1 term ranges; limit {MAX_ROW_NODES}"),
        ({"p": 10**12, "dxi": 1.0}, "inflate asks for 1000000000001 nodes in a row, the union of the p + 1 term "
         f"ranges; limit {MAX_ROW_NODES}"),
        # p = 171 at dxi = 1 fits every array (172 nodes); p! is never computed
        ({"p": 171, "dxi": 1.0}, "inflate p = 171: A_p carries the factor p!, which is above the largest float "
         "from p = 171"),
    ],
    ids=["p-1e6", "dxi-1e-7", "fast-length", "offsets-past-2^53", "row-nodes", "row-nodes-p-1e12", "p-factorial"],
)
def test_inflate_row_budgets_exit_2_at_parse_time(tmp_path, capsys, block, message):
    if message.isdigit():
        message = (
            f"inflate asks for {message} term entries, tau_nodes x _fast_length(p (1/dxi - 1) + 1); "
            f"limit {MAX_TERM_ENTRIES}"
        )
    cfg_path = write_config(tmp_path, {"inflate": {"p": 3, "s": -0.5, "t": 0.5, "N": [8], **block}})
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(["inflate", "--config", cfg_path])
    start = time.perf_counter()
    assert main(["inflate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_inflate_row_admits_n_1e9_at_p_3(tmp_path):
    # a row needs no grid, so its cost does not depend on N; the offsets 3 (1e9 + 1) 64 are exact floats,
    # and p = 170 is the largest p whose p! is a float
    cfg_path = write_config(tmp_path, {"inflate": {"p": 3, "s": -0.5, "t": 0.5, "N": [10**9]}})
    start = time.perf_counter()
    assert main(["inflate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert time.perf_counter() - start < 1.0
    row = json.loads((tmp_path / "out" / "inflate.json").read_text())["rows"][0]
    assert row["N"] == 10**9 and 0 < row["ratio"] < math.inf
    at_p_limit = write_config(tmp_path, {"inflate": {"p": 170, "s": -0.5, "t": 0.5, "N": [8], "dxi": 1.0}}, "p.json")
    assert parse_config(["inflate", "--config", at_p_limit]).params["p"] == 170
    # at N = 1 the 171 term ranges of the row-nodes case above overlap: 170 x (3 x 2048 - 1) + 347,991 nodes
    overlapping = {"p": 170, "s": -0.5, "t": 0.5, "N": [1], "dxi": 1.0 / 2048, "tau_nodes": 5}
    assert parse_config(["inflate", "--config", write_config(tmp_path, {"inflate": overlapping}, "o.json")])


@pytest.mark.parametrize("block", [{"p": 5, "N": [1]}, {"p": 3, "N": [2, 8]}], ids=["overlapping", "disjoint"])
def test_inflate_row_node_budget_is_the_count_the_row_fills(tmp_path, monkeypatch, block):
    # the largest N fills the most nodes, and MAX_ROW_NODES admits exactly that count, overlapping terms included
    import imbq.cli

    filled, compute_ap = [], inflation_module.compute_Ap
    monkeypatch.setattr(
        inflation_module, "compute_Ap", lambda d, *a: filled.append(d.grid.node_count) or compute_ap(d, *a)
    )
    cfg_path = write_config(tmp_path, {"inflate": {"s": -0.5, "t": 0.5, "dxi": 0.0625, "tau_nodes": 33, **block}})
    assert main(["inflate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    assert len(filled) == len(block["N"]) and filled == sorted(filled)
    monkeypatch.setattr(imbq.cli, "MAX_ROW_NODES", filled[-1])
    parse_config(["inflate", "--config", cfg_path])
    monkeypatch.setattr(imbq.cli, "MAX_ROW_NODES", filled[-1] - 1)
    with pytest.raises(ConfigError, match=f"^inflate asks for {filled[-1]} nodes in a row"):
        parse_config(["inflate", "--config", cfg_path])


@pytest.mark.parametrize(
    "block",
    [
        # r > 1, so r^{-(p-1)/2} underflows: a window of 0
        {"p": 1001, "T": 0.1, "nodes": 64, "data": {"kind": "gaussian", "amplitude": 50.0}},
        # a window of ~1.2e-4, about 17,000 windows over T = 2
        {"p": 2, "T": 2.0, "nodes": 64, "data": {"kind": "gaussian", "amplitude": 1e6}},
    ],
    ids=["underflow", "many-windows"],
)
def test_solve_data_window_budget_exits_3_at_once(tmp_path, capsys, block):
    cfg_path = write_config(tmp_path, {"solve": block})
    start = time.perf_counter()
    assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: a window of ")
    assert f"limit {MAX_SOLVE_WINDOWS}" in err and "Traceback" not in err


def test_plain_value_error_of_a_run_exits_3(tmp_path, capsys, monkeypatch):
    import imbq.cli

    def failing(cfg):
        raise ValueError("a numerical failure")

    monkeypatch.setitem(imbq.cli._RUNNERS, "solve", failing)
    cfg_path = write_config(tmp_path, {"solve": {"p": 2, "T": 1.0}})
    assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == "error: a numerical failure\n"


@pytest.mark.parametrize(
    "command, block, key",
    [
        # t**3 in symbols._derivative_scale overflows for t above ~5.6e102
        ("lemma-check", {"t_values": [1e120], "corpus_size": 1}, "t_values"),
        # eps**p underflows to 0 in inflation._solver_residual, or eps**p overflows
        ("derivative-check", {"eps": 1e-200, "N": 2}, "eps"),
        ("derivative-check", {"eps": 1e200, "N": 2}, "eps"),
    ],
    ids=["t-overflow", "eps-underflow", "eps-overflow"],
)
def test_out_of_range_inputs_exit_2_at_once(tmp_path, capsys, command, block, key):
    cfg_path = write_config(tmp_path, {command: block})
    start = time.perf_counter()
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {command} {key} ")


@pytest.mark.parametrize(
    "error, cause",
    [(OverflowError(34, "Numerical result out of range"), "Numerical result out of range"),
     (ZeroDivisionError("float division by zero"), "division by zero")],
    ids=["overflow", "zero-division"],
)
def test_arithmetic_error_of_a_run_exits_3(tmp_path, capsys, monkeypatch, error, cause):
    import imbq.cli

    def failing(cfg):
        raise error

    monkeypatch.setitem(imbq.cli._RUNNERS, "derivative-check", failing)
    cfg_path = write_config(tmp_path, {"derivative-check": {"N": 2}})
    assert main(["derivative-check", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and cause in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, block",
    [
        ("solve", {"p": 2, "T": 1.0, "nodes": 65}),  # make_grid: odd node count
        ("solve", {"p": 2, "T": 1.0, "data": {"kind": "boxes", "N": 100}}),  # make_ip_data: box off the grid
        ("solve", {"p": 2, "T": 1.0, "data": {"kind": "cosine", "k": 0.3}}),  # k off the grid
        ("inflate", {"p": 2, "s": 0.0, "t": 0.5, "N": [8], "tau_nodes": 32}),  # QuadratureConfig
        ("inflate", {"p": 2, "s": 0.0, "t": 0.5, "N": [8, 8.0]}),  # repeated N
        ("derivative-check", {"dxi": 0.3}),  # QuadratureConfig: dxi does not divide 1
        ("lemma-check", {"corpus_nodes": 65}),  # make_grid, before any seminorm
        ("inflate", {"p": 2, "s": 0.0, "t": 0.5, "N": [8], "dxi": 1e9}),  # QuadratureConfig: 1/dxi rounds to 0
    ],
)
def test_parameter_errors_found_by_the_library_exit_2(tmp_path, capsys, command, block):
    cfg_path = write_config(tmp_path, {command: block})
    start = time.perf_counter()
    assert main([command, "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize(
    "key, value",
    [("picard_tol", 1e-12), ("max_iterations", 50), ("quadrature_nodes", 32), ("window_safety", 0.1),
     ("max_window_halvings", 5)],
)
def test_retired_solver_keys_exit_2_naming_the_key(tmp_path, capsys, key, value):
    # the Picard and window controls are solver module constants, not config keys
    cfg_path = write_config(tmp_path, {"solve": {"p": 2, "T": 1.0, key: value}})
    assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: unknown key(s) in 'solve' block: {key}\n"
    assert not (tmp_path / "out").exists()


def test_solve_sample_time_above_T_exits_2_naming_it(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"solve": {"p": 2, "T": 1.0, "nodes": 64, "sample_times": [0, 0.5, 100]}})
    assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "sample_times entry 100.0 is above T = 1.0" in err
    assert not (tmp_path / "out").exists()


def test_every_benchmark_config_parses(tmp_path, monkeypatch):
    # a schema edit that breaks a benchmark workload fails here, not only in the benchmark
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # its dataclass looks itself up there
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        for i, (command, payload) in enumerate(workload.configs(seed=101)):
            cfg = parse_config([command, "--config", write_config(tmp_path, payload, f"{workload.name}-{i}.json")])
            assert cfg.command == command
    # perfbench's self-test runs inflate with these two keys
    assert {"tau_nodes", "dxi"} <= set(SCHEMAS["inflate"])


_SCHEMA_KEYS = sorted(TOP_LEVEL_KEYS | {k for s in (*SCHEMAS.values(), *DATA_SCHEMAS.values()) for k in s} | {"kind"})
_KEYS = st.sampled_from(_SCHEMA_KEYS) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([*DATA_SCHEMAS, *COMMANDS]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=10,
)
# numbers first (most fields are numeric), with the edges JSON can carry: inf, nan, ints past float range
_FIELD = st.sampled_from([math.inf, -math.inf, math.nan, 10**400]) | st.floats() | st.integers() | _JSON
_MINIMAL = {"solve": {"p": 2, "T": 1.0}, "inflate": {"p": 2, "s": 0.0, "t": 0.5, "N": [8]}}


def _one_key(base, schema, value):
    """A valid block with one of the schema's keys set to a drawn value."""
    return st.sampled_from(sorted(schema)).flatmap(lambda k: value(k).map(lambda v: {**base, k: v}))


_DATA = st.sampled_from(sorted(DATA_SCHEMAS)).flatmap(
    lambda kind: _one_key({"kind": kind}, DATA_SCHEMAS[kind], lambda k: _FIELD)
)


def _block(command):
    # besides arbitrary JSON, valid blocks with one arbitrary value, so that it reaches its validator
    value = lambda k: _JSON | _DATA if k == "data" else _FIELD
    return _JSON | _one_key(_MINIMAL.get(command, {}), SCHEMAS[command], value)


_COMMAND_BLOCKS = st.sampled_from(COMMANDS).flatmap(lambda c: st.tuples(st.just(c), _block(c)))
_TOP = st.fixed_dictionaries({}, optional={k: _JSON for k in sorted(TOP_LEVEL_KEYS - set(SCHEMAS))}) | st.dictionaries(
    _KEYS, _JSON, max_size=3
)


def _floats_in(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, list):
        for v in value:
            yield from _floats_in(v)
    elif isinstance(value, dict):
        for v in value.values():
            yield from _floats_in(v)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=_COMMAND_BLOCKS, top=_TOP)
def test_parse_config_raises_only_config_error(tmp_path_factory, case, top):
    # arbitrary JSON as the command block and as top-level keys: a RunConfig
    # holding only finite floats, or a ConfigError, never anything else
    command, block = case
    path = tmp_path_factory.getbasetemp() / "property.json"
    for payload in ({command: block}, {**top, command: block}, top):
        path.write_text(json.dumps(payload))
        try:
            cfg = parse_config([command, "--config", str(path)])
        except ConfigError:
            continue
        assert isinstance(cfg, RunConfig)
        assert all(math.isfinite(v) for v in _floats_in(cfg.params))


def test_parse_reports_json_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"inflate": }')
    with pytest.raises(ConfigError, match=r"broken\.json:1:13"):
        parse_config(["inflate", "--config", str(path)])


def _non_utf8(path):
    path.write_bytes(b'{"solve": {"p": 2, "T": 0.1, "data": "\xff"}}')


def _directory(path):
    path.mkdir()


def _huge_int(path):
    path.write_text('{"solve": {"p": ' + "9" * 5000 + ', "T": 0.1}}')


@pytest.mark.parametrize("make", [_non_utf8, _directory, _huge_int], ids=["non-utf8", "directory", "huge-int"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, make):
    path = tmp_path / "cfg.json"
    make(path)
    with pytest.raises(ConfigError, match=r"cannot read config file .*cfg\.json"):
        parse_config(["solve", "--config", str(path)])
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "cfg.json" in err and "Traceback" not in err


def test_missing_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        parse_config([])
    assert exc.value.code == 2


def test_flags_override_file(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {"out": "fromfile", "jobs": 2, "inflate": {"p": 2, "s": -0.5, "t": 0.5, "N": [16]}},
    )
    cfg = parse_config(["inflate", "--config", cfg_path, "--out", "fromflag", "--jobs", "4"])
    assert cfg.out == "fromflag"
    assert cfg.jobs == 4


def test_inflate_end_to_end_with_outputs(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {"inflate": {"p": 2, "s": -0.5, "t": 0.5, "N": [8, 16, 32], "tau_nodes": 33, "dxi": 0.0625}},
    )
    out = tmp_path / "run"
    code = main(["inflate", "--config", cfg_path, "--out", str(out), "--plot"])
    assert code == 0
    csv_text = (out / "inflate.csv").read_text()
    assert csv_text.splitlines()[0] == "N,t,p,s,sign,band_lo,band_hi,numerator,denominator,ratio"
    assert len(csv_text.splitlines()) == 4
    summary = json.loads((out / "inflate.json").read_text())
    assert summary["pass"] is True
    assert summary["expected_slope"] == 1.0
    assert "provenance" in summary
    svg = (out / "inflate.svg").read_text()
    assert svg.count("<circle") == 3
    assert "slope" in svg


def test_inflate_deterministic_and_jobs_equivalent(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {"inflate": {"p": 2, "s": -0.5, "t": 0.5, "N": [8, 16, 32], "tau_nodes": 33, "dxi": 0.0625}},
    )
    outs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / name
        assert main(["inflate", "--config", cfg_path, "--out", str(out), "--jobs", jobs, "--plot"]) == 0
        outs.append(out)
    for fname in ("inflate.csv", "inflate.json", "inflate.svg"):
        blobs = [(o / fname).read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]


def test_solve_outputs_and_summary(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        {
            "solve": {
                "p": 2,
                "T": 0.2,
                "nodes": 256,
                "data": {"kind": "gaussian", "amplitude": 0.2, "velocity_amplitude": 0.1},
            }
        },
    )
    out = tmp_path / "solve_run"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "solve window 0" in captured
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 5 * 256  # five sample times, 256 positions each
    sidecar = json.loads((out / "solve.json").read_text())
    assert sidecar["energy"] is not None
    assert len(sidecar["window_edges"]) == len(sidecar["iterations"]) + 1


_HALVING_SOLVE = {
    # window 0 converges in 4 iterations, window 1 needs 5: window 1 is halved, and
    # six windows of 0.25 tile the rest of [0, 2]
    "p": 2,
    "T": 2.0,
    "extent": 8.0,
    "nodes": 64,
    "data": {"kind": "gaussian", "amplitude": 0.05, "velocity_amplitude": 1.0},
    "window": 0.5,
}


@pytest.mark.parametrize(
    "block",
    [
        {"p": 2, "T": 0.5, "nodes": 128, "data": {"kind": "gaussian", "velocity_amplitude": 0.1},
         "sample_times": [0.5, 0.0, 0.26, 0.26]},
        _HALVING_SOLVE,
    ],
    ids=["plain", "halving"],
)
def test_streamed_solve_matches_library_solve(tmp_path, monkeypatch, block):
    if block is _HALVING_SOLVE:  # at most four Picard iterations
        monkeypatch.setattr(solver_module, "MAX_ITERATIONS", 4)
    cfg_path = write_config(tmp_path, {"solve": block})
    out = tmp_path / "cli"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
    p = parse_config(["solve", "--config", cfg_path]).params
    data = gaussian_data(
        make_grid(p["extent"], p["nodes"]), p["data"]["amplitude"], p["data"]["width"],
        p["data"]["velocity_amplitude"],
    )
    scfg = SolverConfig(p=p["p"], sign=p["sign"], horizon=p["T"], window_override=p["window"])
    if block is _HALVING_SOLVE:
        with monkeypatch.context() as no_halving, pytest.raises(ConvergenceError) as exc:
            # window 0 runs on 9 and 17 nodes and window 1 fails, so a budget of four runs stops the
            # march after the first halved window
            no_halving.setattr(solver_module, "MAX_SOLVE_WINDOWS", 4)
            solve(data, scfg)
        assert exc.value.window_index == 2 and "(the last rejected: window 1 ([0.5, 1]) failed: " in str(exc.value)
    traj = solve(data, scfg)
    times = p["sample_times"] or np.linspace(0.0, p["T"], 5).tolist()
    # the rows at the requested times are the march's Duhamel evaluations there, as in the library
    marched = solver_module._march(data, scfg, True, lambda *rows: None, sorted({*times, p["T"]}))
    write_trajectory_csv(str(tmp_path / "lib.csv"), marched.sampled, times)
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
    assert [float(row.split(",")[0]) for row in (out / "trajectory.csv").read_text().splitlines()[1 :: p["nodes"]]] == times
    # the printed states are library solve's: the data at t = 0 and its end state at T
    for got, want in zip((*marched.sampled.state(0), *marched.sampled.final()), (data.u0, data.u1, *traj.final())):
        assert sobolev_norm(got - want, 0.0) <= 1e-12 * sobolev_norm(want, 0.0)
    sidecar = json.loads((out / "solve.json").read_text())
    assert sidecar["sample_times"] == traj.times.tolist()
    assert sidecar["window_edges"] == list(traj.window_edges)
    assert sidecar["iterations"] == [r.iterations for r in traj.window_reports]
    assert sidecar["quadrature_estimates"] == [r.quadrature_estimate for r in traj.window_reports]
    assert sidecar["window_rule"]["halvings"] == traj.halvings == (block is _HALVING_SOLVE)
    expected = energy_series(traj, p["p"], p["sign"])
    assert len(sidecar["energy"]) == len(expected)
    assert np.max(np.abs(np.array(sidecar["energy"]) - expected) / np.abs(expected)) <= 1e-14


@pytest.mark.parametrize("n", [22, 27, 29, 85])
def test_solve_prints_the_requested_times_exactly(tmp_path, n):
    # node j of window k is stamped (32k + j) T / (32n), so each quarter of T is a node, printed exactly
    cfg_path = write_config(tmp_path, {"solve": {"p": 2, "T": 20.0, "nodes": 64, "window": 20.0 / n}})
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg_path, "--out", str(out)]) == 0
    assert len(json.loads((out / "solve.json").read_text())["iterations"]) == n
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    assert list(dict.fromkeys(row.split(",")[0] for row in rows)) == ["0.0", "5.0", "10.0", "15.0", "20.0"]


def test_solve_records_how_its_windows_were_sized(tmp_path, capsys):
    # focusing data: the probe's contraction sizes ten windows of 9 nodes, window 6 misses the
    # quadrature target and reruns itself on 17, and windows 7-9 start on 17
    block = {"p": 3, "sign": -1, "T": 3.0, "nodes": 64, "data": {"kind": "gaussian", "amplitude": 3.0}}
    cfg_path = write_config(tmp_path, {"solve": block})
    outputs = []
    for run in ("a", "b"):
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / run)]) == 0
        outputs.append([(tmp_path / run / name).read_bytes() for name in ("solve.json", "trajectory.csv")])
    assert outputs[0] == outputs[1]
    sidecar = json.loads(outputs[0][0])
    rule = sidecar["window_rule"]
    assert rule["window"] == 3.0 / 10 and rule["quadrature_target"] == 1e-8
    assert rule["probe"]["window"] == 3.0 / 66 and 0 < rule["probe"]["contraction_ratio"] < 1e-2
    assert rule["contraction_target"] == 1e-2 and rule["halvings"] == 0
    assert sidecar["nodes"] == [9] * 6 + [17] * 4
    [rejected] = sidecar["rejected"]
    assert (rejected["start"], rejected["window"], rejected["nodes"]) == (sidecar["window_edges"][6], 3.0 / 10, 9)
    assert rejected["quadrature_estimate"] > 1e-8 and rejected["difference_norms"][-1] < 1e-12
    assert len(sidecar["quadrature_estimates"]) == 10 and max(sidecar["quadrature_estimates"]) <= 1e-8
    assert len(sidecar["energy"]) == len(sidecar["sample_times"]) == 6 * 8 + 4 * 16 + 1
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("solve window rule: ")]
    assert lines[-1].startswith("solve window rule: window 0.3 (probe window 0.0454545 contraction ")
    estimate = max(sidecar["quadrature_estimates"])
    assert lines[-1].endswith(f"nodes 9 to 17, largest estimate {estimate:.3e}, rejected runs 1, halvings 0")


def test_rejected_run_leaves_no_rows_in_the_outputs(tmp_path):
    # the sized march of these data reruns window 6 of ten on 17 nodes; the rejected run on 9 nodes
    # streams nothing, so the outputs equal those of the run set to the same ten windows, which reruns
    # window 6 the same way
    block = {"p": 3, "sign": -1, "T": 3.0, "nodes": 64, "data": {"kind": "gaussian", "amplitude": 3.0}}
    outputs = []
    for run, extra in (("sized", {}), ("set", {"window": 3.0 / 10})):
        cfg_path = write_config(tmp_path, {"solve": {**block, **extra}}, name=f"{run}.json")
        assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / run)]) == 0
        sidecar = json.loads((tmp_path / run / "solve.json").read_text())
        assert len(sidecar["iterations"]) == 10 and len(sidecar["rejected"]) == 1
        outputs.append(((tmp_path / run / "trajectory.csv").read_bytes(), sidecar["energy"], sidecar["window_rule"]))
    assert outputs[0][2]["probe"] is not None and outputs[1][2]["probe"] is None
    assert outputs[0][:2] == outputs[1][:2]


def test_focusing_march_exits_3_naming_the_t_it_reached(tmp_path, capsys):
    # the focusing reproducer: windows shrink towards the blow-up near t = 4.579 until a halved one
    # would be shorter than max(sqrt(eps) t, eps T)
    block = {"p": 3, "sign": -1, "T": 50.0, "nodes": 64, "data": {"kind": "gaussian", "amplitude": 3.0}}
    cfg_path = write_config(tmp_path, {"solve": block})
    assert main(["solve", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: window ") and "Traceback" not in err
    assert err.rstrip().endswith("halved, it would be shorter than max(sqrt(eps) t, eps T = 1.11e-14); the march reached t = 4.57746")


def test_solve_nonconvergence_exits_3_naming_window(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver_module, "MAX_SOLVE_WINDOWS", 1)  # no run after window 0 fails
    monkeypatch.setattr(solver_module, "MAX_ITERATIONS", 6)
    cfg_path = write_config(
        tmp_path,
        {
            "solve": {
                "p": 2,
                "T": 1.0,
                "nodes": 256,
                "data": {"kind": "gaussian", "amplitude": 5.0, "width": 2.0},
                "window": 1.0,
            }
        },
    )
    code = main(["solve", "--config", cfg_path, "--out", str(tmp_path / "x")])
    assert code == 3
    assert "window 0" in capsys.readouterr().err


def test_solve_power_overflow_exits_3(tmp_path, capsys, monkeypatch):
    # the pointwise power overflows inside every Picard window of these data, so window 0 halves until
    # it would be shorter than eps T: a non-convergence (exit 3), not a traceback, after 51 window runs
    # from 2^-1 down to 2^-51 (with the smallest normal float as the floor it took 1,021)
    windows = []

    def counted(d, window, *args, **kwargs):
        windows.append(window)
        return picard_window(d, window, *args, **kwargs)

    monkeypatch.setattr(solver_module, "picard_window", counted)
    cfg_path = write_config(
        tmp_path,
        {
            "solve": {
                "p": 3,
                "sign": -1,
                "T": 1.0,
                "nodes": 64,
                "data": {"kind": "gaussian", "amplitude": 1e120},
                "window": 0.5,
            }
        },
    )
    code = main(["solve", "--config", cfg_path, "--out", str(tmp_path / "x")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: window 0 ")
    assert "overflowed" in err and err.rstrip().endswith("the march reached t = 0")
    assert len(windows) <= 60 and windows[-1] > np.finfo(float).eps


def test_dispersion_command(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"dispersion": {"k": [1.0], "T": 10.0, "dt": 0.005}})
    out = tmp_path / "disp"
    assert main(["dispersion", "--config", cfg_path, "--out", str(out), "--plot"]) == 0
    assert "fitted omega=0.70710678" in capsys.readouterr().out
    report = json.loads((out / "dispersion.json").read_text())
    assert report["rows"][0]["rel_error"] < 1e-6
    assert (out / "dispersion.svg").exists()


def test_derivative_check_command(tmp_path):
    cfg_path = write_config(
        tmp_path, {"derivative-check": {"p": 2, "N": 8, "t": 0.3, "eps": 1e-3, "dxi": 0.03125}}
    )
    out = tmp_path / "deriv"
    assert main(["derivative-check", "--config", cfg_path, "--out", str(out)]) == 0
    payload = json.loads((out / "derivative.json").read_text())
    assert payload["relative_error"] <= 5e-3
    assert 1.5 <= payload["halving_ratio"] <= 2.5


def test_lemma_check_command(tmp_path):
    cfg_path = write_config(
        tmp_path,
        {"lemma-check": {"resolution": 60, "corpus_size": 10, "t_values": [0.5, 1.0]}},
    )
    out = tmp_path / "lemma"
    assert main(["lemma-check", "--config", cfg_path, "--out", str(out)]) == 0
    besov = (out / "besov.csv").read_text().splitlines()
    assert besov[0] == "symbol,t,seminorm,resolution,converged"
    assert len(besov) == 1 + 1 + 2 * 2  # m1 plus (m2, m3) per t
    summary = json.loads((out / "lemma.json").read_text())
    assert summary["hs_violations"] == 0
    assert summary["pass"] is True


def test_lemma_and_dispersion_provenance_names_importable_functions(tmp_path):
    runs = (
        ("lemma-check", {"resolution": 20, "corpus_size": 2, "t_values": [0.5, 1.0]}, "lemma.json"),
        ("dispersion", {"k": [1.0, 10.0], "T": 5.0, "dt": 0.01}, "dispersion.json"),
    )
    for command, block, sidecar in runs:
        out = tmp_path / command
        assert main([command, "--config", write_config(tmp_path, {command: block}), "--out", str(out)]) == 0
        provenance = json.loads((out / sidecar).read_text())["provenance"]
        for names in provenance.values():
            for name in names.split(" + "):
                module, _, attr = name.rpartition(".")
                assert module.startswith("imbq") and hasattr(importlib.import_module(module), attr), name


def test_emit_plot_rejects_empty_report(tmp_path):
    empty = InflationReport(
        p=2, s=-0.5, t=0.5, sign=1, rows=(), slope=None, intercept=None, residual=None,
        expected_slope=1.0,
    )
    target = tmp_path / "plot.svg"
    with pytest.raises(ValueError):
        emit_plot(empty, str(target))
    assert not target.exists()
    empty_disp = DispersionReport(rows=(), trace_k=1.0, trace_times=(), trace_values=())
    with pytest.raises(ValueError):
        emit_plot(empty_disp, str(target))


def test_emit_plot_dispersion_markers(tmp_path):
    rows = (DispersionRow(k=1.0, fitted_omega=0.7071, expected_omega=0.70710678),)
    ts = tuple(0.5 * i for i in range(9))
    vals = tuple(float(__import__("numpy").cos(0.7071 * t)) for t in ts)
    report = DispersionReport(rows=rows, trace_k=1.0, trace_times=ts, trace_values=vals)
    target = tmp_path / "disp.svg"
    emit_plot(report, str(target))
    assert target.read_text().count("<circle") == 9


def test_console_entry_point_runs():
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]  # the checkout's package, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "imbq", "dispersion", "--out", "/tmp/imbq_cli_smoke"],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p)),
    )
    assert proc.returncode == 0
    assert "dispersion k=100" in proc.stdout
