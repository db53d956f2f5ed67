"""Batch front door: config parsing, experiment orchestration, file emission.

Commands
--------
solve             Picard-solve one Cauchy problem, export trajectory CSV + JSON.
inflate           Inflation-ratio sweep over N, CSV + JSON slope summary.
lemma-check       Multiplier certification: seminorms, kernel sweep, H^s corpus.
dispersion        Fitted mode frequencies against the linear relation.
derivative-check  Solver-vs-derivative cross validation at small amplitude.

Flags: --config <path> (JSON, flags override file), --out <dir>, --jobs <n>
(accepted, with no effect: every command runs in one process), --plot.  Exit
codes: 0 success, 2 config error (a ConfigError), 3 numerical failure
(non-convergence, or any other ArithmeticError, ValueError or RuntimeError of
a run).

The runner performs no mathematics itself: every number in its outputs is
produced by one library operation, named in the JSON provenance fields.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import inflation, reports, solver, svgplot, symbols
from .grid import (
    SUP_NORM_OVERSAMPLE,
    _dealiased_node_count,
    _fast_length,
    _padded_node_count,
    lambda_symbol,
    make_grid,
    random_real_field,
    sobolev_norm,
)
from .inflation import QuadratureConfig
from .solver import SolverConfig
from .symbols import Symbol

__all__ = ["RunConfig", "ConfigError", "parse_config", "run", "emit_plot", "main", "console_main"]

COMMANDS = ("solve", "inflate", "lemma-check", "dispersion", "derivative-check")


class ConfigError(ValueError):
    """Invalid or incomplete run configuration (exit code 2)."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    out: str
    jobs: int
    seed: int
    plot: bool
    params: dict


# ----------------------------------------------------------------------
# schemas: field -> (default or REQUIRED, validator)

REQUIRED = object()


def _as_float(v):
    """``v`` as a finite float, or None if it is not a finite number."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return None
    try:
        v = float(v)
    except OverflowError:  # an int beyond the float range
        return None
    return v if math.isfinite(v) else None


def _typed(kind, cond=None, desc=""):
    def check(value):
        v = _as_float(value) if kind is float else value
        if not isinstance(v, kind) or isinstance(v, bool) and kind is not bool:
            raise ConfigError(f"expected {'finite ' if kind is float else ''}{kind.__name__}{desc}, got {value!r}")
        if cond is not None and not cond(v):
            raise ConfigError(f"value {v!r} out of range{desc}")
        return v

    return check


def _number_list(cond=None):
    def check(v):
        if not isinstance(v, list) or not v:
            raise ConfigError(f"expected a non-empty list, got {v!r}")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v):
            raise ConfigError(f"expected a list of numbers, got {v!r}")
        out = [_as_float(x) for x in v]
        if not all(x is not None and (cond is None or cond(x)) for x in out):
            raise ConfigError(f"list values out of range: {v!r}")
        return out

    return check


def _int_ge(lo):
    return _typed(int, lambda v: v >= lo, f" (>= {lo})")


def _pos_float():
    return _typed(float, lambda v: v > 0, " (> 0)")


def _nullable(check):
    return lambda v: None if v is None else check(v)


_P_FIELD = (REQUIRED, _typed(int, lambda v: v >= 2, " (the power p must be an integer >= 2)"))

DATA_SCHEMAS = {
    "gaussian": {
        "amplitude": (0.2, _pos_float()),
        "width": (1.0, _pos_float()),
        "velocity_amplitude": (0.0, _typed(float)),
    },
    "cosine": {"k": (1.0, _pos_float()), "amplitude": (1.0, _pos_float())},
    "boxes": {"N": (8, _int_ge(1)), "scale": (1.0, _pos_float())},
}

SCHEMAS = {
    "solve": {
        "p": _P_FIELD,
        "sign": (1, _typed(int, lambda v: v in (1, -1), " (+1 or -1)")),
        "T": (REQUIRED, _pos_float()),
        "s": (0.0, _typed(float, lambda v: v >= 0, " (>= 0)")),
        "extent": (16.0, _pos_float()),
        "nodes": (512, _int_ge(8)),
        "data": ({"kind": "gaussian"}, None),
        "window": (None, _nullable(_pos_float())),
        "sample_times": (None, _nullable(_number_list(lambda v: v >= 0))),
    },
    "inflate": {
        "p": _P_FIELD,
        "s": (REQUIRED, _typed(float)),
        "t": (REQUIRED, _pos_float()),
        "N": (REQUIRED, _number_list(lambda v: v >= 1 and v == int(v))),
        "sign": (1, _typed(int, lambda v: v in (1, -1), " (+1 or -1)")),
        "tau_nodes": (65, _int_ge(5)),
        "dxi": (1.0 / 64.0, _pos_float()),
        "slope_tol": (0.2, _pos_float()),
    },
    "lemma-check": {
        "t_values": ([0.5, 1.0, 2.0, 4.0], _number_list(lambda v: v > 0)),
        "resolution": (160, _int_ge(10)),
        "corpus_size": (100, _int_ge(1)),
        "corpus_extent": (16.0, _pos_float()),
        "corpus_nodes": (256, _int_ge(8)),
        "kernel_offsets": ([-100, -30, -10, -3, -1, 0, 1, 3, 10, 30, 100], _number_list()),
    },
    "dispersion": {
        "k": ([1.0, 10.0, 100.0], _number_list(lambda v: v > 0)),
        "T": (20.0, _pos_float()),
        "dt": (2e-3, _pos_float()),
    },
    "derivative-check": {
        "p": (2, _P_FIELD[1]),
        "N": (8, _int_ge(1)),
        "t": (0.3, _pos_float()),
        "eps": (1e-3, _pos_float()),
        "tau_nodes": (65, _int_ge(5)),
        "dxi": (1.0 / 64.0, _pos_float()),
    },
}

TOP_LEVEL_KEYS = {"command", "out", "jobs", "seed", "plot"} | set(SCHEMAS)

# work budget of the dispersion command: amplitude samples over all modes, len(k) x (n_steps // stride + 1)
# with n_steps, stride of solver._rk4_steps; the cost does not grow with the RK4 step count
MAX_DISPERSION_SAMPLES = 10**6
# work budgets of lemma-check: a run computes 1 + 2 len(t_values) seminorms in one batch, each
# ~resolution^2 (on one core of a 2-vCPU x86 container the nine default ones take 0.09 s at 160 and 35 s
# at 2560, one m3 alone 0.026 s and 12 s); the H^s corpus costs ~corpus_size * corpus_nodes (~0.5 ms per
# 256-node field)
MAX_BESOV_RESOLUTION = 2560
MAX_BESOV_WORK = 9 * MAX_BESOV_RESOLUTION**2  # the nine default seminorms at the largest resolution
MAX_CORPUS_NODES = 10**7
# work budget of the Picard solver (solve, derivative-check): the nodes of one dealiased row,
# grid._dealiased_node_count(nodes, p)
MAX_SOLVE_PADDED_NODES = 2**20
# work budget of inflate and derivative-check: the tau nodes of compute_Ap, each a row of the box-power
# transforms; at this limit a p = 3 call at N = 32, dxi = 1/64 peaks at 192 MB maxrss (p = 5: 321 MB), on
# its grid_for_boxes grid or on the term ranges of an inflate row alike
MAX_TAU_NODES = 2**13 + 1
# work budgets of an inflate row, which needs no grid: its terms' tau_nodes x _fast_length(p (1/dxi - 1) + 1)
# entries, and the nodes it fills, the union of its p + 1 term ranges. A row peaks at 353 MB maxrss at the entry
# limit (p = 3, tau_nodes 1023, dxi = 1/1024; 404 MB at p = 2, 767, 1/2048), at 258 MB at 3,692,061 nodes (p = 170,
# dxi = 1/128, N = 100) and at 514 MB at both (p = 6, dxi = 1/99860, tau_nodes 5); MAX_TAU_NODES fits p <= 5 at 1/64
MAX_TERM_ENTRIES = 3 * 2**20
MAX_ROW_NODES = 2**22


def _check_padded_row(command: str, nodes: int, p: int):
    least = -(-nodes * (p + 1) // 2)  # in integers: p may exceed any float
    if least > MAX_SOLVE_PADDED_NODES:
        raise ConfigError(
            f"{command} asks for at least {least} dealiased nodes per row; limit {MAX_SOLVE_PADDED_NODES}"
        )
    padded = _dealiased_node_count(nodes, p)  # the row the solver allocates
    if padded > MAX_SOLVE_PADDED_NODES:
        raise ConfigError(f"{command} asks for {padded} dealiased nodes per row; limit {MAX_SOLVE_PADDED_NODES}")


def _check_inflate_row(p: int, tau_nodes: int, dxi: float, n_max: int):
    """The budgets of an inflate row, in integers (p may exceed any float): its term arrays, its node
    offsets, which a float must hold exactly, the nodes it fills, and p!, a factor of A_p."""
    num, den = dxi.as_integer_ratio()
    bins = (2 * den + num) // (2 * num)  # 1/dxi to the nearest integer
    width = p * (bins - 1) + 1  # of each term range (inflation._term_starts)
    entries = tau_nodes * _fast_length(width)
    if entries > MAX_TERM_ENTRIES:
        raise ConfigError(
            f"inflate asks for {entries} term entries, tau_nodes x _fast_length(p (1/dxi - 1) + 1); "
            f"limit {MAX_TERM_ENTRIES}"
        )
    if p * (n_max + 1) * bins >= 2**53:
        raise ConfigError(
            f"inflate node offsets reach p (max N + 1)/dxi = {p * (n_max + 1) * bins} >= 2^53, "
            "where a float no longer holds every integer"
        )
    nodes = p * min(width, (2 * n_max + 1) * bins - 1) + width  # the term starts step by (2N + 1)/dxi - 1
    if nodes > MAX_ROW_NODES:
        raise ConfigError(f"inflate asks for {nodes} nodes in a row, the union of the p + 1 term ranges; "
                          f"limit {MAX_ROW_NODES}")
    if p > 170:
        raise ConfigError(f"inflate p = {p}: A_p carries the factor p!, which is above the largest float from p = 171")


def _extraction_in_range(eps: float, p: int) -> bool:
    """Whether the scale p!/e**p of inflation._solver_residual, at e = eps and eps/2, is finite with e**p normal."""
    try:
        return all(e**p >= sys.float_info.min and math.isfinite(math.factorial(p) / e**p) for e in (eps, eps / 2))
    except OverflowError:  # e**p, or a p! beyond the float range
        return False


def _fill(schema: dict, block: dict, where: str, extra=frozenset()) -> dict:
    """Every ``schema`` key's checked value from ``block``, or its default; ``where`` names the block in errors."""
    unknown = set(block) - set(schema) - extra
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    out = {}
    for key, (default, check) in schema.items():
        if key in block:
            out[key] = block[key] if check is None else check(block[key])
        elif default is REQUIRED:
            raise ConfigError(f"{where} is missing required key '{key}'")
        else:
            out[key] = default
    return out


def _validate_block(command: str, block) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"'{command}' block must be a JSON object, got {block!r}")
    out = _fill(SCHEMAS[command], block, f"'{command}' block")
    if out.get("tau_nodes", 0) > MAX_TAU_NODES:
        raise ConfigError(f"{command} tau_nodes {out['tau_nodes']} is above the limit {MAX_TAU_NODES}")
    if command == "solve":
        out["data"] = _validate_data(out["data"])
        _check_padded_row(command, out["nodes"], out["p"])
        windows = 1.0 if out["window"] is None else out["T"] / out["window"]  # may be inf
        if windows - 1e-12 > solver.MAX_SOLVE_WINDOWS:  # set windows; solver._march checks the rest
            raise ConfigError(f"solve T/window asks for {windows:.6g} windows; the limit is {solver.MAX_SOLVE_WINDOWS}")
        late = [t for t in out["sample_times"] or () if t > out["T"]]
        if late:
            raise ConfigError(f"solve sample_times entry {late[0]!r} is above T = {out['T']!r}")
    if command == "inflate":
        if len(set(out["N"])) < len(out["N"]):
            raise ConfigError(f"inflate N values must be distinct, got {out['N']}")
        _check_inflate_row(out["p"], out["tau_nodes"], out["dxi"], int(max(out["N"])))
    if command == "derivative-check":
        _check_padded_row(command, inflation._box_grid_nodes(out["N"], out["p"], out["dxi"]), out["p"])
        if not _extraction_in_range(out["eps"], out["p"]):
            raise ConfigError(
                f"derivative-check eps {out['eps']!r}: eps**p or p!/eps**p (p = {out['p']}, at eps and eps/2) "
                "leaves the normal float range"
            )
    if command == "lemma-check":
        if out["resolution"] > MAX_BESOV_RESOLUTION:
            raise ConfigError(f"lemma-check resolution {out['resolution']} is above the limit {MAX_BESOV_RESOLUTION}")
        seminorms = 1 + 2 * len(out["t_values"])
        work = seminorms * out["resolution"] ** 2
        if work > MAX_BESOV_WORK:
            raise ConfigError(
                f"lemma-check asks for {seminorms} seminorms at resolution {out['resolution']}, "
                f"{work} in units of resolution^2; the limit is {MAX_BESOV_WORK}"
            )
        corpus = out["corpus_size"] * out["corpus_nodes"]
        if corpus > MAX_CORPUS_NODES:
            raise ConfigError(
                f"lemma-check corpus_size x corpus_nodes asks for {corpus} field nodes; the limit is {MAX_CORPUS_NODES}"
            )
        try:
            max(out["t_values"]) ** 3  # the m3 tail bound of symbols._derivative_scale
        except OverflowError:
            message = f"lemma-check t_values {out['t_values']}: t**3 overflows a float above ~5.6e102"
            raise ConfigError(message) from None
    if command == "dispersion":
        try:
            n_steps, _, stride = solver._rk4_steps(out["T"], out["dt"])
            samples = len(out["k"]) * float(n_steps // stride + 1)  # may be inf
        except OverflowError:  # T/dt or 0.5/dt is inf
            samples = math.inf
        if samples > MAX_DISPERSION_SAMPLES:
            raise ConfigError(
                f"dispersion asks for {samples:.7g} amplitude samples, len(k) x (round(T/dt) // round(0.5/dt) + 1); "
                f"the limit is {MAX_DISPERSION_SAMPLES}"
            )
    return out


def _validate_data(block) -> dict:
    if not isinstance(block, dict) or "kind" not in block:
        raise ConfigError("solve data block must be an object with a 'kind' key")
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in DATA_SCHEMAS:
        raise ConfigError(f"unknown data kind {kind!r}, expected one of {sorted(DATA_SCHEMAS)}")
    return {"kind": kind, **_fill(DATA_SCHEMAS[kind], block, "data block", {"kind"})}


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Parse the command line (and optional JSON config file) into a RunConfig.

    Flags override file values; unknown keys anywhere are rejected.
    """
    parser = argparse.ArgumentParser(prog="imbq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", default=None, help="JSON config file")
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--jobs", type=int, default=None, help="accepted for old configs; no effect")
        cmd.add_argument("--plot", action="store_true", default=None, help="emit SVG plots")
    args = parser.parse_args(argv)

    file_cfg: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as handle:
                file_cfg = json.load(handle)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"{args.config}:{err.lineno}:{err.colno}: {err.msg}")
        except (OSError, ValueError) as err:  # a directory, bad UTF-8, an int past Python's digit limit
            raise ConfigError(f"cannot read config file {args.config}: {err}") from err
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
    unknown = set(file_cfg) - TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")
    if "command" in file_cfg and file_cfg["command"] != args.command:
        raise ConfigError(
            f"config file names command {file_cfg['command']!r} but {args.command!r} was invoked"
        )
    stray = set(file_cfg) & set(SCHEMAS) - {args.command}
    if stray:
        raise ConfigError(f"config file has block(s) for other command(s): {', '.join(sorted(stray))}")

    out = args.out if args.out is not None else file_cfg.get("out", "out")
    jobs = args.jobs if args.jobs is not None else file_cfg.get("jobs", 0)
    plot = args.plot if args.plot is not None else file_cfg.get("plot", False)
    seed = file_cfg.get("seed", 1234)
    for name, value, kind in (("out", out, str), ("jobs", jobs, int), ("seed", seed, int), ("plot", plot, bool)):
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise ConfigError(f"'{name}' must be {kind.__name__}, got {value!r}")
    if jobs < 0:
        raise ConfigError("jobs must be >= 0 (it has no effect)")
    params = _validate_block(args.command, file_cfg.get(args.command, {}))
    return RunConfig(
        command=args.command, out=out, jobs=jobs, seed=seed, plot=plot, params=params
    )


# ----------------------------------------------------------------------
# plotting (delegation only; the numbers come from the reports)


def emit_plot(report, path: str):
    """Deterministic SVG for an inflation or dispersion report."""
    if not isinstance(report, (inflation.InflationReport, reports.DispersionReport)):
        raise TypeError(f"no plot defined for {type(report).__name__}")
    if not report.rows:
        raise ValueError("empty report: nothing to plot")
    if isinstance(report, inflation.InflationReport):
        text = svgplot.loglog_points_svg(
            [r.N for r in report.rows],
            [r.ratio for r in report.rows],
            report.slope,
            report.intercept,
            title=f"inflation ratio vs N (p={report.p}, s={report.s:g}, t={report.t:g})",
            xlabel="N",
            ylabel="ratio",
        )
    else:
        omega = next(r.fitted_omega for r in report.rows if r.k == report.trace_k)
        dense_t = np.linspace(min(report.trace_times), max(report.trace_times), 400)
        overlay = list(zip(dense_t.tolist(), np.cos(omega * dense_t).tolist()))
        text = svgplot.line_plot_svg(
            report.trace_times,
            report.trace_values,
            overlay=overlay,
            title=f"mode amplitude vs t (k={report.trace_k:g}, fitted omega={omega:.8f})",
            ylabel="Re u_hat(k,t)/u_hat(k,0)",
        )
    reports.atomic_write_text(path, text)


# ----------------------------------------------------------------------
# command bodies


@contextlib.contextmanager
def _from_params():
    """Objects built from the parameters: a ValueError there is a config error (exit 2)."""
    try:
        yield
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _run_solve(cfg: RunConfig) -> int:
    p = cfg.params
    data_spec = p["data"]
    with _from_params():
        grid = make_grid(p["extent"], p["nodes"])
        if data_spec["kind"] == "gaussian":
            data = solver.gaussian_data(
                grid, data_spec["amplitude"], data_spec["width"], data_spec["velocity_amplitude"]
            )
        elif data_spec["kind"] == "cosine":
            data = solver.single_mode_data(grid, data_spec["k"], data_spec["amplitude"])
        else:
            data = inflation.make_ip_data(data_spec["N"], grid).data.scaled(data_spec["scale"])
        scfg = SolverConfig(p=p["p"], sign=p["sign"], horizon=p["T"], s=p["s"], window_override=p["window"])
    times = p["sample_times"] or np.linspace(0.0, p["T"], 5).tolist()
    energies = []

    def take(t, u, ut):
        # every data kind has mean-zero velocity; _energy_matrix raises ValueError (exit 3) otherwise
        energies.append(solver._energy_matrix(u, ut, grid, p["p"], p["sign"]))

    # take keeps only each window's energies; the march evaluates the requested times and T there
    marched = solver._march(data, scfg, True, take, sorted({*times, p["T"]}))
    energies = np.concatenate(energies)
    reports.write_trajectory_csv(os.path.join(cfg.out, "trajectory.csv"), marched.sampled, times)
    reports.write_json(
        os.path.join(cfg.out, "solve.json"),
        reports.trajectory_sidecar(
            marched, {**p, "command": "solve"}, energies,
            {
                "dealiased_row": _dealiased_node_count(grid.node_count, scfg.p),
                "sup_norm_grid": _padded_node_count(grid.node_count, SUP_NORM_OVERSAMPLE),
            },
        ),
    )
    for i, rep in enumerate(marched.reports):
        ratio = "n/a" if rep.contraction_ratio is None else f"{rep.contraction_ratio:.3e}"
        print(
            f"solve window {i}: [{marched.edges[i]:g}, {marched.edges[i + 1]:g}] "
            f"iterations={rep.iterations} contraction={ratio}"
        )
    probe = marched.probe and f"probe window {marched.probe[0]:.6g} contraction {marched.probe[1] or 0.0:.3e}"
    print(
        f"solve window rule: window {marched.reports[0].window_length:.6g} ({probe or 'no probe'}), "
        f"nodes {marched.nodes[0]} to {marched.nodes[-1]}, largest estimate "
        f"{max(r.quadrature_estimate for r in marched.reports):.3e}, rejected runs {len(marched.rejected)}, "
        f"halvings {marched.halvings}"
    )
    final = sobolev_norm(marched.sampled.final()[0], 0.0)
    print(f"solve: final |u|_L2 = {final:.6e} over {len(marched.reports)} window(s)")
    return 0


def _run_inflate(cfg: RunConfig) -> int:
    p = cfg.params
    with _from_params():
        q = QuadratureConfig(tau_nodes=p["tau_nodes"], dxi=p["dxi"])
    report = inflation.ratio_sweep(sorted(int(n) for n in p["N"]), p["p"], p["sign"], p["s"], p["t"], q)
    reports.write_inflation_csv(os.path.join(cfg.out, "inflate.csv"), report)
    reports.write_json(
        os.path.join(cfg.out, "inflate.json"), reports.inflation_summary(report, p["slope_tol"])
    )
    if cfg.plot:
        emit_plot(report, os.path.join(cfg.out, "inflate.svg"))
    for r in report.rows:
        print(f"inflate N={r.N}: ratio={r.ratio:.6e} (numerator {r.numerator:.3e})")
    slope = "n/a" if report.slope is None else f"{report.slope:.4f}"
    print(
        f"inflate: slope={slope} expected={report.expected_slope:g} "
        f"pass={report.passes(p['slope_tol'])}"
    )
    return 0


def _run_lemma_check(cfg: RunConfig) -> int:
    p = cfg.params
    with _from_params():
        grid = make_grid(p["corpus_extent"], p["corpus_nodes"])
    syms = [Symbol("m1")] + [Symbol(name, t) for t in p["t_values"] for name in ("m2_plus", "m3")]
    estimates = symbols.besov_seminorms(syms, resolution=p["resolution"], strict=True)
    reports.write_besov_csv(os.path.join(cfg.out, "besov.csv"), estimates)
    for e in estimates:
        t_str = "-" if e.t is None else f"{e.t:g}"
        print(f"lemma-check seminorm {e.symbol} t={t_str}: {e.value:.6f} converged={e.converged}")

    kernel = symbols.kernel_ratio_sweep(p["kernel_offsets"])
    reports.write_csv(
        os.path.join(cfg.out, "kernel.csv"),
        ["offset", "lhs", "rhs_bound", "ratio"],
        [(d, k.lhs, k.rhs_bound, k.ratio) for d, k in zip(p["kernel_offsets"], kernel)],
    )
    ratios = [k.ratio for k in kernel]
    print(f"lemma-check kernel ratio range: [{min(ratios):.4f}, {max(ratios):.4f}]")

    rng = np.random.default_rng(cfg.seed)
    t_ref = max(p["t_values"])
    violations = 0
    for _ in range(p["corpus_size"]):
        f = random_real_field(grid, rng, decay=rng.uniform(0.5, 2.0))
        s_exp = rng.uniform(-1.0, 2.0)
        base = sobolev_norm(f, s_exp)
        checks = (
            (Symbol("P"), base),
            (Symbol("Q_t", t_ref), base),
            (Symbol("R_t", t_ref), abs(t_ref) * base),
        )
        for sym, bound in checks:
            if sobolev_norm(symbols.apply_symbol(sym, f), s_exp) > bound * (1 + 1e-12):
                violations += 1
    print(f"lemma-check H^s corpus: {violations} violations over {p['corpus_size']} fields")

    m2_vals = {e.t: e.value for e in estimates if e.symbol == "m2_plus"}
    m3_vals = {e.t: e.value for e in estimates if e.symbol == "m3"}
    m2_ratios = [v / t for t, v in m2_vals.items()]
    m3_ratios = [v / max(t, t**3) for t, v in m3_vals.items()]
    summary = {
        "seminorms": [
            {"symbol": e.symbol, "t": e.t, "value": e.value, "converged": e.converged,
             "refinement_change": e.refinement_change, "tail_bound": e.tail_bound}
            for e in estimates
        ],
        "m2_over_t_spread": max(m2_ratios) / min(m2_ratios),
        "m3_over_shape_spread": max(m3_ratios) / min(m3_ratios),
        "kernel_ratio_min": min(ratios),
        "kernel_ratio_max": max(ratios),
        "kernel_ratio_spread": max(ratios) / min(ratios),
        "hs_corpus_size": p["corpus_size"],
        "hs_violations": violations,
        "pass": bool(
            violations == 0
            and max(m2_ratios) / min(m2_ratios) < 4.0
            and max(m3_ratios) / min(m3_ratios) < 4.0
            and max(ratios) / min(ratios) < 10.0
        ),
        "provenance": {
            "seminorms": "imbq.symbols.besov_seminorms",
            "kernel": "imbq.symbols.check_kernel_inequality",
            "hs_corpus": "imbq.symbols.apply_symbol + imbq.grid.sobolev_norm",
        },
    }
    reports.write_json(os.path.join(cfg.out, "lemma.json"), summary)
    print(f"lemma-check: pass={summary['pass']}")
    return 0


def _run_dispersion(cfg: RunConfig) -> int:
    p = cfg.params
    rows = []
    # every k is sampled once, in one batch of RK4 one-step matrices; each fit equals
    # solver.dispersion_check(k) bit for bit, and k[0]'s row is the plotted trace
    times, traces = solver._mode_amplitude_traces(p["k"], p["T"], p["dt"])
    for k, trace in zip(p["k"], traces):
        fitted = solver._fit_mode_frequency(times, trace)
        expected = float(lambda_symbol(k))
        rows.append(reports.DispersionRow(k=k, fitted_omega=fitted, expected_omega=expected))
        print(
            f"dispersion k={k:g}: fitted omega={fitted:.10f} expected={expected:.10f} "
            f"rel error={rows[-1].rel_error:.3e}"
        )
    report = reports.DispersionReport(
        rows=tuple(rows),
        trace_k=p["k"][0],
        trace_times=tuple(float(t) for t in times),
        trace_values=tuple(float(a) for a in traces[0]),
    )
    reports.write_dispersion_csv(os.path.join(cfg.out, "dispersion.csv"), report)
    reports.write_json(
        os.path.join(cfg.out, "dispersion.json"),
        {
            "rows": [
                {"k": r.k, "fitted_omega": r.fitted_omega, "expected_omega": r.expected_omega,
                 "rel_error": r.rel_error}
                for r in rows
            ],
            "provenance": {
                "fitted_omega": "imbq.solver._mode_amplitude_traces + imbq.solver._fit_mode_frequency",
                "expected_omega": "imbq.grid.lambda_symbol",
            },
        },
    )
    if cfg.plot:
        emit_plot(report, os.path.join(cfg.out, "dispersion.svg"))
    return 0


def _run_derivative_check(cfg: RunConfig) -> int:
    p = cfg.params
    with _from_params():
        q = QuadratureConfig(tau_nodes=p["tau_nodes"], dxi=p["dxi"])
    chk = inflation.flowmap_derivative_check(p["N"], p["p"], 1, p["t"], p["eps"], q)
    print(
        f"derivative-check p={p['p']} N={p['N']} t={p['t']:g} eps={p['eps']:g}: "
        f"relative error={chk.relative_error:.3e} halving ratio={chk.halving_ratio:.3f}"
    )
    reports.write_json(
        os.path.join(cfg.out, "derivative.json"),
        {
            "p": p["p"],
            "N": p["N"],
            "t": p["t"],
            "eps": p["eps"],
            "relative_error": chk.relative_error,
            "halving_ratio": chk.halving_ratio,
            "provenance": {"residual": "imbq.inflation.flowmap_derivative_check"},
        },
    )
    return 0


_RUNNERS = {
    "solve": _run_solve,
    "inflate": _run_inflate,
    "lemma-check": _run_lemma_check,
    "dispersion": _run_dispersion,
    "derivative-check": _run_derivative_check,
}


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    try:
        return _RUNNERS[cfg.command](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = parse_config(argv)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return run(cfg)


def console_main():  # pragma: no cover
    sys.exit(main())
