"""Command-line front end: config loading, dispatch, bit-stable output.

Subcommands: speeds | char | simulate-linear | fundamental | simulate-kpp
| experiment {mckean, extinction, spreading, bridge, logdrift} | verify.
Configs are JSON objects; the config module documents every field and the
presets module holds runnable templates.  Outputs are JSON reports and
CSV traces written atomically (temp file + rename) with floats at 17
significant digits and sorted keys, so a rerun of the same config is
byte-identical.

Exit status: 0 for a passing verdict or a diagnostic, 2 when an
experiment verdict is "fail" or "inconclusive", 1 for config or runtime
errors (message on stderr names the offending field or gate).

CSV headers: snapshots ``t,x,u``; diagnostics ``t,D,S``; level sets
``t,beta,m_minus,m_plus,attained`` (attained = 1 when both crossings
exist at that time).  Non-finite floats are written as ``null`` in JSON
and ``nan`` in CSV.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .characteristic import critical_speeds, gamma_zero, tangency_solve
from .config import Fields, default_out_every, kpp_inputs
from .errors import ConfigError, TangencyError
from .experiments import (_frame_tangencies, bridge_check,
                          extinction_experiment, logdrift_experiment,
                          mckean_experiment, spreading_experiment)
from .fundamental import approx_identity_error, pde_residual, symbol_table
from .grids import every_kth
from .linear_solver import (solve_linear, tangency_limit_diagnostic,
                            universal_bound_diagnostic)
from .nonlinear import solve_kpp, trace_levels
from .verify import run_checks

__all__ = ["main", "run"]

_EXPERIMENTS = ("mckean", "extinction", "spreading", "bridge", "logdrift")


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        return "nan"
    return f"{x:.17g}"


def _json_scalar(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return _fmt(v) if math.isfinite(v) else "null"
    if isinstance(v, str):
        return json.dumps(v)
    raise ConfigError(f"cannot serialize value of type {type(v).__name__}")


def _json_text(obj, indent: int = 0) -> str:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_json_text(obj[k], indent + 2)}'
                for k in sorted(obj, key=str)]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + ", ".join(_json_text(v, indent) for v in obj) + "]"
    return _json_scalar(obj)


def _write_atomic(path: str, chunks) -> None:
    """Write the strings of chunks to a temp file, then rename it to path;
    on any error the temp file is removed and path is left untouched."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj) -> None:
    _write_atomic(path, [_json_text(obj), "\n"])


def _write_csv(path: str, header: str, rows) -> None:
    lines = (",".join(_fmt(v) if isinstance(v, float) else str(v)
                      for v in row) for row in rows)

    def blocks():
        # 4096 rows at a time: the file text is never held in memory
        yield header + "\n"
        while block := list(itertools.islice(lines, 4096)):
            yield "\n".join(block) + "\n"

    _write_atomic(path, blocks())


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str | None) -> dict:
    if path is None:
        raise ConfigError("this subcommand requires --config PATH")
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: "
                          f"{exc.strerror or exc}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON "
                          f"(line {exc.lineno}: {exc.msg})") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# subcommand handlers; each returns a process exit status


def _cmd_speeds(cfg: dict, out: str, quiet: bool) -> int:
    f = Fields(cfg)
    g1 = f.gprime0()
    kernel0 = f.growing_kernel(g1)
    h = f.delay()
    sp = critical_speeds(kernel0, g1, h)
    report = {
        "c_minus": float(sp.c_minus), "c_plus": float(sp.c_plus),
        "lambda_minus": float(sp.lambda_minus),
        "lambda_plus": float(sp.lambda_plus),
        "residuals": [float(r) for r in sp.residuals],
    }
    try:
        for branch, lam, tang in _frame_tangencies(kernel0, g1, h, sp):
            report[f"branch_{branch}"] = {
                "gamma_m": float(tang.gamma_m), "z_m": float(tang.z_m),
                "sigma_m": float(tang.sigma_m),
                "z_m_minus_lambda": float(tang.z_m - lam),
            }
    except TangencyError as exc:
        # the speeds solved, so the kernel is too extreme for the frame
        raise ConfigError(f"field 'kernel': frame tangency at the critical "
                          f"speeds failed: {exc}") from None
    _write_json(os.path.join(out, "speeds_report.json"), report)
    if not quiet:
        print(f"speeds: c_minus={_fmt(report['c_minus'])} "
              f"c_plus={_fmt(report['c_plus'])}")
    return 0


def _cmd_char(cfg: dict, out: str, quiet: bool) -> int:
    f = Fields(cfg)
    params = f.params()
    kernel = f.kernel()
    z0 = f.number("z0", 0.0)
    pair = gamma_zero(params, kernel, z0)
    report = {"gamma0": pair.gamma0, "z0": pair.z0}
    try:
        tang = tangency_solve(params, kernel)
        report.update({"gamma_m": tang.gamma_m, "z_m": tang.z_m,
                       "sigma_m": tang.sigma_m, "k_star": tang.k_star,
                       "khat0": tang.khat0,
                       "residual_value": tang.residual_value,
                       "residual_slope": tang.residual_slope})
    except (ValueError, RuntimeError) as exc:
        report["tangency_error"] = str(exc)
    _write_json(os.path.join(out, "char_report.json"), report)
    if not quiet:
        print(f"char: gamma0={_fmt(report['gamma0'])} at z0={_fmt(z0)}")
    return 0


def _snapshot_rows(times, fields, x, stride: int):
    for i in every_kth(len(times), stride):
        t = float(times[i])
        for j in range(x.size):
            yield (t, float(x[j]), float(fields[i][j]))


def _cmd_simulate_linear(cfg: dict, out: str, quiet: bool) -> int:
    f = Fields(cfg)
    params = f.params()
    kernel = f.kernel()
    grid = f.grid()
    T = f.number("T")
    traj = solve_linear(params, kernel, grid, f.u0(grid, 1.0), T,
                        f.count("n_h", None), f.count("out_every", None))

    stride = f.count("snapshot_stride", 1)
    _write_csv(os.path.join(out, "linear_snapshots.csv"), "t,x,u",
               _snapshot_rows(traj.times, traj.fields, grid.x, stride))

    report = {"T": T, "n_h": int(traj.n_h),
              "edge_fraction": float(traj.edge_fraction),
              "final_sup": float(np.max(np.abs(traj.fields[-1])))}
    if "diagnostics" in cfg:
        diag = f.obj("diagnostics")
        pair = gamma_zero(params, kernel, diag.number("z0", 0.0))
        _, S = universal_bound_diagnostic(traj, pair)
        if diag.flag("tangency", True):
            tang = tangency_solve(params, kernel)
            _, D = tangency_limit_diagnostic(
                traj, tang, diag.number("probe_x", 0.0))
            report.update({"gamma_m": tang.gamma_m, "z_m": tang.z_m,
                           "sigma_m": tang.sigma_m, "D_final": float(D[-1])})
        else:
            D = np.full_like(S, math.nan)
        rows = [(float(t), float(d), float(s))
                for t, d, s in zip(traj.times, D, S)]
        _write_csv(os.path.join(out, "linear_diagnostics.csv"), "t,D,S", rows)
        pos = traj.times > 0
        report.update({"gamma0": pair.gamma0, "z0": pair.z0,
                       "S_final": float(S[-1]),
                       "S_max": float(np.max(S[pos])),
                       "S_min": float(np.min(S[pos]))})
    _write_json(os.path.join(out, "linear_report.json"), report)
    if not quiet:
        print(f"simulate-linear: {traj.times.size} outputs to T={_fmt(T)}, "
              f"edge fraction {traj.edge_fraction:.2e}")
    return 0


def _cmd_fundamental(cfg: dict, out: str, quiet: bool) -> int:
    f = Fields(cfg)
    params = f.params()
    kernel = f.kernel()
    t_min = f.positive("t_min", 0.25)
    x_span = f.positive("x_span", 40.0)
    table = symbol_table(params, kernel, t_min=t_min, x_span=x_span)
    report = {"gate": "accepted", "rho_residual": table.residual(),
              "rho0": table.rho0, "z_max": float(table.z[-1]),
              "n_modes": int(table.z.size)}

    res_t = f.number("residual_t", 2.0 * params.h)
    report["pde_residual_t"] = res_t
    report["pde_residual"] = pde_residual(table, res_t)

    times = f.numbers("identity_times", [0.5, 0.1, 0.02])
    x = np.linspace(-0.5 * x_span, 0.5 * x_span, 801)
    psi = np.exp(-((x / 2.0) ** 2))
    errs = [approx_identity_error(table, t, x, psi) for t in times]
    report["identity_times"] = times
    report["identity_errors"] = errs
    report["identity_strictly_decreasing"] = bool(
        all(b < a for a, b in zip(errs, errs[1:])))
    _write_json(os.path.join(out, "fundamental_report.json"), report)
    if not quiet:
        print(f"fundamental: pde residual {report['pde_residual']:.3e}, "
              f"identity errors {['%.3e' % e for e in errs]}")
    return 0


def _levels_rows(trace):
    for i, t in enumerate(trace.times):
        attained = int(math.isfinite(trace.m_minus[i])
                       and math.isfinite(trace.m_plus[i]))
        yield (float(t), float(trace.beta), float(trace.m_minus[i]),
               float(trace.m_plus[i]), attained)


def _cmd_simulate_kpp(cfg: dict, out: str, quiet: bool) -> int:
    f = Fields(cfg)
    kernel0, birth, grid, h, n_h, T, beta, u0 = kpp_inputs(cfg)
    out_every = f.count("out_every", default_out_every(n_h))
    stride = f.count("snapshot_stride", 1)
    traj = solve_kpp(kernel0, birth, grid, u0, T, h, n_h, out_every)
    speeds = critical_speeds(kernel0, birth.gprime0, h)
    trace = trace_levels(traj, beta, speeds)

    _write_csv(os.path.join(out, "kpp_snapshots.csv"), "t,x,u",
               _snapshot_rows(traj.times, traj.fields, grid.x, stride))
    _write_csv(os.path.join(out, "kpp_levels.csv"),
               "t,beta,m_minus,m_plus,attained", _levels_rows(trace))
    report = {
        "kappa": birth.kappa, "beta": beta,
        "c_minus": float(speeds.c_minus), "c_plus": float(speeds.c_plus),
        "lambda_minus": float(speeds.lambda_minus),
        "lambda_plus": float(speeds.lambda_plus),
        "final_sup": float(np.max(traj.fields[-1])),
        "final_min": float(np.min(traj.fields[-1])),
        "clamp_count": int(traj.clamp_count),
        "edge_fraction": float(traj.edge_fraction),
    }
    _write_json(os.path.join(out, "kpp_report.json"), report)
    if not quiet:
        print(f"simulate-kpp: final sup {_fmt(report['final_sup'])} "
              f"(kappa {_fmt(birth.kappa)})")
    return 0


def _cmd_experiment(name: str, cfg: dict, out: str, quiet: bool) -> int:
    # looked up per call, so a name rebound on this module takes effect
    runner = {"mckean": mckean_experiment, "extinction": extinction_experiment,
              "spreading": spreading_experiment, "bridge": bridge_check,
              "logdrift": logdrift_experiment}[name]
    rep = runner(cfg)
    _write_json(os.path.join(out, f"{rep.name}_report.json"), rep.to_dict())
    if rep.trace is not None:
        _write_csv(os.path.join(out, f"{rep.name}_levels.csv"),
                   "t,beta,m_minus,m_plus,attained", _levels_rows(rep.trace))
    if not quiet:
        print(f"experiment {rep.name}: verdict {rep.verdict}")
    return 0 if rep.verdict in ("pass", "diagnostic") else 2


def _cmd_verify(out: str, quiet: bool) -> int:
    results = run_checks()
    for r in results:
        if not quiet:
            print(f"{'ok  ' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    report = {"checks": [r.to_dict() for r in results],
              "all_passed": all(r.passed for r in results)}
    _write_json(os.path.join(out, "verify_report.json"), report)
    return 0 if report["all_passed"] else 1


# ---------------------------------------------------------------------------
# dispatch


def _dispatch(command: str, experiment: str | None, cfg: dict, out: str,
              quiet: bool) -> int:
    if command == "experiment":
        if experiment is None:
            raise ConfigError("config is missing required field 'experiment' "
                              f"(one of {', '.join(_EXPERIMENTS)})")
        if experiment not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment '{experiment}'; choose "
                              f"from {', '.join(_EXPERIMENTS)}")
        return _cmd_experiment(experiment, cfg, out, quiet)
    handlers = {"speeds": _cmd_speeds, "char": _cmd_char,
                "simulate-linear": _cmd_simulate_linear,
                "fundamental": _cmd_fundamental,
                "simulate-kpp": _cmd_simulate_kpp}
    if command not in handlers:
        raise ConfigError(f"unknown command '{command}'; choose from "
                          f"{', '.join([*handlers, 'experiment', 'verify'])}")
    return handlers[command](cfg, out, quiet)


def run(config_path: str, out_dir: str = ".", quiet: bool = False) -> int:
    """Dispatch a config file on its own 'command' field; returns the
    process exit status (0 pass/diagnostic, 2 verdict fail, 1 error)."""
    try:
        cfg = _load_config(config_path)
        f = Fields(cfg)
        command = f.text("command")
        if command == "verify":
            return _cmd_verify(out_dir, quiet)
        return _dispatch(command, f.text("experiment", None), cfg, out_dir,
                         quiet)
    # ArithmeticError: a solver overflowing on an extreme but well-typed value
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; 2 is reserved for failed verdicts
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="delaykpp",
                     description="delayed non-local front laboratory")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON configuration file")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the stdout summary line")
    sub = parser.add_subparsers(dest="command")
    for name in ("speeds", "char", "simulate-linear", "fundamental",
                 "simulate-kpp"):
        sub.add_parser(name, parents=[common])
    p_exp = sub.add_parser("experiment", parents=[common])
    p_exp.add_argument("name", choices=_EXPERIMENTS)
    sub.add_parser("verify", parents=[common])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("no subcommand given (try 'delaykpp --help')")
        if args.command == "verify":
            return _cmd_verify(args.out, args.quiet)
        cfg = _load_config(args.config)
        f = Fields(cfg)
        declared = f.text("command", None)
        if declared not in (None, args.command):
            raise ConfigError(f"config declares command '{declared}' but "
                              f"'{args.command}' was invoked")
        # only the experiment subcommand has a (required) name argument
        name = getattr(args, "name", None)
        declared_exp = f.text("experiment", None)
        if name is not None and declared_exp not in (None, name):
            raise ConfigError(f"config declares experiment '{declared_exp}' "
                              f"but '{name}' was invoked")
        return _dispatch(args.command, name, cfg, args.out, args.quiet)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
