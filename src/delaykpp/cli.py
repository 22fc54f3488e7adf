"""Command-line front end: config loading, dispatch, bit-stable output.

Subcommands: speeds | char | simulate-linear | fundamental | simulate-kpp
| experiment {mckean, extinction, spreading, bridge} | verify.
Configs are JSON objects; the config module documents every field and the
presets module holds runnable templates.  Outputs are JSON reports and
CSV traces written atomically (temp file + rename) with floats at 17
significant digits and sorted keys, so a rerun of the same config is
byte-identical.

Each subcommand has a handler that takes the config and write, an
_OutDir on the output directory, and returns (line, status):
write(name, content) puts one whole output file there (content is a
JSON object, or for a .csv name a (header, blocks) pair, see
_write_csv), line is the stdout summary and status the exit status.  A
handler reads every field it uses through config.Fields before its
first write, so a refused field costs no solve time.  An experiment's
handler reads the KPP inputs and the experiment's own options, calls the
runner with those typed values and writes the report {name, params,
metrics, verdict} itself, params being the config as loaded.  run()
prints the line unless --quiet once the handler has returned.

Every file is written atomically (temp file + rename, _write_atomic),
and CSV text is generated while its file is written, one block at a
time.  The snapshot CSVs of simulate-linear and simulate-kpp are
streamed: the handler runs the solve inside write.stream(name, header),
and its collect (a _SnapshotCSV) formats each kept snapshot's block
as one array of text (_g17.Lines formats every u value at once) and
writes it to the temp file as the solver makes it, while reducing it
to what the report needs; no snapshot array is kept.  The reductions
are finished inside that write too, and the other files are written
after it.  So a value the solver refuses, a non-finite snapshot or any
other error in the run leaves no output file, no temp file and no
output directory that the write made (an --out that did not exist
stays absent).

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
import contextlib
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from ._g17 import FLOAT as _FLOAT
from ._g17 import Lines
from .characteristic import critical_speeds, gamma_zero, tangency_solve
from .config import (EXPERIMENT_OPTIONS, FIELD_READERS, Fields,
                     default_out_every, kpp_inputs)
from .errors import ConfigError, TangencyError
from .experiments import (_frame_tangencies, bridge_check,
                          extinction_experiment, mckean_experiment,
                          spreading_experiment)
from .fundamental import approx_identity_error, pde_residual, symbol_table
from .linear_solver import (DecayScan, solve_linear,
                            tangency_limit_diagnostic,
                            universal_bound_diagnostic)
from .nonlinear import LevelScan, solve_kpp, trace_levels
from .verify import run_checks

__all__ = ["main", "run"]


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        return "nan"
    return _FLOAT % x


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


@contextlib.contextmanager
def _write_atomic(path: str):
    """A text file open on a temp file beside path, renamed to path when
    the with block ends.  On any error the temp file is removed, and so
    is each directory the write made for it that is still empty: path
    and its directory are left as they were.  The file gets the mode a
    plain open(path, "w") gives it (0o666 less the umask), not mkstemp's
    0o600."""
    directory = os.path.dirname(os.path.abspath(path))
    made, parent = [], directory  # the directories made here, innermost first
    while not os.path.isdir(parent):
        made.append(parent)
        parent = os.path.dirname(parent)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as f:
            os.fchmod(f.fileno(), 0o666 & ~umask)
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        for made_dir in made:
            with contextlib.suppress(OSError):  # another write filled it
                os.rmdir(made_dir)
        raise


def _write_json(path: str, obj) -> None:
    text = _json_text(obj)
    with _write_atomic(path) as f:
        f.write(text + "\n")


@contextlib.contextmanager
def _stream_csv(path: str, header: str):
    """A function write(block) that appends a text block (whole lines
    with no final newline) to the CSV at path, after its header, through
    _write_atomic: the file is complete when the with block ends, and
    its text is never held in memory."""
    with _write_atomic(path) as f:
        f.write(header + "\n")

        def write(block: str) -> None:
            f.write(block)
            f.write("\n")

        yield write


def _write_csv(path: str, header: str, blocks) -> None:
    """The CSV of header and the iterable of text blocks, as _stream_csv
    writes it."""
    with _stream_csv(path, header) as write:
        for block in blocks:
            write(block)


def _csv_lines(rows):
    """One CSV line per tuple row: floats through _fmt, the rest str."""
    for row in rows:
        yield ",".join(_fmt(v) if isinstance(v, float) else str(v)
                       for v in row)


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
# subcommand handlers: (config, write) -> (line, status), as the module
# docstring states


def _tangency_point(tang) -> dict:
    """gamma_m, z_m and sigma_m of a TangencySolution: the part of it that
    the simulate-linear and speeds reports give."""
    return {key: float(getattr(tang, key))
            for key in ("gamma_m", "z_m", "sigma_m")}


def _cmd_speeds(cfg: dict, write):
    f = Fields(cfg)
    g1, source = f.gprime0()
    kernel0 = f.growing_kernel(g1, source)
    h = f.delay()
    sp = critical_speeds(kernel0, g1, h)
    report = asdict(sp)
    try:
        for branch, lam, tang in _frame_tangencies(kernel0, g1, h, sp):
            report[f"branch_{branch}"] = {
                **_tangency_point(tang),
                "z_m_minus_lambda": float(tang.z_m - lam),
            }
    except TangencyError as exc:
        # the speeds solved, so the kernel is too extreme for the frame
        raise ConfigError(f"field 'kernel': frame tangency at the critical "
                          f"speeds failed: {exc}") from None
    write("speeds_report.json", report)
    return (f"speeds: c_minus={_fmt(report['c_minus'])} "
            f"c_plus={_fmt(report['c_plus'])}", 0)


def _decay_pair(params, kernel, z0: float, field: str):
    """gamma_zero at z0, a tilt outside the transform strip refused by the
    name of the field that gave it."""
    try:
        return gamma_zero(params, kernel, z0)
    except ConfigError as exc:
        raise ConfigError(f"field '{field}': {exc}") from None


def _cmd_char(cfg: dict, write):
    f = Fields(cfg)
    params = f.params()
    kernel = f.kernel()
    z0 = f.number("z0", 0.0)
    report = asdict(_decay_pair(params, kernel, z0, "z0"))
    try:
        report.update(asdict(tangency_solve(params, kernel)))
    except (ValueError, RuntimeError) as exc:
        report["tangency_error"] = str(exc)
    write("char_report.json", report)
    return f"char: gamma0={_fmt(report['gamma0'])} at z0={_fmt(z0)}", 0


class _SnapshotCSV:
    """The collect of a streamed t,x,u snapshot CSV: writes the block of
    every stride-th kept snapshot, and of the last, as the solver makes
    them, and passes each snapshot on to reduce when given.

    A block is the snapshot's lines, _fmt(t) + "," + _fmt(x_i) + "," +
    ``_FLOAT % u_i``, joined by "\\n": _g17.Lines makes them from the t
    and x texts (x is formatted once per run, t once per block) and the
    whole u at once, exact for every finite value (see its docstring for
    the fallback rule and the error bound).  So every value, -0.0 and
    subnormals included, gets the text _fmt gives it.  The values are
    finite: grids.Outputs refuses a non-finite snapshot before any
    collect sees it.

    count is the number of snapshots seen and last the newest (t, u);
    close() writes the last block when the stride skipped it.  Only that
    snapshot is held, and the solver never writes it again."""

    def __init__(self, x: np.ndarray, stride: int, write, reduce=None):
        self._lines = Lines([_fmt(v) + "," for v in x.tolist()])
        self._stride, self._write, self._reduce = stride, write, reduce
        self.count, self.last = 0, None

    def _block(self, t: float, u: np.ndarray) -> str:
        return self._lines(_fmt(t) + ",", u)

    def __call__(self, t: float, u: np.ndarray) -> None:
        if self.count % self._stride == 0:
            self._write(self._block(t, u))
        if self._reduce is not None:
            self._reduce(t, u)
        self.count += 1
        self.last = (t, u)

    def close(self) -> None:
        if (self.count - 1) % self._stride:
            self._write(self._block(*self.last))


def _cmd_simulate_linear(cfg: dict, write):
    f = Fields(cfg)
    params = f.params()
    kernel = f.kernel()
    grid = f.grid()
    T = f.number("T")
    stride = f.count("snapshot_stride", 1)
    diag = f.obj("diagnostics", {})
    diag.known(("z0", "tangency", "probe_x"))
    z0, tangency = diag.number("z0", 0.0), diag.flag("tangency", True)
    probe_x = diag.number("probe_x", 0.0)
    grid.refuse_outside(probe_x, "diagnostics.probe_x")
    u0 = f.u0(1.0)(grid.x)
    n_h, out_every = f.count("n_h", None), f.count("out_every", None)
    scan = None
    if "diagnostics" in cfg:
        if T == 0.0:
            # S_max and S_min range over the outputs after t = 0: a run to
            # T = 0 keeps none (grids.step_count gives a positive T a step)
            raise ConfigError(f"field 'T' = {T:g}: the diagnostics need an "
                              "output after t = 0, and the run keeps none")
        scan = DecayScan(grid, _decay_pair(params, kernel, z0,
                                           "diagnostics.z0"), probe_x)
        tang = tangency_solve(params, kernel) if tangency else None

    # the run streams its snapshots into their CSV and finishes its
    # reductions inside that write: an error anywhere here leaves no file
    with write.stream("linear_snapshots.csv", "t,x,u") as write_block:
        snapshots = _SnapshotCSV(grid.x, stride, write_block, scan)
        traj = solve_linear(params, kernel, grid, u0, T, n_h, out_every,
                            collect=snapshots)
        snapshots.close()
        report = {"T": T, "n_h": int(traj.n_h),
                  "edge_fraction": float(traj.edge_fraction),
                  "final_sup": float(np.max(np.abs(snapshots.last[1])))}
        if scan is not None:
            S = universal_bound_diagnostic(scan)
            if tangency:
                D = tangency_limit_diagnostic(scan, tang)
                report.update(_tangency_point(tang), D_final=float(D[-1]))
            else:
                D = np.full_like(S, math.nan)
            pos = np.array(scan.times) > 0
            report.update(asdict(scan.pair), S_final=float(S[-1]),
                          S_max=float(np.max(S[pos])),
                          S_min=float(np.min(S[pos])))
    if scan is not None:
        write("linear_diagnostics.csv", ("t,D,S", _csv_lines(
            (t, float(d), float(s)) for t, d, s in zip(scan.times, D, S))))
    write("linear_report.json", report)
    return (f"simulate-linear: {snapshots.count} outputs to T={_fmt(T)}, "
            f"edge fraction {traj.edge_fraction:.2e}", 0)


def _cmd_fundamental(cfg: dict, write):
    f = Fields(cfg)
    params = f.params()
    kernel = f.kernel()
    t_min = f.positive("t_min", 0.25)
    x_span = f.positive("x_span", 40.0)
    res_t = f.number("residual_t", 2.0 * params.h)
    times = f.numbers("identity_times", [0.5, 0.1, 0.02])
    table = symbol_table(params, kernel, t_min=t_min, x_span=x_span)
    report = {"gate": "accepted", "rho_residual": table.residual(),
              "rho0": table.rho0, "z_max": float(table.z[-1]),
              "n_modes": int(table.z.size), "pde_residual_t": res_t}
    try:
        report["pde_residual"] = pde_residual(table, res_t)
    except ConfigError as exc:
        raise ConfigError(f"field 'residual_t': {exc}") from None

    x = np.linspace(-0.5 * x_span, 0.5 * x_span, 801)
    psi = np.exp(-((x / 2.0) ** 2))
    try:
        errs = [approx_identity_error(table, t, x, psi) for t in times]
    except ConfigError as exc:
        raise ConfigError(f"field 'identity_times' (each > 0, on the symbol "
                          f"grid of 't_min' = {t_min:g}): {exc}") from None
    report["identity_times"] = times
    report["identity_errors"] = errs
    report["identity_strictly_decreasing"] = bool(
        all(b < a for a, b in zip(errs, errs[1:])))
    write("fundamental_report.json", report)
    return (f"fundamental: pde residual {report['pde_residual']:.3e}, "
            f"identity errors {['%.3e' % e for e in errs]}", 0)


def _levels_csv(trace):
    """The level-set trace as the t,beta,m_minus,m_plus,attained CSV."""
    rows = ((float(t), float(trace.beta), float(lo), float(hi),
             int(math.isfinite(lo) and math.isfinite(hi)))
            for t, lo, hi in zip(trace.times, trace.m_minus, trace.m_plus))
    return "t,beta,m_minus,m_plus,attained", _csv_lines(rows)


def _cmd_simulate_kpp(cfg: dict, write):
    f = Fields(cfg)
    kernel0, birth, grid, h, n_h, T, beta, u0 = kpp_inputs(cfg)
    out_every = f.count("out_every", default_out_every(n_h))
    stride = f.count("snapshot_stride", 1)

    # as in simulate-linear, the whole run is inside the snapshot CSV's
    # write
    with write.stream("kpp_snapshots.csv", "t,x,u") as write_block:
        scan = LevelScan(grid.x, beta)  # the scan mckean passes as collect
        snapshots = _SnapshotCSV(grid.x, stride, write_block, scan)
        traj = solve_kpp(kernel0, birth, grid, u0(grid.x), T, h, n_h,
                         out_every, collect=snapshots)
        snapshots.close()
        speeds = critical_speeds(kernel0, birth.gprime0, h)
        trace = trace_levels(scan, speeds)
        final = snapshots.last[1]
        report = {
            "kappa": birth.kappa, "beta": beta,
            "c_minus": float(speeds.c_minus),
            "c_plus": float(speeds.c_plus),
            "lambda_minus": float(speeds.lambda_minus),
            "lambda_plus": float(speeds.lambda_plus),
            "final_sup": float(np.max(final)),
            "final_min": float(np.min(final)),
            "clamp_count": int(traj.clamp_count),
            "edge_fraction": float(traj.edge_fraction),
        }
    write("kpp_levels.csv", _levels_csv(trace))
    write("kpp_report.json", report)
    return (f"simulate-kpp: final sup {_fmt(report['final_sup'])} "
            f"(kappa {_fmt(birth.kappa)})", 0)


def _cmd_experiment(name: str, runner, cfg: dict, write):
    inputs, f = kpp_inputs(cfg), Fields(cfg)
    options = {key: read(f, key) for key, read
               in EXPERIMENT_OPTIONS.get(name, {}).items() if key in cfg}
    rep = runner(inputs, **options)
    write(f"{name}_report.json", {"name": name, "params": cfg,
                                  "metrics": rep.metrics,
                                  "verdict": rep.verdict})
    if rep.trace is not None:
        write(f"{name}_levels.csv", _levels_csv(rep.trace))
    return (f"experiment {name}: verdict {rep.verdict}",
            0 if rep.verdict in ("pass", "diagnostic") else 2)


def _cmd_verify(cfg: dict, write):
    results = run_checks()
    report = {"checks": [asdict(r) for r in results],
              "all_passed": all(r.passed for r in results)}
    write("verify_report.json", report)
    return ("\n".join(f"{'ok  ' if r.passed else 'FAIL'} {r.name}: "
                      f"{r.detail}" for r in results),
            0 if report["all_passed"] else 1)


# ---------------------------------------------------------------------------
# dispatch


class _OutDir:
    """The write of the handlers into one output directory.  Called as
    write(name, content), it writes one whole file: content is a JSON
    object, or for a .csv name a (header, blocks) pair (_write_csv).
    stream(name, header) is the with block of a CSV written block by
    block as a run makes them (_stream_csv)."""

    def __init__(self, directory: str):
        self._dir = directory

    def __call__(self, name: str, content) -> None:
        path = os.path.join(self._dir, name)
        if name.endswith(".csv"):
            _write_csv(path, *content)
        else:
            _write_json(path, content)

    def stream(self, name: str, header: str):
        return _stream_csv(os.path.join(self._dir, name), header)


# every subcommand but experiment; verify reads no config
_COMMANDS = {"speeds": _cmd_speeds, "char": _cmd_char,
             "simulate-linear": _cmd_simulate_linear,
             "fundamental": _cmd_fundamental,
             "simulate-kpp": _cmd_simulate_kpp, "verify": _cmd_verify}


def _experiments() -> dict:
    """Experiment name -> runner; built per call, so a runner rebound on
    this module takes effect."""
    return {"mckean": mckean_experiment, "extinction": extinction_experiment,
            "spreading": spreading_experiment, "bridge": bridge_check}


def _chosen(f: Fields, field: str, invoked: str | None, choices) -> str:
    """The invoked name, or the config's own field when none was invoked;
    ConfigError when the config declares another or the name is unknown."""
    declared = f.text(field, None)
    if invoked is None:
        if declared is None:
            raise ConfigError(f"config is missing required field '{field}' "
                              f"(one of {', '.join(choices)})")
        invoked = declared
    elif declared not in (None, invoked):
        raise ConfigError(f"config declares {field} '{declared}' but "
                          f"'{invoked}' was invoked")
    if invoked not in choices:
        raise ConfigError(f"field '{field}': unknown {field} '{invoked}'; "
                          f"choose from {', '.join(choices)}")
    return invoked


def _exit_status(fn):
    """fn with a refused input turned into exit status 1 and one line on
    stderr.  ArithmeticError: a solver overflowing on an extreme but
    well-typed value."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return wrapper


@_exit_status
def run(config_path: str | None, out_dir: str = ".", quiet: bool = False,
        command: str | None = None, experiment: str | None = None) -> int:
    """Run one config; returns the process exit status (0 pass/diagnostic,
    2 verdict fail, 1 error).

    command and experiment are the ones invoked on the command line; when
    absent, the config's own 'command' and 'experiment' fields choose."""
    cfg = {} if command == "verify" else _load_config(config_path)
    f = Fields(cfg)
    command = _chosen(f, "command", command, [*_COMMANDS, "experiment"])
    if command in _COMMANDS:
        handler, reader = _COMMANDS[command], command
    else:
        runners = _experiments()
        reader = _chosen(f, "experiment", experiment, list(runners))
        handler = functools.partial(_cmd_experiment, reader, runners[reader])
    kind = "command" if reader == command else "experiment"
    f.known([k for k, readers in FIELD_READERS.items() if reader in readers],
            reader=f"{kind} '{reader}'")

    line, status = handler(cfg, _OutDir(out_dir))
    if not quiet:
        print(line)
    return status


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
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    p_exp = sub.add_parser("experiment", parents=[common])
    p_exp.add_argument("name", choices=list(_experiments()))
    return parser


@_exit_status
def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command is None:
        raise ConfigError("no subcommand given (try 'delaykpp --help')")
    # only the experiment subcommand has a (required) name argument
    return run(args.config, args.out, args.quiet, args.command,
               getattr(args, "name", None))


if __name__ == "__main__":
    sys.exit(main())
