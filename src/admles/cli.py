"""Batch front end: one config file in, deterministic artifacts out.

Subcommands
    simulate             integrate the model, write diagnostics + checkpoint
    verify-operators     symbol tables and bound margins over a parameter grid
    verify-inequalities  ratio sweeps for the anisotropic estimates
    dependence           perturbation growth against its exponential envelope
    spectrum             vertical energy spectrum of a checkpoint

Every run writes a ``manifest.json`` next to its CSV artifacts.  Exit
codes: 0 success, 1 validation error, 2 embedded assertion failure, 3
runtime abort (CFL violation or non-finite state).
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config, with_overrides
from .diagnostics import CSV_COLUMNS, RecordFold, vertical_spectrum
from .filters import (
    DeconvSpec,
    FilterSpec,
    deconv_symbol,
    deconv_symbol_iterative,
    filter_symbol,
)
from .solver import (
    SolverAbort,
    ZeroForcing,
    dependence_experiment,
    read_checkpoint,
    run,
    write_checkpoint,
)
from .spectral import FieldNorms, divergence_residual

_BOUND_TOL = 1e-12


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits the process on bad usage; convert to exit code 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: error: {message}")


def _fmt_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


class _Context:
    """Collects artifacts, assertion outcomes and a command's own
    telemetry for the manifest."""

    def __init__(self, outdir: Path, config_hash: str, quiet: bool):
        self.outdir = outdir
        self.config_hash = config_hash
        self.quiet = quiet
        self.outputs: list[str] = []
        self.assertions: list[dict] = []
        self.abort: dict | None = None
        self.steps_completed: int | None = None  # step of state.ckpt
        self.extra: dict = {}
        self.telemetry: dict = {}

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)

    def check(self, name: str, passed: bool, detail: str) -> None:
        self.assertions.append(
            {"name": name, "passed": bool(passed), "detail": detail}
        )
        self.say(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")

    def write_csv(self, relpath: str, columns, rows) -> None:
        """Line-buffered, so a run that aborts or is killed mid-stream
        leaves whole rows; listed in the outputs even if `rows` raises."""
        path = self.outdir / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n", buffering=1) as fh:
            try:
                fh.write(f"# config_hash={self.config_hash}\n")
                fh.write(",".join(columns) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt_cell(cell) for cell in row) + "\n")
            finally:
                self.outputs.append(relpath)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(rc: RunConfig, ctx: _Context) -> None:
    """Streams the run: each record feeds the fold and becomes a CSV
    row as it arrives.  On an abort or an interrupt the rows so far and
    the latest completed step's checkpoint stay; main reports an
    abort."""
    cfg = rc.solver
    stream = run(cfg)  # setup errors raise here, before any file opens
    fold = RecordFold()
    folding = writing = 0.0

    def rows():
        nonlocal folding, writing
        for record in stream:
            start = time.perf_counter()
            residual = fold.add(record)
            folding += time.perf_counter() - start
            start = time.perf_counter()
            yield [residual if column == "budget_residual" else getattr(record, column)
                   for column in CSV_COLUMNS]
            writing += time.perf_counter() - start  # write_csv wrote the row

    try:
        ctx.write_csv("diagnostics.csv", CSV_COLUMNS, rows())
    finally:
        ctx.telemetry["steps_peak_rss_mb"] = _peak_rss_mb()
        start = time.perf_counter()
        write_checkpoint(ctx.outdir / "state.ckpt", stream.state, cfg,
                         config_hash=ctx.config_hash)
        ctx.telemetry.update(stepping_s=stream.stepping_s,
                             records_s=stream.records_s + folding,
                             io_s=writing + time.perf_counter() - start)
        ctx.outputs.append("state.ckpt")
        ctx.steps_completed = stream.state.step_index
        ctx.extra["max_cfl"] = stream.max_cfl

    last = stream.state
    ctx.extra["regularity"] = fold.certificate
    ctx.check("records_finite", not fold.nonfinite,
              f"{fold.nonfinite} non-finite records" if fold.nonfinite
              else f"{fold.count} records")
    scale = float(np.max(np.abs(last.w.coeffs)))
    residual = divergence_residual(last.w)
    ctx.check("final_state_divergence_free",
              residual <= 1e-10 * max(scale, 1e-300),
              f"residual={residual!r}")
    if isinstance(cfg.forcing, ZeroForcing):
        ctx.check("model_energy_nonincreasing", not fold.rises,
                  f"{fold.rises} increases" if fold.rises
                  else f"E(0)={fold.first!r} -> E(T)={fold.last.model_energy!r}")


def _cmd_verify_operators(rc: RunConfig, ctx: _Context) -> None:
    sweep = rc.operators
    k3 = np.arange(-sweep.k3_max, sweep.k3_max + 1, dtype=float)
    worst_margin = math.inf
    max_deviation = 0.0
    for alpha in sweep.alpha_values:
        for theta in sweep.theta_values:
            filt = FilterSpec(alpha, theta)
            a = filter_symbol(filt, k3)
            for order in sweep.order_values:
                dspec = DeconvSpec(filt, order)
                d = deconv_symbol(dspec, k3)
                d_iter = deconv_symbol_iterative(dspec, k3)
                max_deviation = max(
                    max_deviation, float(np.max(np.abs(d - d_iter) / d))
                )
                margin = np.minimum.reduce([d - 1.0, (order + 1.0) - d, a - d])
                worst_margin = min(worst_margin, float(np.min(margin)))
                rows = zip(k3.astype(int), a, d, margin)
                name = f"operators/alpha-{alpha!r}_theta-{theta!r}_N-{order}.csv"
                ctx.write_csv(
                    name, ("k3", "A_symbol", "D_symbol", "bound_margin"), rows
                )
    ctx.check("symbol_bounds", worst_margin >= -_BOUND_TOL,
              f"worst margin {worst_margin!r}")
    ctx.check("closed_vs_iterative", max_deviation <= _BOUND_TOL,
              f"max relative deviation {max_deviation!r}")


def _cmd_verify_inequalities(rc: RunConfig, ctx: _Context) -> None:
    """One pass per ensemble; a split-bound violation fails the check
    but every row is still written."""
    reports, violations = rc.inequalities.run(rc.seed)
    rows = [
        (r.lemma, r.s, r.count, r.max_ratio, r.mean_ratio, r.resolution,
         r.seed)
        for r in reports
    ]
    ctx.write_csv(
        "inequalities.csv",
        ("lemma", "s", "count", "max_ratio", "mean_ratio", "resolution",
         "seed"),
        rows,
    )
    ctx.check("agmon_split_bound", not violations,
              "; ".join(violations) if violations
              else "every sample under the bound")
    nonfinite = [r.lemma for r in reports if not math.isfinite(r.max_ratio)]
    ctx.check("ratios_finite", not nonfinite,
              f"non-finite maxima in {nonfinite}" if nonfinite
              else f"{len(reports)} sweeps")


def _cmd_dependence(rc: RunConfig, ctx: _Context) -> None:
    report = dependence_experiment(
        rc.solver, rc.dependence.epsilon,
        perturbation_seed=rc.dependence.perturbation_seed,
    )
    envelope = report.envelope()
    rows = zip(report.times, report.delta_norms, report.integrands,
               report.integrals, envelope)
    ctx.write_csv(
        "dependence.csv",
        ("t", "delta_norm", "gronwall_integrand", "cumulative_integral",
         "envelope"),
        rows,
    )
    ctx.extra["fitted_c"] = report.fitted_c
    ctx.check("fitted_constant_finite", math.isfinite(report.fitted_c),
              f"C={report.fitted_c!r}")
    over = np.max(report.delta_norms - envelope * (1.0 + 1e-10))
    ctx.check("delta_under_envelope", over <= 0.0,
              f"max excess {float(over)!r}")


def _cmd_spectrum(rc: RunConfig, ctx: _Context) -> None:
    if not rc.spectrum_checkpoint:
        raise ValueError(
            "spectrum.checkpoint: a checkpoint path is required for the "
            "spectrum subcommand"
        )
    state, header = read_checkpoint(rc.spectrum_checkpoint)
    norms = FieldNorms(state.w)
    shells = vertical_spectrum(norms)
    ctx.write_csv("spectrum.csv", ("k3", "energy"), shells)
    ctx.extra["checkpoint"] = {
        "path": rc.spectrum_checkpoint,
        "t": state.t,
        "config_hash": header.get("config_hash", ""),
    }
    total = sum(e for _, e in shells)
    squared = norms.l2() ** 2
    ctx.check(
        "parseval_partition",
        abs(total - squared) <= 1e-12 * max(squared, 1e-300),
        f"sum={total!r} vs norm^2={squared!r}",
    )


_COMMANDS = {
    "simulate": _cmd_simulate,
    "verify-operators": _cmd_verify_operators,
    "verify-inequalities": _cmd_verify_inequalities,
    "dependence": _cmd_dependence,
    "spectrum": _cmd_spectrum,
}


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="configuration file (defaults apply if omitted)")
    common.add_argument("--output", metavar="DIR",
                        help="output directory (overrides run.output_dir)")
    common.add_argument("--seed", type=int, metavar="INT",
                        help="ensemble seed (overrides run.seed)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    parser = _Parser(prog="admles", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


# Built at import: argparse's first message lookup imports locale, which
# would otherwise fall inside the first main() call.
_PARSER = _build_parser()


def _peak_rss_mb() -> float:
    """The process's peak resident set so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _telemetry(wall: float, ctx: _Context) -> dict:
    """The process's peak resident set (MiB) and minor page faults so
    far, steps per second for a run that stepped, and ctx.telemetry;
    these vary from run to run, so they go in the manifest only."""
    telemetry = {"peak_rss_mb": _peak_rss_mb(),
                 "minor_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt,
                 **ctx.telemetry}
    if ctx.steps_completed is not None:
        telemetry["steps_per_s"] = ctx.steps_completed / wall
    return telemetry


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    text = ""
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            print(f"config file not found: {path}", file=sys.stderr)
            return 1
        text = path.read_text()
    try:
        rc = parse_config(text)
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    rc = with_overrides(rc, seed=args.seed, output_dir=args.output)

    config_hash = rc.config_hash()
    outdir = Path(rc.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    ctx = _Context(outdir, config_hash, quiet=args.quiet)

    start = time.perf_counter()
    try:
        _COMMANDS[args.command](rc, ctx)
        code = 0 if all(a["passed"] for a in ctx.assertions) else 2
    except SolverAbort as exc:
        ctx.abort = {"reason": type(exc).__name__, "message": str(exc)}
        if ctx.steps_completed is not None:
            ctx.abort["steps_completed"] = ctx.steps_completed
        ctx.say(f"aborted: {exc}")
        code = 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start

    status = {0: "ok", 2: "assertion-failure", 3: "aborted"}[code]
    manifest = {
        "subcommand": args.command,
        "status": status,
        "config_hash": config_hash,
        "config": rc.effective,
        "seed": rc.seed,
        "versions": {
            "admles": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_seconds": wall,
        "telemetry": _telemetry(wall, ctx),
        "outputs": ctx.outputs,
        "assertions": ctx.assertions,
    }
    if ctx.abort is not None:
        manifest["abort"] = ctx.abort
    manifest.update(ctx.extra)
    with open(outdir / "manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ctx.say(f"wrote {len(ctx.outputs) + 1} artifacts to {outdir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
