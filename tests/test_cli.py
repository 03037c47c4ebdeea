"""End-to-end command-line runs: artifacts, determinism, exit codes."""

import gc
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import admles
from admles import cli, inequalities, solver
from admles.cli import _RecordFold, main
from admles.config import parse_config
from admles.diagnostics import attach_residuals, energy_terms
from admles.filters import FilterSpec
from admles.grid import Grid
from admles.solver import (
    CFL_LIMIT,
    CFLError,
    SolverState,
    StepOperators,
    initial_state,
    read_checkpoint,
    run,
    step,
    trajectory,
    write_checkpoint,
)
from admles.spectral import FieldNorms, VectorField, l2_norm, vertical_seminorm


def run_cli(*args):
    return main(list(args))


def write(path, text):
    path.write_text(text)
    return str(path)


def read_manifest(outdir):
    return json.loads((outdir / "manifest.json").read_text())


def csv_hash_line(path):
    return path.read_text().splitlines()[0]


def test_simulate_artifacts(tmp_path):
    text = "[solver]\nt_end = 0.05\n"
    cfg = write(tmp_path / "run.ini", text)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", cfg, "--output", str(out),
                   "--quiet") == 0
    manifest = read_manifest(out)
    assert manifest["status"] == "ok"
    assert manifest["subcommand"] == "simulate"
    assert sorted(manifest["outputs"]) == ["diagnostics.csv", "state.ckpt"]
    assert all(a["passed"] for a in manifest["assertions"])
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={manifest['config_hash']}"
    assert lines[1].split(",") == [
        "t", "model_energy", "dissipation", "forcing_power",
        "budget_residual", "l2_norm", "theta_seminorm", "gronwall_integrand",
    ]
    # 0.05 / 0.005 steps plus the initial row
    assert len(lines) == 2 + 11
    # the checkpoint's payload is the state's box on the grid's 2/3 band
    with open(out / "state.ckpt", "rb") as fh:
        assert fh.read(9) == b"ADMCKPT3\n"
        fh.seek(struct.unpack("<Q", fh.read(8))[0], os.SEEK_CUR)
        payload = np.lib.format.read_array(fh)
    grid = parse_config(text).solver.grid
    assert payload.shape == (3, *grid.band.shape)
    assert payload.dtype == np.complex128


def test_simulate_deterministic_output(tmp_path):
    cfg = write(tmp_path / "run.ini",
                "[solver]\nt_end = 0.02\n[init]\nkind = random\nband = 4\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--config", cfg, "--output", str(out1),
                   "--quiet") == 0
    assert run_cli("simulate", "--config", cfg, "--output", str(out2),
                   "--quiet") == 0
    assert (out1 / "diagnostics.csv").read_bytes() == \
        (out2 / "diagnostics.csv").read_bytes()
    assert (out1 / "state.ckpt").read_bytes() == \
        (out2 / "state.ckpt").read_bytes()


def test_validation_error_exit_code(tmp_path, capsys):
    cfg = write(tmp_path / "bad.ini", "[filter]\ntheta = 1.5\n[solver]\nnu = -1\n")
    assert run_cli("simulate", "--config", cfg,
                   "--output", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert "filter.theta: 1.5 must lie in [0, 1]" in err
    assert "must be positive" in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_missing_config_file(tmp_path, capsys):
    assert run_cli("simulate", "--config", str(tmp_path / "nope.ini")) == 1
    assert "not found" in capsys.readouterr().err


def test_runtime_abort_exit_code(tmp_path):
    # grows unstable only after the forcing pumps energy in
    text = (
        "[grid]\nn1 = 16\nn2 = 16\nn3 = 16\n"
        "[solver]\nnu = 0.001\ndt = 0.04\nt_end = 4.0\noutput_every = 2\n"
        "[init]\nkind = taylor-green\namplitude = 1.2\n"
        "[forcing]\nkind = taylor-green\namplitude = 2.0\n"
    )
    cfg = write(tmp_path / "abort.ini", text)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", cfg, "--output", str(out),
                   "--quiet") == 3
    manifest = read_manifest(out)
    assert manifest["status"] == "aborted"
    assert manifest["abort"]["reason"] == "CFLError"
    assert manifest["outputs"] == ["diagnostics.csv", "state.ckpt"]
    # the rows are exactly the records the run yielded before aborting
    yielded = []
    with pytest.raises(CFLError):
        for _, record in run(parse_config(text).solver):
            yielded.append(record)
    lines = (out / "diagnostics.csv").read_text().splitlines()
    columns = lines[1].split(",")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[2:]])
    expected = np.array([[getattr(r, c) for c in columns]
                         for r in attach_residuals(yielded)])
    assert len(yielded) > 1
    np.testing.assert_array_equal(rows, expected)
    # the checkpoint holds the latest completed step, here between records
    config = parse_config(text).solver
    state, ops = initial_state(config), StepOperators(config)
    with pytest.raises(CFLError):
        while True:
            state = step(state, ops)
    expect = tmp_path / "expect.ckpt"
    write_checkpoint(expect, state, config, config_hash=manifest["config_hash"])
    assert (out / "state.ckpt").read_bytes() == expect.read_bytes()
    assert state.step_index % 2 == 1
    assert manifest["abort"]["steps_completed"] == state.step_index


FORCED_RUN = ("[grid]\nn1 = 16\nn2 = 16\nn3 = 16\n"
              "[solver]\nnu = 0.05\ndt = 0.01\nt_end = 0.1\noutput_every = 3\n"
              "[init]\nkind = random\nseed = 9\nenergy = 0.2\n"
              "[forcing]\nkind = random\nseed = 10\nband = 3\nenergy = 20.0\n")


def every_step(config):
    """The states of an uninterrupted run of `config`, one per step."""
    return list(trajectory(StepOperators(replace(config, output_every=1)),
                           initial_state(config)))


def test_an_interrupted_run_resumes_bit_for_bit(tmp_path, monkeypatch):
    """An interrupt at step 6 of a run that records every 3 steps leaves
    the rows of steps 0 and 3 and the checkpoint of step 5, the latest
    completed one, byte for byte that of an uninterrupted run; resumed
    from it, a trajectory yields that run's later records bit for bit."""
    def interrupted(state, ops):
        if state.step_index == 5:
            raise KeyboardInterrupt
        return real_step(state, ops)

    real_step = solver.step
    monkeypatch.setattr(solver, "step", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--config", write(tmp_path / "run.ini", FORCED_RUN),
              "--output", str(out), "--quiet"])
    monkeypatch.undo()
    rc = parse_config(FORCED_RUN)
    config = rc.solver
    states = every_step(config)
    assert len((out / "diagnostics.csv").read_text().splitlines()) == 2 + 2
    expect = tmp_path / "expect.ckpt"
    write_checkpoint(expect, states[5], config, config_hash=rc.config_hash())
    assert (out / "state.ckpt").read_bytes() == expect.read_bytes()
    resumed = list(trajectory(StepOperators(config), read_checkpoint(out / "state.ckpt")[0]))
    assert [s.step_index for s in resumed] == [5, 6, 9, 10]
    for got in resumed:
        want = states[got.step_index]
        assert got.t == want.t
        assert got.w.coeffs.tobytes() == want.w.coeffs.tobytes()


def test_simulate_checks_the_final_state_with_no_stepper_alive(tmp_path, monkeypatch):
    """With the collector off, simulate reaches divergence_residual, its
    last check of the final state, with no StepOperators of the run
    alive: the finished trajectory freed its samples, k1 and forcing
    before the checkpoint and the final checks."""
    made, alive = [], []
    real_init, real_residual = StepOperators.__init__, cli.divergence_residual

    def tracked_init(self, config):
        real_init(self, config)
        made.append(weakref.ref(self))

    def residual(w):
        alive.append(sum(ref() is not None for ref in made))
        return real_residual(w)

    monkeypatch.setattr(StepOperators, "__init__", tracked_init)
    monkeypatch.setattr(cli, "divergence_residual", residual)
    gc.disable()
    try:
        assert main(["simulate", "--config", write(tmp_path / "run.ini", FORCED_RUN),
                     "--output", str(tmp_path / "out"), "--quiet"]) == 0
    finally:
        gc.enable()
    assert len(made) == 1
    assert alive == [0]


def test_manifest_max_cfl(tmp_path):
    """The largest dt max|Dw| kmax over a run's steps, recomputed on
    every state of an uninterrupted run but the last: deterministic, so
    outside the telemetry, and the same for every output cadence.  The
    forcing speeds the flow up, so the largest is not the first."""
    config = parse_config(FORCED_RUN).solver
    ops = StepOperators(config)
    cfls = []
    for state in every_step(config)[:-1]:
        ops.band_rhs(state.w.coeffs, ops.k1)
        cfls.append(config.dt * float(np.sqrt(ops.max_speed_squared())) * ops.kmax)
    for name, text in (("every3", FORCED_RUN),
                       ("every1", FORCED_RUN.replace("output_every = 3", "output_every = 1"))):
        out = tmp_path / name
        assert main(["simulate", "--config", write(tmp_path / f"{name}.ini", text),
                     "--output", str(out), "--quiet"]) == 0
        manifest = read_manifest(out)
        assert manifest["max_cfl"] == max(cfls)
        assert "max_cfl" not in manifest["telemetry"]
    assert 0.0 < max(cfls) < CFL_LIMIT
    assert cfls.index(max(cfls)) > 0


def certificate_reference(cfg):
    """The regularity certificate of a run of `cfg`, from one FieldNorms
    per state of `run`: the sups by max, the integrals by np.trapezoid."""
    theta = cfg.filter.theta
    times, l2, seminorm, grad_sq, theta_grad_sq = [], [], [], [], []
    for state, _ in run(cfg):
        norms = FieldNorms(state.w)
        times.append(state.t)
        l2.append(norms.l2())
        seminorm.append(norms.vertical(theta))
        grad_sq.append(norms.grad() ** 2)
        theta_grad_sq.append(norms.vertical_grad(theta) ** 2)
    return {"sup_l2": max(l2), "sup_theta_seminorm": max(seminorm),
            "integral_grad_sq": float(np.trapezoid(grad_sq, times)),
            "integral_theta_grad_sq": float(np.trapezoid(theta_grad_sq, times))}


CERTIFIED_RUN = ("[grid]\nn1 = 16\nn2 = 16\nn3 = 16\n[filter]\nalpha = 1.0\n"
                 "theta = {theta}\n[solver]\nnu = 0.01\ndt = 0.001\nt_end = 0.05\n")


@pytest.mark.parametrize("theta", [1.0, 0.75])
def test_regularity_certificate_of_a_viscous_decay(tmp_path, theta):
    """A single vertical mode decays monotonically, so the sups are the
    t = 0 norms; the integrals are the reference trapezoids."""
    text = CERTIFIED_RUN.format(theta=theta) + "[init]\nkind = single-mode\n"
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", write(tmp_path / "run.ini", text),
                   "--output", str(out), "--quiet") == 0
    got = read_manifest(out)["regularity"]
    cfg = parse_config(text).solver
    expect = certificate_reference(cfg)
    assert sorted(got) == sorted(expect)
    for name, value in expect.items():
        assert got[name] == pytest.approx(value, rel=1e-12), name
    w0 = next(run(cfg))[0].w
    assert got["sup_l2"] == pytest.approx(l2_norm(w0), rel=1e-12)
    assert got["sup_theta_seminorm"] == pytest.approx(vertical_seminorm(w0, theta),
                                                      rel=1e-12)
    assert got["integral_grad_sq"] > 0.0
    assert got["integral_theta_grad_sq"] > 0.0


def test_regularity_certificate_of_a_forced_run(tmp_path):
    """A Taylor-Green run forced along itself: its norms grow, so the
    sups are not the t = 0 norms; the certificate of two runs has the
    same values and equals the reference."""
    text = (CERTIFIED_RUN.format(theta=0.75)
            + "[forcing]\nkind = taylor-green\namplitude = 2.0\n")
    cfg = write(tmp_path / "run.ini", text)
    outs = [tmp_path / name for name in ("a", "b")]
    for out in outs:
        assert run_cli("simulate", "--config", cfg, "--output", str(out), "--quiet") == 0
    got, again = (read_manifest(out)["regularity"] for out in outs)
    assert got == again
    solver = parse_config(text).solver
    expect = certificate_reference(solver)
    for name, value in expect.items():
        assert got[name] == pytest.approx(value, rel=1e-12), name
    assert got["sup_l2"] > l2_norm(next(run(solver))[0].w)


def test_record_fold_of_a_zero_trajectory():
    """Zero states certify zero, rise nowhere and are finite."""
    g = Grid(16, 16, 16)
    zero = VectorField(g.band, np.zeros((3, *g.band.shape), dtype=complex))
    fold = _RecordFold()
    for t in (0.0, 0.1):
        fold.add(energy_terms(zero, zero, FilterSpec(1.0, 1.0), 1, nu=0.01, t=t))
    assert fold.certificate == {"sup_l2": 0.0, "sup_theta_seminorm": 0.0,
                                "integral_grad_sq": 0.0, "integral_theta_grad_sq": 0.0}
    assert (fold.count, fold.nonfinite, fold.rises, fold.first) == (2, 0, 0, 0.0)


def test_record_fold_counts_rises_and_non_finite_records():
    """A rise beyond a relative 1e-12 counts and one within it does not;
    a non-finite cell counts, and the NaN residual of a record that has
    no predecessor does not."""
    g = Grid(8, 8, 8)
    zero = VectorField(g.band, np.zeros((3, *g.band.shape), dtype=complex))
    base = energy_terms(zero, zero, FilterSpec(1.0, 1.0), 1, nu=0.01)
    fold = _RecordFold()
    for t, energy, power in [(0.0, 1.0, 0.0), (0.1, 1.0 + 1e-13, 0.0),
                             (0.2, 1.0 + 1e-11, 0.0), (0.3, 0.5, np.inf)]:
        fold.add(replace(base, t=t, model_energy=energy, forcing_power=power))
    assert (fold.count, fold.nonfinite, fold.rises, fold.first) == (4, 1, 1, 1.0)


def test_simulate_memory_independent_of_record_count(tmp_path, monkeypatch):
    """simulate keeps no record: its traced peak at 2000 records is that
    at 250.  The stepper is bounded on its own (test_solver), so here a
    step only moves the clock of one 8^3 state, and 2000 records take a
    fraction of a second; the warm-up call fills the interpreter's free
    lists."""
    def clock(state, ops):
        return SolverState(state.t + ops.config.dt, state.step_index + 1, state.w)

    monkeypatch.setattr(solver, "step", clock)

    def peak(records):
        path = write(tmp_path / "run.ini", "[grid]\nn1 = 8\nn2 = 8\nn3 = 8\n"
                     f"[solver]\ndt = 0.005\nt_end = {(records - 1) * 0.005!r}\n")
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", path, "--output",
                         str(tmp_path / f"out{records}"), "--quiet"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2000)
    small, large = peak(250), peak(2000)
    manifest = read_manifest(tmp_path / "out2000")
    assert manifest["assertions"][0]["detail"] == "2000 records"
    assert abs(large - small) <= 8 * 1024


def test_verify_operators(tmp_path):
    cfg = write(
        tmp_path / "ops.ini",
        "[operators]\nk3_max = 8\nalpha_values = 0.5,2.0\n"
        "theta_values = 0.75,1.0\norder_values = 0,1,3\n",
    )
    out = tmp_path / "out"
    assert run_cli("verify-operators", "--config", cfg, "--output", str(out),
                   "--quiet") == 0
    manifest = read_manifest(out)
    assert len(manifest["outputs"]) == 2 * 2 * 3
    table = out / "operators" / "alpha-0.5_theta-0.75_N-1.csv"
    lines = table.read_text().splitlines()
    assert lines[1] == "k3,A_symbol,D_symbol,bound_margin"
    assert len(lines) == 2 + 17  # k3 in [-8, 8]
    data = np.loadtxt(table, delimiter=",", skiprows=2)
    assert np.all(data[:, 3] >= -1e-12)
    k0 = data[data[:, 0] == 0][0]
    assert k0[1] == 1.0 and k0[2] == 1.0


def test_verify_inequalities_deterministic(tmp_path):
    cfg = write(
        tmp_path / "ineq.ini",
        "[inequalities]\ncount = 4\nresolution = 16\nband = 4\n",
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("verify-inequalities", "--config", cfg,
                       "--output", str(out), "--seed", "11", "--quiet") == 0
    assert (out1 / "inequalities.csv").read_bytes() == \
        (out2 / "inequalities.csv").read_bytes()
    lines = (out1 / "inequalities.csv").read_text().splitlines()
    assert lines[1] == "lemma,s,count,max_ratio,mean_ratio,resolution,seed"
    lemmas = {line.split(",")[0] for line in lines[2:]}
    assert lemmas == {"agmon", "ladyzhenskaya", "vertical_embedding",
                      "trilinear_i", "trilinear_ii"}
    assert all(line.split(",")[-1] == "11" for line in lines[2:])


def test_seed_changes_inequality_output(tmp_path):
    cfg = write(tmp_path / "ineq.ini",
                "[inequalities]\ncount = 3\nresolution = 16\nband = 4\n"
                "lemmas = ladyzhenskaya\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("verify-inequalities", "--config", cfg, "--output",
                   str(out1), "--seed", "1", "--quiet") == 0
    assert run_cli("verify-inequalities", "--config", cfg, "--output",
                   str(out2), "--seed", "2", "--quiet") == 0
    a = (out1 / "inequalities.csv").read_text().splitlines()[2]
    b = (out2 / "inequalities.csv").read_text().splitlines()[2]
    assert a != b


def test_split_bound_violation_keeps_every_row(tmp_path, monkeypatch):
    true_bound = inequalities.agmon_split_bound
    monkeypatch.setattr(
        inequalities, "agmon_split_bound",
        lambda coeffs, s: 0.0 if s == 0.75 else true_bound(coeffs, s),
    )
    cfg = write(tmp_path / "ineq.ini",
                "[inequalities]\ncount = 3\nresolution = 16\nband = 4\n")
    out = tmp_path / "out"
    assert run_cli("verify-inequalities", "--config", cfg,
                   "--output", str(out), "--quiet") == 2
    manifest = read_manifest(out)
    assert manifest["status"] == "assertion-failure"
    checks = {a["name"]: a for a in manifest["assertions"]}
    assert checks["ratios_finite"]["passed"]
    split = checks["agmon_split_bound"]
    assert not split["passed"]
    messages = split["detail"].split("; ")
    assert len(messages) == 3
    for i, message in enumerate(messages):
        assert message.startswith(
            f"s=0.75: split bound violated on sample {i}: sup="
        )
        assert message.endswith(" bound=0.0")
    rows = [line.split(",")[:2] for line in
            (out / "inequalities.csv").read_text().splitlines()[2:]]
    exponents = ["0.6", "0.75", "1.0"]
    assert rows == (
        [["agmon", s] for s in exponents] + [["ladyzhenskaya", "0.0"]]
        + [[lemma, s] for lemma in ("vertical_embedding", "trilinear_i",
                                    "trilinear_ii") for s in exponents]
    )


def test_dependence_command(tmp_path):
    cfg = write(tmp_path / "dep.ini",
                "[solver]\ndt = 0.01\nt_end = 0.1\n"
                "[dependence]\nepsilon = 1e-6\n")
    out = tmp_path / "out"
    assert run_cli("dependence", "--config", cfg, "--output", str(out),
                   "--quiet") == 0
    manifest = read_manifest(out)
    assert np.isfinite(manifest["fitted_c"])
    lines = (out / "dependence.csv").read_text().splitlines()
    assert lines[1].split(",") == [
        "t", "delta_norm", "gronwall_integrand", "cumulative_integral",
        "envelope",
    ]
    first = lines[2].split(",")
    assert float(first[1]) == pytest.approx(1e-6, rel=1e-9)


def test_dependence_rejects_small_theta(tmp_path, capsys):
    cfg = write(tmp_path / "dep.ini",
                "[solver]\nt_end = 0.05\n[filter]\ntheta = 0.4\n")
    assert run_cli("dependence", "--config", cfg,
                   "--output", str(tmp_path / "o")) == 1
    assert "theta > 1/2" in capsys.readouterr().err


def test_spectrum_on_checkpoint(tmp_path):
    sim_cfg = write(tmp_path / "sim.ini", "[solver]\nt_end = 0.02\n")
    sim_out = tmp_path / "sim"
    assert run_cli("simulate", "--config", sim_cfg, "--output", str(sim_out),
                   "--quiet") == 0
    spec_cfg = write(
        tmp_path / "spec.ini",
        f"[spectrum]\ncheckpoint = {sim_out / 'state.ckpt'}\n",
    )
    out = tmp_path / "spec"
    assert run_cli("spectrum", "--config", spec_cfg, "--output", str(out),
                   "--quiet") == 0
    manifest = read_manifest(out)
    assert manifest["assertions"][0]["name"] == "parseval_partition"
    assert manifest["assertions"][0]["passed"]
    data = np.loadtxt(out / "spectrum.csv", delimiter=",", skiprows=2)
    assert data[0, 0] == 0  # shells ordered from k3 = 0
    assert np.all(data[:, 1] >= 0)


def test_spectrum_rejects_full_layout_checkpoint(tmp_path, capsys):
    sim_cfg = write(tmp_path / "sim.ini", "[solver]\nt_end = 0.02\n")
    sim_out = tmp_path / "sim"
    assert run_cli("simulate", "--config", sim_cfg, "--output", str(sim_out),
                   "--quiet") == 0
    # the same bytes under the magics of the full-layout ADMCKPT1 and the
    # half-layout ADMCKPT2 formats, which are no longer read
    old = [tmp_path / f"v{version}.ckpt" for version in (1, 2)]
    for version, path in enumerate(old, start=1):
        path.write_bytes(f"ADMCKPT{version}\n".encode()
                         + (sim_out / "state.ckpt").read_bytes()[9:])
    codes = []
    for ckpt in (sim_out / "state.ckpt", *old):
        cfg = write(tmp_path / "spec.ini", f"[spectrum]\ncheckpoint = {ckpt}\n")
        codes.append(run_cli("spectrum", "--config", cfg, "--output",
                             str(tmp_path / f"spec-{ckpt.stem}"), "--quiet"))
        if ckpt in old:
            err = capsys.readouterr().err
            assert str(ckpt) in err and "bad magic" in err
    assert codes == [0, 1, 1]


def test_spectrum_requires_checkpoint(tmp_path, capsys):
    assert run_cli("spectrum", "--output", str(tmp_path / "o")) == 1
    assert "checkpoint" in capsys.readouterr().err


def test_spectrum_rejects_malformed_checkpoint(tmp_path, capsys):
    sim_cfg = write(tmp_path / "sim.ini", "[solver]\nt_end = 0.01\n")
    sim_out = tmp_path / "sim"
    assert run_cli("simulate", "--config", sim_cfg, "--output", str(sim_out),
                   "--quiet") == 0
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes((sim_out / "state.ckpt").read_bytes()[:12])
    spec_cfg = write(tmp_path / "spec.ini", f"[spectrum]\ncheckpoint = {cut}\n")
    assert run_cli("spectrum", "--config", spec_cfg,
                   "--output", str(tmp_path / "spec"), "--quiet") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and str(cut) in err[0]


def test_spectrum_rejects_checkpoint_with_trailing_bytes(tmp_path, capsys):
    sim_cfg = write(tmp_path / "sim.ini", "[solver]\nt_end = 0.01\n")
    sim_out = tmp_path / "sim"
    assert run_cli("simulate", "--config", sim_cfg, "--output", str(sim_out),
                   "--quiet") == 0
    padded = tmp_path / "padded.ckpt"
    padded.write_bytes((sim_out / "state.ckpt").read_bytes() + bytes(700))
    spec_cfg = write(tmp_path / "spec.ini", f"[spectrum]\ncheckpoint = {padded}\n")
    assert run_cli("spectrum", "--config", spec_cfg,
                   "--output", str(tmp_path / "spec"), "--quiet") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and str(padded) in err[0]
    assert "bytes after the coefficients" in err[0]


def test_config_hash_stamped_everywhere(tmp_path):
    cfg = write(tmp_path / "run.ini", "[solver]\nt_end = 0.02\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", cfg, "--output", str(out),
                   "--quiet") == 0
    manifest = read_manifest(out)
    stamp = f"# config_hash={manifest['config_hash']}"
    assert csv_hash_line(out / "diagnostics.csv") == stamp
    from admles.solver import read_checkpoint

    _, header = read_checkpoint(out / "state.ckpt")
    assert header["config_hash"] == manifest["config_hash"]


def test_manifest_versions_and_wall_time(tmp_path):
    cfg = write(tmp_path / "ops.ini",
                "[operators]\nk3_max = 4\nalpha_values = 1.0\n"
                "theta_values = 1.0\norder_values = 0\n")
    out = tmp_path / "out"
    assert run_cli("verify-operators", "--config", cfg, "--output", str(out),
                   "--quiet") == 0
    manifest = read_manifest(out)
    assert sorted(manifest["versions"]) == ["admles", "numpy", "python"]
    assert manifest["versions"]["numpy"] == np.__version__
    assert manifest["wall_time_seconds"] > 0
    assert manifest["seed"] == 0
    assert manifest["config"]["operators"]["k3_max"] == 4


def test_manifest_telemetry(tmp_path):
    """peak RSS and minor faults for every run, steps/s for simulate; the
    artifacts stay byte-identical across runs, since none of it enters a
    CSV or a checkpoint."""
    cfg = write(tmp_path / "sim.ini", "[solver]\nt_end = 0.03\n")
    outs = [tmp_path / name for name in ("a", "b")]
    for out in outs:
        assert run_cli("simulate", "--config", cfg, "--output", str(out),
                       "--quiet") == 0
    telemetry = read_manifest(outs[0])["telemetry"]
    assert sorted(telemetry) == ["io_s", "minor_faults", "peak_rss_mb", "records_s",
                                 "stepping_s", "steps_peak_rss_mb", "steps_per_s"]
    assert telemetry["peak_rss_mb"] > 0
    assert isinstance(telemetry["minor_faults"], int) and telemetry["minor_faults"] >= 0
    steps = read_checkpoint(outs[0] / "state.ckpt")[0].step_index
    wall = read_manifest(outs[0])["wall_time_seconds"]
    assert telemetry["steps_per_s"] == steps / wall
    phases = [telemetry[name] for name in ("stepping_s", "records_s", "io_s")]
    assert min(phases) >= 0 and telemetry["steps_peak_rss_mb"] >= 0
    assert sum(phases) <= wall
    assert telemetry["steps_peak_rss_mb"] <= telemetry["peak_rss_mb"]
    for name in ("diagnostics.csv", "state.ckpt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    ops_cfg = write(tmp_path / "ops.ini", "[operators]\nk3_max = 2\n")
    out = tmp_path / "ops"
    assert run_cli("verify-operators", "--config", ops_cfg, "--output", str(out),
                   "--quiet") == 0
    assert sorted(read_manifest(out)["telemetry"]) == ["minor_faults", "peak_rss_mb"]


def test_usage_error_exit_code(capsys):
    assert run_cli("no-such-command") == 1
    assert run_cli() == 1
    capsys.readouterr()


def run_python(code, *args):
    """The stdout of `code` run by a fresh interpreter that imports this
    admles; fails on a nonzero exit."""
    src = str(Path(admles.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    loaded = json.loads(run_python(
        "import json, sys; import admles.cli; print(json.dumps(sorted(sys.modules)))"))
    assert "admles.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_main_imports_no_numpy_module(tmp_path):
    # numpy loads numpy.fft and numpy.random lazily, and argparse's first
    # message lookup imports locale: an import inside main() would put
    # its time into the run's
    cfg = write(tmp_path / "tiny.ini",
                "[grid]\nn1 = 8\nn2 = 8\nn3 = 8\n[solver]\nt_end = 0.01\n"
                "[init]\nkind = random\nband = 2\n"
                "[forcing]\nkind = random\nband = 2\n"
                "[inequalities]\ncount = 2\nresolution = 8\nband = 2\n"
                "line_length = 16\n")
    code = (
        "import json, sys\n"
        "import admles.cli\n"
        "cfg, out = sys.argv[1:]\n"
        "before = set(sys.modules)\n"
        "codes = [admles.cli.main([command, '--config', cfg, '--output', out + command,\n"
        "                          '--quiet'])\n"
        "         for command in ('simulate', 'verify-inequalities')]\n"
        "print(json.dumps([codes, sorted(set(sys.modules) - before)]))\n")
    codes, new = json.loads(run_python(code, cfg, str(tmp_path / "out-")))
    assert codes == [0, 0]
    assert new == []
