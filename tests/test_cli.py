"""End-to-end command-line runs: artifacts, determinism, exit codes."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import admles
from admles import inequalities
from admles.cli import main
from admles.config import parse_config
from admles.diagnostics import attach_residuals
from admles.solver import CFLError, read_checkpoint, run


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
    # the checkpoint holds the state of the last row
    state, _ = read_checkpoint(out / "state.ckpt")
    assert state.t == rows[-1][0]
    assert manifest["abort"]["steps_completed"] == state.step_index


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
