"""Mutation probe: one-place edits of src/admles/ that the named tests
must kill.

    python3 tools/mutants.py

Each mutant names a file of src/admles/, its exact old and new text
(the old text must occur once) and the tests meant to kill it.  The
script first runs every named test on an unmutated copy of the tree,
then each mutant on its own copy under a temporary directory, two at a
time, running only that mutant's tests.  It prints the survivors and the
mutants whose old text no longer occurs, and exits 1 if there is any.
pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
JOBS = 2
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/admles/
    old: str
    new: str
    tests: tuple[str, ...]


SOLVER, DIAG, CLI, SPECTRAL = "solver.py", "diagnostics.py", "cli.py", "spectral.py"
FILTERS, ENSEMBLES, INEQ, GRID = "filters.py", "ensembles.py", "inequalities.py", "grid.py"
T_SOLVER, T_CLI, T_DIAG = "tests/test_solver.py", "tests/test_cli.py", "tests/test_diagnostics.py"
T_SPECTRAL, T_FILTERS = "tests/test_spectral.py", "tests/test_filters.py"
T_ENS, T_INEQ, T_GRID = "tests/test_ensembles.py", "tests/test_inequalities.py", "tests/test_grid.py"

MUTANTS = (
    # the first probe: 25 mutants
    Mutant("residual: second record's forcing power", DIAG,
           "mean_forcing = 0.5 * (first.forcing_power + second.forcing_power)",
           "mean_forcing = second.forcing_power",
           (f"{T_DIAG}::test_budget_residual_second_order_under_forcing",)),
    Mutant("dependence: right-endpoint rule", SOLVER,
           "* (integrands[-1] + integrand) if times else 0.0)",
           "* (integrand + integrand) if times else 0.0)",
           (f"{T_SOLVER}::test_dependence_report_is_what_its_docstring_says",)),
    Mutant("dependence: integrand of the base run", SOLVER,
           "integrand = gronwall_integrand(FieldNorms(q.w), theta)",
           "integrand = gronwall_integrand(FieldNorms(b.w), theta)",
           (f"{T_SOLVER}::test_dependence_report_is_what_its_docstring_says",)),
    Mutant("agmon: zeta tail from m + 2", INEQ,
           "_hurwitz_zeta(2.0 * s, float(m + 1))",
           "_hurwitz_zeta(2.0 * s, float(m + 2))",
           (f"{T_INEQ}::test_agmon_split_bound_equals_the_hand_formula",)),
    Mutant("ladyzhenskaya: full gradient", INEQ,
           "np.sqrt(norms.l2() * norms.horizontal_grad())",
           "np.sqrt(norms.l2() * norms.grad())",
           (f"{T_INEQ}::test_ladyzhenskaya_ratio_closed_form",)),
    Mutant("CFL limit 1.0", SOLVER, "CFL_LIMIT = 0.5", "CFL_LIMIT = 1.0",
           (f"{T_SOLVER}::test_cfl_limit_is_one_half",)),
    Mutant("CFL number without kmax", SOLVER,
           "cfl = ops.cfl = dt * speed * ops.kmax", "cfl = ops.cfl = dt * speed",
           (f"{T_SOLVER}::test_cfl_speed_is_max_of_deconvolved_samples",)),
    Mutant("viscous factor times 1.001", SOLVER,
           "np.exp(-config.nu * config.dt * ksq)",
           "np.exp(-config.nu * config.dt * ksq) * 1.001",
           (f"{T_SOLVER}::test_pure_viscous_decay_exact",)),
    Mutant("A for bar in the nonlinear term", SOLVER,
           "conv *= self.band_bar", "conv *= self.symbols.filter[..., self.band.cols]",
           (f"{T_SOLVER}::test_band_step_matches_half_layout_heun_bitwise",)),
    Mutant("forcing power without D_N", DIAG,
           "forcing_power = inner_product(w, f, symbols.deconv)",
           "forcing_power = inner_product(w, f)",
           (f"{T_DIAG}::test_energy_terms_and_spectrum_match_full_layout_reference",)),
    Mutant("model energy without A", DIAG,
           "model_energy=0.5 * quadratic_form(grid, norms.plain, weight)",
           "model_energy=0.5 * quadratic_form(grid, norms.plain, symbols.deconv)",
           (f"{T_DIAG}::test_energy_order_zero_closed_form",)),
    Mutant("Gronwall: gradient exponent", DIAG,
           "grad ** (2.0 - 1.0 / theta)", "grad ** (2.0 - 0.5 / theta)",
           (f"{T_DIAG}::test_gronwall_integrand_values",)),
    Mutant("dependence fit: min for max", SOLVER,
           "fitted = float(np.max(log_growth[valid]", "fitted = float(np.min(log_growth[valid]",
           (f"{T_SOLVER}::test_dependence_linearity_and_envelope",)),
    Mutant("theta = 0: the mean mode filtered", FILTERS,
           "return np.where(k3 == 0.0, 0.0, x)", "return x",
           (f"{T_FILTERS}::test_filter_symbol_values",)),
    Mutant("Parseval weight 2 at Nyquist", GRID,
           "(k3 > 0) & (k3 < self.n3 // 2)", "(k3 > 0) & (k3 <= self.n3 // 2)",
           (f"{T_GRID}::test_half_layout_lines",)),
    Mutant("D_N^{1/2} as D_N", FILTERS,
           "lines = (a, 1.0 / a, np.sqrt(a), d, np.sqrt(d))",
           "lines = (a, 1.0 / a, np.sqrt(a), d, d)",
           (f"{T_FILTERS}::test_half_deconv_squares_to_full",)),
    Mutant("checkpoint t in single precision", SOLVER,
           '"t": state.t,', '"t": float(np.float32(state.t)),',
           (f"{T_SOLVER}::test_checkpoint_round_trip",)),
    Mutant("Heun weight times 1 + 1e-9", SOLVER,
           "k1 *= 0.5 * dt", "k1 *= 0.5 * dt * (1.0 + 1e-9)",
           (f"{T_SOLVER}::test_band_step_matches_half_layout_heun_bitwise",)),
    Mutant("projection drops k3", SPECTRAL,
           "        kdotu += term\n        np.multiply(kd[2], b[2], out=term)\n"
           "        kdotu += term\n",
           "        kdotu += term\n",
           (f"{T_SPECTRAL}::test_leray_projection_properties",)),
    Mutant("|k3| for |k3|^2 in the gradient", SPECTRAL,
           "self.grid.k3[0, 0] ** 2 * self.plain", "np.abs(self.grid.k3[0, 0]) * self.plain",
           (f"{T_SPECTRAL}::test_norms_match_full_layout_reference",)),
    Mutant("seminorm exponent s for 2 s", SPECTRAL,
           "return self._root(self.plain, self.grid.k3 ** (2.0 * s))",
           "return self._root(self.plain, self.grid.k3 ** s)",
           (f"{T_SPECTRAL}::test_vertical_seminorm_oracles",)),
    Mutant("-c for 0.0 - c", SOLVER,
           "np.subtract(0.0, c, out=c)", "np.negative(c, out=c)",
           (f"{T_SOLVER}::test_an_unforced_stepper_steps_as_one_with_a_band_of_zeros",)),
    Mutant("certificate: last norm for sup", DIAG,
           'cert["sup_l2"] = max(cert["sup_l2"], rec.l2_norm)', 'cert["sup_l2"] = rec.l2_norm',
           (f"{T_CLI}::test_regularity_certificate_of_a_viscous_decay",)),
    Mutant("L^4 profile times 1.0001", INEQ,
           "np.sqrt(np.maximum(plane_profile(u, 4), 0.0))",
           "np.sqrt(np.maximum(plane_profile(u, 4), 0.0)) * 1.0001",
           (f"{T_INEQ}::test_mixed_l4_norm_analytic",)),
    Mutant("CFL speed without u2", SOLVER,
           "            sq += np.multiply(u2, u2, out=square)\n", "",
           (f"{T_SOLVER}::test_cfl_speed_is_max_of_deconvolved_samples",)),
    # the second probe: 16 mutants
    Mutant("no record after the final step", SOLVER,
           "if (self.state.step_index % config.output_every == 0\n"
           "                    or self.state.step_index == config.num_steps):",
           "if self.state.step_index % config.output_every == 0:",
           (f"{T_SOLVER}::test_run_output_cadence",)),
    Mutant("_mass: a sum for the difference", SPECTRAL,
           "part = out = np.subtract(part,", "part = out = np.add(part,",
           (f"{T_SPECTRAL}::test_l2_distance_keeps_the_bits_of_the_norm_of_the_difference",)),
    Mutant("spectrum without its Parseval weight", DIAG,
           "grid.volume * grid.parseval_weight.ravel() * norms.plain",
           "grid.volume * norms.plain",
           (f"{T_DIAG}::test_vertical_spectrum_parseval",)),
    Mutant("residual: second record's dissipation", DIAG,
           "mean_dissipation = 0.5 * (first.dissipation + second.dissipation)",
           "mean_dissipation = second.dissipation",
           (f"{T_DIAG}::test_budget_residual_second_order",)),
    Mutant("steps_peak_rss_mb renamed", CLI,
           'ctx.telemetry["steps_peak_rss_mb"]', 'ctx.telemetry["steps_peak_rss"]',
           (f"{T_CLI}::test_manifest_telemetry",)),
    Mutant("rise tolerance 1e-10", DIAG,
           "last.model_energy * (1.0 + 1e-12)", "last.model_energy * (1.0 + 1e-10)",
           (f"{T_CLI}::test_record_fold_counts_rises_and_non_finite_records",)),
    Mutant("Gronwall: seminorm exponent", DIAG,
           "theta_grad ** (1.0 / theta)", "theta_grad ** (0.5 / theta)",
           (f"{T_DIAG}::test_gronwall_integrand_values",)),
    Mutant("vector draw decay doubled", ENSEMBLES,
           "k2 ** (-decay / 2.0)", "k2 ** (-decay)",
           (f"{T_ENS}::test_draws_are_the_full_layout_reference_bitwise",)),
    Mutant("line draw decay halved", ENSEMBLES,
           "k ** (-spec.amplitude_decay)", "k ** (-0.5 * spec.amplitude_decay)",
           (f"{T_ENS}::test_amplitude_decay_shapes_spectrum",)),
    Mutant("dependence fit in log2", SOLVER,
           "np.log(deltas_arr[1:] / deltas_arr[0])", "np.log2(deltas_arr[1:] / deltas_arr[0])",
           (f"{T_SOLVER}::test_dependence_linearity_and_envelope",)),
    Mutant("max_cfl keeps the last", SOLVER,
           "self.max_cfl = max(self.max_cfl, self.ops.cfl)", "self.max_cfl = self.ops.cfl",
           (f"{T_SOLVER}::test_max_cfl_is_the_largest_cfl_number",)),
    Mutant("CFL limit 0.55", SOLVER, "CFL_LIMIT = 0.5", "CFL_LIMIT = 0.55",
           (f"{T_SOLVER}::test_cfl_limit_is_one_half",)),
    Mutant("divergence tolerance 1e-3", CLI,
           "residual <= 1e-10 * max(scale, 1e-300)", "residual <= 1e-3 * max(scale, 1e-300)",
           (f"{T_CLI}::test_a_divergent_final_state_fails_its_check",)),
    Mutant("stepping_s of the last step only", SOLVER,
           "self.stepping_s += time.perf_counter() - start",
           "self.stepping_s = time.perf_counter() - start",
           (f"{T_CLI}::test_telemetry_seconds_add_up",)),
    Mutant("io_s without the checkpoint", CLI,
           "io_s=writing + time.perf_counter() - start)", "io_s=writing)",
           (f"{T_CLI}::test_telemetry_seconds_add_up",)),
    Mutant("records_s without the fold", CLI,
           "records_s=stream.records_s + folding,", "records_s=stream.records_s,",
           (f"{T_CLI}::test_telemetry_seconds_add_up",)),
    # the record fold
    Mutant("residual: first record's forcing power", DIAG,
           "mean_forcing = 0.5 * (first.forcing_power + second.forcing_power)",
           "mean_forcing = first.forcing_power",
           (f"{T_DIAG}::test_budget_residual_second_order_under_forcing",)),
    Mutant("rises without a tolerance", DIAG,
           "rec.model_energy > last.model_energy * (1.0 + 1e-12)",
           "rec.model_energy > last.model_energy",
           (f"{T_CLI}::test_record_fold_counts_rises_and_non_finite_records",)),
    Mutant("certificate: a whole step for the half", DIAG,
           "half = 0.5 * (rec.t - last.t)", "half = rec.t - last.t",
           (f"{T_CLI}::test_regularity_certificate_of_a_viscous_decay",)),
    # the model's consistency order
    Mutant("nonlinear term of w, not D_N w", SOLVER,
           "z = np.multiply(w, self.band_deconv, out=out)", "z = np.multiply(w, 1.0, out=out)",
           (f"{T_SOLVER}::test_deconvolved_state_converges_at_the_model_order",)),
    Mutant("forcing unbarred", SOLVER,
           "np.divide(f, a, out=bar_f)", "np.divide(f, 1.0, out=bar_f)",
           (f"{T_SOLVER}::test_deconvolved_state_converges_at_the_model_order",)),
    Mutant("D_N summed to N - 1", FILTERS,
           "(spec.order + 1) * np.log1p(-1.0 / a)", "spec.order * np.log1p(-1.0 / a)",
           (f"{T_SOLVER}::test_deconvolved_state_converges_at_the_model_order",)),
    # the transforms' scratch as the stepper's band scratch
    Mutant("band_forward: the high block one row off", SPECTRAL,
           "box[high] = pad[rows]", "box[high] = pad[rows.start - 1:rows.stop - 1]",
           (f"{T_SPECTRAL}::test_pruned_transforms_equal_full_ones_bitwise",)),
    Mutant("row blocks: the last, short block skipped", SPECTRAL,
           "for first in range(0, rows, height):",
           "for first in range(0, rows - rows % height, height):",
           (f"{T_SOLVER}::test_slabs_keep_the_bits_of_a_step",)),
    Mutant("band_rhs: one forcing block not copied back", SOLVER,
           "            for mine, theirs in blocks:\n                c[theirs] = bar_f[mine]",
           "            for mine, theirs in blocks[1:]:\n                c[theirs] = bar_f[mine]",
           (f"{T_SOLVER}::test_band_step_matches_half_layout_heun_bitwise",)),
    # the exit code, decided once in main
    Mutant("a failed assertion exits 0", CLI,
           'code = 0 if all(a["passed"] for a in ctx.assertions) else 2', "code = 0",
           (f"{T_CLI}::test_a_divergent_final_state_fails_its_check",)),
)


def copy_tree(dest: Path) -> Path:
    """src/, tests/ and pyproject.toml of the repository under `dest`."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    return dest


def pytest(tree: Path, tests, *options: str) -> subprocess.CompletedProcess:
    """pytest on `tests` of `tree`, importing admles from the tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *options, *tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def apply(tree: Path, mutant: Mutant) -> bool:
    """Edits the copy; False if the old text does not occur exactly once."""
    path = tree / "src" / "admles" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def probe(mutant: Mutant, scratch: Path) -> str:
    """'killed', 'survived' or 'stale' (the old text is gone)."""
    tree = copy_tree(Path(tempfile.mkdtemp(dir=scratch)))
    try:
        if not apply(tree, mutant):
            return "stale"
        try:
            return "killed" if pytest(tree, mutant.tests, "-x").returncode else "survived"
        except subprocess.TimeoutExpired:
            return "killed"
    finally:
        shutil.rmtree(tree)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        scratch = Path(scratch)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        baseline = pytest(copy_tree(scratch / "baseline"), tests)
        if baseline.returncode:
            print(baseline.stdout[-4000:])
            print("the named tests fail on the unmutated tree", file=sys.stderr)
            return 2
        with ThreadPoolExecutor(JOBS) as pool:
            outcomes = list(pool.map(lambda m: probe(m, scratch), MUTANTS))
    bad = [(m, o) for m, o in zip(MUTANTS, outcomes) if o != "killed"]
    for mutant, outcome in bad:
        print(f"{outcome}: {mutant.name} ({mutant.file}) -> {', '.join(mutant.tests)}")
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed, "
          f"{sum(o == 'survived' for _, o in bad)} survived")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
