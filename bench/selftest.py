"""Self-tests of the benchmark itself (about a minute on 2 cores).

    python3 bench/selftest.py

They run tiny grids through the same command, check that every metric
and every span shows up, that every listed per-layer metric is positive
on each full workload, that the output check rejects corrupted CSVs,
that a hung child is counted as failed, and that the command refuses to
run where the program is absent.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from metrics import END_TO_END, PER_LAYER, layer_values, span_table  # noqa: E402
from workloads import DEFAULT_SEED, TINY, WORKLOADS, check_outputs  # noqa: E402

SIM_SPANS = {
    "spectral.fft", "spectral.transform", "spectral.tensor_divergence",
    "spectral.leray_project", "spectral.norms", "filters.apply",
    "filters.symbol", "solver.run", "solver.step", "solver.rhs", "solver.cfl",
    "solver.setup", "solver.checkpoint", "diagnostics.energy_terms",
    "ensembles.draw", "cli",
}
# the spans each workload must fire; together they cover every hook
EXPECTED_SPANS = {
    "sim32_dense": SIM_SPANS,
    "sim64_sparse": SIM_SPANS,
    "ineq32": {
        "spectral.fft", "spectral.transform", "spectral.tensor_divergence",
        "spectral.leray_project", "spectral.resample", "spectral.norms",
        "ensembles.draw", "inequalities.ratio", "inequalities.runner", "cli",
    },
}


def _main_tiny(*args) -> tuple[int, str]:
    """The command on the tiny grids; seed 3 is not pinned by the reference."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.dict(run.WORKLOADS, TINY):
        code = run.main(["--seed", "3", "--seconds", "0", *args])
    return code, out.getvalue()


def _edit_csv(path: Path, row: int, column: str, edit) -> None:
    """Replace one cell (data row numbers start at 1)."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    cells = lines[1 + row].split(",")
    index = header.index(column)
    cells[index] = edit(cells[index])
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class BenchSelfTest(unittest.TestCase):
    def test_smoke_every_workload_reports_every_metric(self):
        code, out = _main_tiny("--workload", "all")
        self.assertEqual(code, 0, out)
        result = json.loads(out.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        for name in WORKLOADS:
            for metric, unit in END_TO_END.items():
                entry = result["metrics"][f"{name}.{metric}"]
                self.assertEqual(entry["unit"], unit)
                self.assertTrue(math.isfinite(entry["value"]) and entry["value"] > 0)
        for label in ("wall_s", "setup_s", "steps_per_s", "samples_per_s",
                      "peak_rss_mb", "failed_frac"):
            self.assertIn(f"   {label} ", out)

    def test_traced_run_fires_every_span_and_metric(self):
        for name, w in TINY.items():
            samples = run.measure(w, 3, 0.0, True, pinned=False)
            traced = [s for s in samples if s["traced"]]
            self.assertTrue(traced)
            fired = {span[0] for span in traced[0]["spans"]}
            self.assertEqual(traced[0]["missing"], [])
            self.assertLessEqual(EXPECTED_SPANS[name], fired, name)
        covered = set().union(*EXPECTED_SPANS.values())
        self.assertEqual(covered, {*tracer.HOOKS, "spectral.fft"})

        code, out = _main_tiny("--workload", "sim64_sparse", "--trace", "1")
        self.assertEqual(code, 0, out)
        metrics = json.loads(out.splitlines()[-1])["metrics"]
        self.assertEqual(set(metrics), set(PER_LAYER))
        for metric, unit in PER_LAYER.items():
            self.assertEqual(metrics[metric]["unit"], unit)

    def test_listed_layer_metrics_are_positive_on_full_workloads(self):
        for name, w in WORKLOADS.items():
            sample_dir = run.WORK_DIR / f"selftest-layers-{name}"
            shutil.rmtree(sample_dir, ignore_errors=True)
            sample = run.run_sample(w, 3, sample_dir, traced=True, pinned=False)
            shutil.rmtree(sample_dir)
            self.assertEqual(sample["problems"], [])
            values = layer_values(span_table(sample["spans"]), sample["artifact_bytes"],
                                  len(sample["missing"]))
            for metric in PER_LAYER:
                self.assertGreater(values[metric], 0, f"{name}: {metric}")

    def test_hung_child_counts_as_failed(self):
        sample_dir = run.WORK_DIR / "selftest-timeout"
        shutil.rmtree(sample_dir, ignore_errors=True)
        with mock.patch.object(run, "CHILD_TIMEOUT_S", 0.01):
            sample = run.run_sample(TINY["ineq32"], 3, sample_dir, traced=False,
                                    pinned=False)
        shutil.rmtree(sample_dir)
        self.assertEqual(sample["problems"], ["child timed out after 0.01 s"])
        self.assertNotIn("wall_s", sample)

    def test_missing_hook_is_listed_not_fatal(self):
        sys.path.insert(0, str(run.ROOT / "src"))
        import admles.cli  # noqa: F401

        hooks = dict(tracer.HOOKS)
        hooks["gone"] = ("filters", ("apply_removed_helper", "NoClass.method"))
        t = tracer.Tracer()
        with mock.patch.dict(tracer.HOOKS, hooks):
            t.install_admles()
        self.assertEqual(sorted(t.missing), [
            "admles.filters.NoClass.method: no such method",
            "admles.filters.apply_removed_helper: no such function",
        ])

    def test_output_check_rejects_corrupted_csv(self):
        cases = {
            # a wrong energy in one row breaks the O(dt^2) budget closure
            "sim32_dense": [(5, "model_energy", lambda v: repr(float(v) * 1.001)),
                            (3, "l2_norm", lambda v: "nan")],
            "ineq32": [(2, "max_ratio", lambda v: repr(-float(v))),
                       (1, "mean_ratio", lambda v: "inf")],
        }
        for name, edits in cases.items():
            w = TINY[name]
            sample_dir = run.WORK_DIR / f"selftest-{name}"
            shutil.rmtree(sample_dir, ignore_errors=True)
            sample = run.run_sample(w, 4, sample_dir, traced=False, pinned=False)
            self.assertEqual(sample["problems"], [])
            csv_path = sample_dir / "out" / w.csv_name()
            pristine = csv_path.read_text()
            for row, column, edit in edits:
                _edit_csv(csv_path, row, column, edit)
                problems, _ = check_outputs(w, sample_dir / "out", 0, 4, pinned=False)
                self.assertTrue(problems, f"{name}: {column} edit not caught")
                csv_path.write_text(pristine)
            shutil.rmtree(sample_dir)

    def test_reference_catches_a_small_error(self):
        for name, column in (("ineq32", "max_ratio"), ("sim64_sparse", "l2_norm")):
            w = WORKLOADS[name]
            sample_dir = run.WORK_DIR / f"selftest-ref-{name}"
            shutil.rmtree(sample_dir, ignore_errors=True)
            sample = run.run_sample(w, DEFAULT_SEED, sample_dir, traced=False, pinned=True)
            self.assertEqual(sample["problems"], [])
            csv_path = sample_dir / "out" / w.csv_name()
            rows = len(csv_path.read_text().splitlines()) - 2
            _edit_csv(csv_path, rows, column, lambda v: repr(float(v) * (1 + 1e-7)))
            problems, _ = check_outputs(w, sample_dir / "out", 0, DEFAULT_SEED, pinned=True)
            self.assertTrue(any("reference" in p for p in problems), problems)
            shutil.rmtree(sample_dir)

    def test_refuses_to_run_without_the_program(self):
        bare = run.WORK_DIR / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "ineq32", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
