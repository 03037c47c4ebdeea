"""admles benchmark: closed-loop CLI runs with output checks.

    python3 bench/run.py --workload sim32_dense --seed 0 --seconds 35 --trace 0

Each sample is one fresh single-threaded ``python3`` process that calls
``admles.cli.main`` on a config generated from the seed; one client runs
samples back to back until ``--seconds`` have passed, so a slower
program gets fewer samples.  Every sample's outputs are checked.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload in turn.  The
exit code is 1 if any output check failed, 2 if the program is absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import (  # noqa: E402
    END_TO_END, LAYER_METRICS, PER_LAYER, SPEC, layer_values, median, reduce_layers,
    span_table,
)
from workloads import (  # noqa: E402
    BUDGET_C, DEFAULT_SEED, WORKLOADS, Workload, check_outputs,
)

WORK_DIR = ROOT / ".benchwork"
MIN_PLAIN = 3  # untraced samples per run, however long each one takes
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150.0
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
# Baseline of one 64^3 step on the seed commit (ROADMAP.md, 2 cores), in ms.
ROADMAP_64 = {"step": 584.0, "tensor_divergence": 201.0, "rhs": 241.0,
              "cfl": 43.0, "energy_terms": 93.0}


def environment() -> dict:
    """Machine facts (read-only); cache sizes as the kernel reports them."""
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": "unknown",
           "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                "unknown")
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                level = (index / "level").read_text().strip()
                env[f"L{level}_per_instance"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return env


def _artifact_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


def run_sample(w: Workload, seed: int, sample_dir: Path, traced: bool,
               pinned: bool) -> dict:
    """Run one child process and check what it wrote."""
    sample_dir.mkdir(parents=True)
    outdir = sample_dir / "out"
    config = sample_dir / "config.ini"
    config.write_text(w.config(seed, outdir))
    result_path = sample_dir / "result.json"
    with open(sample_dir / "log.txt", "wb") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), repr(spawn), str(result_path),
             "1" if traced else "0", "--", w.command, "--config", str(config),
             "--quiet"],
            stdout=log, stderr=subprocess.STDOUT, env=CHILD_ENV, cwd=ROOT)
        timed_out = False
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    sample = {"traced": traced, "problems": []}
    if timed_out:
        sample["problems"].append(f"child timed out after {CHILD_TIMEOUT_S:g} s")
        return sample
    try:
        sample.update(json.loads(result_path.read_text()))
    except (OSError, ValueError):
        tail = (sample_dir / "log.txt").read_text(errors="replace")[-2000:]
        sample["problems"].append(f"child exited {proc.returncode} without a result: {tail}")
        return sample
    problems, facts = check_outputs(w, outdir, sample["exit_code"], seed, pinned)
    sample["problems"] += problems
    sample["facts"] = facts
    sample["artifact_bytes"] = _artifact_bytes(outdir)
    csv_path = outdir / w.csv_name()
    if csv_path.is_file():
        sample["csv_sha256"] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    return sample


def measure(w: Workload, seed: int, seconds: float, trace: bool,
            pinned: bool) -> list[dict]:
    """Closed loop, one client: the next sample starts when one ends.

    With tracing, traced and untraced samples alternate so that both see
    the same machine state; the untraced ones give the overhead base.
    """
    run_dir = WORK_DIR / f"{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    # untimed: byte-compile admles and warm the file cache, which users
    # pay once per install, not per run
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import admles.cli", str(ROOT / "src")], env=CHILD_ENV, check=True,
                   timeout=CHILD_TIMEOUT_S)
    samples = []
    deadline = time.monotonic() + seconds
    try:
        while True:
            plain = sum(not s["traced"] for s in samples)
            traced = len(samples) - plain
            enough = plain >= MIN_PLAIN and (not trace or traced >= MIN_TRACED)
            if enough and time.monotonic() >= deadline:
                break
            sample_dir = run_dir / f"{len(samples):03d}"
            samples.append(run_sample(w, seed, sample_dir, trace and plain > traced,
                                      pinned))
            shutil.rmtree(sample_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    digests = {s.get("csv_sha256") for s in samples if "csv_sha256" in s}
    if len(digests) > 1:
        for s in samples:
            s["problems"].append("CSV differs between samples of one config and seed")
    return samples


def end_to_end(w: Workload, plain: list[dict]) -> dict[str, float]:
    return {
        "wall_s": median([s["wall_s"] for s in plain]),
        "setup_s": median([s["setup_s"] for s in plain]),
        "work_per_s": median([w.work / s["wall_s"] for s in plain]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in plain]),
    }


def _quartiles(values) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f" [q1 {q1:.4g}, q3 {q3:.4g}]"


def report(w: Workload, seed: int, samples: list[dict]) -> tuple[dict, dict]:
    """Print the human-readable block; return (end-to-end, per-layer)."""
    ok = [s for s in samples if "wall_s" in s]
    plain = [s for s in ok if not s["traced"]]
    failed = [s for s in samples if s["problems"]]
    print(f"== {w.name}: {w.command} n={w.n} seed={seed} "
          f"samples={len(samples)} (closed loop, 1 client)")
    for s in failed:
        print(f"   FAILED: {'; '.join(s['problems'])}")
    if not plain:
        return {}, {}
    metrics = end_to_end(w, plain)
    for name, value in metrics.items():
        shown = w.work_unit if name == "work_per_s" else name
        values = [w.work / s["wall_s"] if name == "work_per_s" else s[name] for s in plain]
        print(f"   {shown:<14} {value:.6g} {END_TO_END[name]}  "
              f"(median of {len(plain)}{_quartiles(values)})")
    print(f"   {'failed_frac':<14} {len(failed) / len(samples):.6g} fraction "
          f"({len(failed)} of {len(samples)})")
    facts = next((s["facts"] for s in ok if s.get("facts")), {})
    print(f"   working set: vector field {w.field_bytes() / 2**20:.3g} MiB, "
          f"retained states {w.retained_state_bytes() / 2**20:.4g} MiB (computed)")
    if "budget_constant" in facts:
        print(f"   budget residual: measured constant {facts['budget_constant']:.3g}, "
              f"bound {BUDGET_C}")
    print(f"   versions: {json.dumps(facts.get('versions', {}), sort_keys=True)}")
    traced = [s for s in ok if s["traced"]]
    if not traced:
        return metrics, {}
    tables = [span_table(s["spans"]) for s in traced]
    layers = reduce_layers(
        [layer_values(t, s["artifact_bytes"], len(s["missing"]))
         for t, s in zip(tables, traced)],
        tables, [s["wall_s"] for s in traced], [s["wall_s"] for s in plain])
    print(f"   traced samples: {len(traced)}; per-layer (bytes and flops computed "
          f"from array shapes):")
    for name, unit in LAYER_METRICS.items():
        idle = layers[name] == 0 and not name.startswith("trace.")
        note = "  (not exercised on this workload)" if idle else ""
        print(f"   {name:<36} {layers[name]:.6g} {unit}{note}")
    for missing in traced[0]["missing"]:
        print(f"   missing hook: {missing}")
    if w.simulate and w.n == 64:
        _reconcile(tables)
    return metrics, layers


def _reconcile(tables) -> None:
    """Traced 64^3 per-call times beside the ROADMAP baseline."""
    def per_call(name):
        rows = [t[name] for t in tables if name in t]
        return 1e3 * median([r["total"] / r["calls"] for r in rows]) if rows else 0.0

    got = {"step": per_call("solver.step"),
           "tensor_divergence": per_call("spectral.tensor_divergence"),
           "rhs": per_call("solver.rhs"), "cfl": per_call("solver.cfl"),
           "energy_terms": per_call("diagnostics.energy_terms")}
    print("   64^3 per call, ROADMAP baseline -> traced here (ms): " + ", ".join(
        f"{k} {ROADMAP_64[k]:.0f} -> {got[k]:.0f}" for k in ROADMAP_64))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "admles" / "cli.py").is_file():
        print(f"admles sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"env {json.dumps(environment(), sort_keys=True)}")
    attempted = failed = 0
    metrics = {}
    for name in names:
        w = WORKLOADS[name]
        samples = measure(w, args.seed, args.seconds, bool(args.trace),
                          pinned=args.seed == DEFAULT_SEED)
        attempted += len(samples)
        failed += sum(bool(s["problems"]) for s in samples)
        metrics_e2e, layers = report(w, args.seed, samples)
        values = layers if args.trace else metrics_e2e
        wanted = PER_LAYER if args.trace else END_TO_END
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in wanted.items():
            if metric in values:
                metrics[prefix + metric] = {"value": values[metric], "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
