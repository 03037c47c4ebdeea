"""The three workloads: generated INI configs and their output checks.

Every input comes from the benchmark seed: ``run.seed``, ``init.seed``
and ``forcing.seed`` are derived from it, and the program sees only the
generated config file.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# The default seed is the one whose outputs are pinned in reference.json.
DEFAULT_SEED = 0
# Relative tolerance against reference.json: a reordering of floating-point
# sums (an rfft core differs at ~4e-15 per call, compounding over the steps)
# stays far inside it, while any change of the physics or of the sample
# draws moves these outputs by 1e-6 or more.
REFERENCE_RTOL = 1e-9
# Budget residual bound, max_t |dE/dt + D - P| <= BUDGET_C (dt r)^2 S: Heun
# is second order, so the one-step closure of the exact semi-discrete
# energy identity errs by O(dt^2) times the second time derivative of the
# budget terms.  r = max (D + |P|) / E is the run's fastest relative energy
# rate and S = max (D + |P|) the largest budget term, read from the CSV.
# Seeds 0-9 and 21-29 of sim32_dense measure the constant at 0.29-0.38.
BUDGET_C = 4.0
# the CSV cells that are documented as nan: no predecessor on the first row
_NAN_CELLS = {("diagnostics.csv", 1, "budget_residual")}

SIM_PHYSICS = {
    "filter": {"alpha": 0.5, "theta": 0.75},
    "solver": {"nu": 0.05, "deconv_order": 2, "dt": 0.005},
    "init": {"kind": "random", "band": 4, "energy": 4.0},
    "forcing": {"kind": "random", "band": 3, "energy": 2.0},
}
INEQ_LEMMAS = ("agmon", "ladyzhenskaya", "vertical_embedding", "trilinear_i",
               "trilinear_ii")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    n: int  # grid modes per axis (resolution for the inequality bench)
    steps: int = 0  # simulate only
    output_every: int = 1
    count: int = 0  # verify-inequalities only
    s_values: tuple[float, ...] = (0.75,)
    line_length: int = 256
    band: int = 5

    @property
    def simulate(self) -> bool:
        return self.command == "simulate"

    @property
    def work(self) -> int:
        """Time steps, or ratio samples (ladyzhenskaya has no s)."""
        if self.simulate:
            return self.steps
        per_s = sum(lemma != "ladyzhenskaya" for lemma in INEQ_LEMMAS)
        return self.count * (per_s * len(self.s_values) + 1)

    @property
    def work_unit(self) -> str:
        return "steps_per_s" if self.simulate else "samples_per_s"

    def field_bytes(self) -> int:
        """Computed size of one complex128 vector field on the grid."""
        return 3 * self.n ** 3 * 16

    def retained_state_bytes(self) -> int:
        """States that run() keeps: the initial one plus one per record."""
        if not self.simulate:
            return 0
        return (self.steps // self.output_every + 1) * self.field_bytes()

    def config(self, seed: int, outdir: Path) -> str:
        sections = {"run": {"seed": seed, "output_dir": outdir}}
        if self.simulate:
            sections["grid"] = {"n1": self.n, "n2": self.n, "n3": self.n}
            for name, body in SIM_PHYSICS.items():
                sections[name] = dict(body)
            sections["solver"]["t_end"] = repr(self.steps * SIM_PHYSICS["solver"]["dt"])
            sections["solver"]["output_every"] = self.output_every
            sections["init"]["seed"] = seed
            sections["forcing"]["seed"] = seed + 1_000_003
        else:
            sections["inequalities"] = {
                "lemmas": ", ".join(INEQ_LEMMAS),
                "count": self.count,
                "band": self.band,
                "s_values": ", ".join(repr(s) for s in self.s_values),
                "resolution": self.n,
                "line_length": self.line_length,
            }
        return "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
            for name, body in sections.items()
        )

    def csv_name(self) -> str:
        return "diagnostics.csv" if self.simulate else "inequalities.csv"


WORKLOADS = {
    w.name: w for w in (
        Workload("sim32_dense", "simulate", 32, steps=100),
        Workload("sim64_sparse", "simulate", 64, steps=6, output_every=6),
        Workload("ineq32", "verify-inequalities", 32, count=20),
    )
}

# seconds-long versions for the self-tests; not pinned by the reference
TINY = {
    "sim32_dense": Workload("sim32_dense", "simulate", 16, steps=8),
    "sim64_sparse": Workload("sim64_sparse", "simulate", 16, steps=3, output_every=3),
    "ineq32": Workload("ineq32", "verify-inequalities", 16, count=2,
                       line_length=64, band=3),
}


# ---------------------------------------------------------------------------
# Output checks


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# config_hash="):
            raise ValueError(f"{path.name}: missing config_hash line")
        return list(csv.DictReader(fh))


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def check_outputs(w: Workload, outdir: Path, exit_code: int,
                  seed: int, pinned: bool) -> tuple[list[str], dict]:
    """Returns (problems, facts); no problems means the run is correct.

    ``pinned`` compares the key outputs with reference.json, which holds
    them for DEFAULT_SEED at the full workload size.
    """
    problems = []
    facts: dict = {}
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        manifest = json.loads((outdir / "manifest.json").read_text())
        rows = read_csv(outdir / w.csv_name())
    except (OSError, ValueError) as exc:
        return problems + [f"unreadable output: {exc}"], facts
    if manifest.get("status") != "ok":
        problems.append(f"manifest status {manifest.get('status')!r}")
    failed = [a["name"] for a in manifest.get("assertions", []) if not a["passed"]]
    if failed:
        problems.append(f"failed assertions {failed}")
    facts["versions"] = manifest.get("versions", {})

    numeric = [k for k in (rows[0] if rows else {}) if k not in ("lemma", "resolution")]
    for i, row in enumerate(rows, start=1):
        for key in numeric:
            if (w.csv_name(), i, key) in _NAN_CELLS:
                continue
            if not math.isfinite(_number(row[key])):
                problems.append(f"{w.csv_name()} row {i} {key}={row[key]!r} not finite")
    if w.simulate:
        problems += _check_simulation(w, rows, facts)
    else:
        problems += _check_inequalities(w, rows, seed)
    if pinned and not problems:
        problems += _check_reference(w, rows)
    return problems, facts


def _check_simulation(w: Workload, rows, facts) -> list[str]:
    expected = w.steps // w.output_every + 1
    if len(rows) != expected:
        return [f"diagnostics.csv has {len(rows)} rows, expected {expected}"]
    if w.output_every != 1:
        return []
    dt = SIM_PHYSICS["solver"]["dt"]
    t, e, d, p = ([_number(r[k]) for r in rows]
                  for k in ("t", "model_energy", "dissipation", "forcing_power"))
    # recomputed from the budget terms, so a wrong term cannot hide behind
    # the program's own residual column, which is checked as well
    closure = [abs((e[i] - e[i - 1]) / (t[i] - t[i - 1]) + 0.5 * (d[i] + d[i - 1])
                   - 0.5 * (p[i] + p[i - 1])) for i in range(1, len(rows))]
    reported = [_number(r["budget_residual"]) for r in rows[1:]]
    worst = max(closure + reported)
    rate = max((d[i] + abs(p[i])) / e[i] for i in range(len(rows)))
    scale = max(d[i] + abs(p[i]) for i in range(len(rows)))
    bound = BUDGET_C * (dt * rate) ** 2 * scale
    facts["budget_constant"] = worst / ((dt * rate) ** 2 * scale)
    if not worst <= bound:
        return [f"budget residual {worst!r} above the O(dt^2) bound {bound!r}"]
    return []


def _check_inequalities(w: Workload, rows, seed: int) -> list[str]:
    problems = []
    expected = w.work // w.count
    if len(rows) != expected:
        problems.append(f"inequalities.csv has {len(rows)} rows, expected {expected}")
    for row in rows:
        for key in ("max_ratio", "mean_ratio"):
            if not _number(row[key]) > 0.0:
                problems.append(f"{row['lemma']} {key}={row[key]!r} not positive")
        if int(row["count"]) != w.count or int(row["seed"]) != seed:
            problems.append(f"{row['lemma']}: count/seed {row['count']}/{row['seed']}")
    return problems


def key_outputs(w: Workload, rows) -> dict[str, float]:
    """The outputs pinned by reference.json."""
    if w.simulate:
        last = rows[-1]
        return {k: float(last[k]) for k in ("model_energy", "dissipation", "l2_norm")}
    return {
        f"{row['lemma']}@{row['s']}.{k}": float(row[k])
        for row in rows for k in ("max_ratio", "mean_ratio")
    }


def _check_reference(w: Workload, rows) -> list[str]:
    expected = json.loads(REFERENCE.read_text())["workloads"][w.name]
    got = key_outputs(w, rows)
    if set(got) != set(expected):
        return [f"reference keys differ: {sorted(set(got) ^ set(expected))}"]
    return [
        f"{key}={got[key]!r} differs from reference {ref!r} (rtol {REFERENCE_RTOL})"
        for key, ref in expected.items()
        if not math.isclose(got[key], ref, rel_tol=REFERENCE_RTOL, abs_tol=0.0)
    ]
