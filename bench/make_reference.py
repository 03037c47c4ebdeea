"""Regenerate reference.json: the key outputs of each workload at the
default seed, against which run.py checks that seed's runs.

    python3 bench/make_reference.py

Regenerate only when a change is meant to alter the physics or the
sample draws, and say so where the change is described.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORK_DIR, run_sample  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, REFERENCE, REFERENCE_RTOL, WORKLOADS, key_outputs, read_csv,
)


def main() -> int:
    pinned = {}
    for w in WORKLOADS.values():
        sample_dir = WORK_DIR / f"reference-{w.name}"
        shutil.rmtree(sample_dir, ignore_errors=True)
        sample = run_sample(w, DEFAULT_SEED, sample_dir, traced=False, pinned=False)
        if sample["problems"]:
            print(f"{w.name}: {sample['problems']}", file=sys.stderr)
            return 1
        pinned[w.name] = key_outputs(w, read_csv(sample_dir / "out" / w.csv_name()))
        shutil.rmtree(sample_dir)
    REFERENCE.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "rtol": REFERENCE_RTOL, "workloads": pinned},
        indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
