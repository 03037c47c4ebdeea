"""One benchmark sample: a fresh interpreter that calls admles.cli.main.

    python3 child.py SPAWN_MONOTONIC RESULT_JSON TRACE -- CLI_ARGS...

SPAWN_MONOTONIC is the parent's ``time.monotonic()`` taken just before
it started this process (CLOCK_MONOTONIC, which Linux shares between
processes), so ``setup_s`` covers interpreter start and the imports of
admles, numpy and scipy.  With TRACE = 1 the FFT entry points are
wrapped before admles is imported and the spans are written to
RESULT_JSON next to the timings.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spawn, result_path, trace = float(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    sys.path.insert(0, str(HERE.parent / "src"))
    tracer = None
    if trace:
        sys.path.insert(0, str(HERE))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install_fft()
    import admles.cli

    if tracer is not None:
        tracer.install_admles()
    setup = time.monotonic() - spawn
    start = time.perf_counter()
    code = admles.cli.main(cli_args)
    wall = time.perf_counter() - start
    result = {
        "exit_code": code,
        "setup_s": setup,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result.update(tracer.dump())
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
