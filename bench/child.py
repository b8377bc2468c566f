"""One round of a workload, in a fresh interpreter.

    python3 bench/child.py --input FILE --out DIR --trace 0|1

Set-up is importing zerocert.cli and running load_scenario on the
scenario file.  The verdict is ``zerocert all`` on the scenario.
Writes DIR/result.json (timings, peak RSS, the exit code) and,
when traced, DIR/spans.npz.  Only the standard library is imported before
the set-up clock starts.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    out = Path(args.out)

    t0 = time.perf_counter()
    import zerocert
    import zerocert.cli as cli
    t_import = time.perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.set_phase("setup")
        t_setup0 = time.perf_counter()
    else:
        t_setup0 = t_import

    from zerocert.scenario import load_scenario
    load_scenario(args.input)
    t_setup = time.perf_counter()

    if tracer is not None:
        tracer.set_phase("verdict")
    result = {"rc": cli.main(["all", "--scenario", args.input,
                              "--out", str(out / "cli")])}
    t_verdict = time.perf_counter()

    import numpy
    import scipy
    result.update({
        "import_s": t_import - t0,
        "setup_s": (t_import - t0) + (t_setup - t_setup0),
        "verdict_s": t_verdict - t_setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "env": {"zerocert": str(Path(zerocert.__file__).resolve().parent),
                "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "nproc": len(os.sched_getaffinity(0))},
    })
    if tracer is not None:
        tracer.dump(out / "spans.npz")
        result["counts"] = dict(tracer.counts)
        result["op_counts"] = tracer.op_counts
        result["missing"] = tracer.missing
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
