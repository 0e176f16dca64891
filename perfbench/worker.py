"""One repetition of a workload in a fresh process; see run.py.

Usage: worker.py --spawned T --workload W --seed N --workdir DIR
                 [--trace-out FILE] [--setup-only] [--reference DIR]

``T`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` counts interpreter start, the imports of numpy,
scipy and wvlab, and building the CLI parser.  The last line of standard
output is one JSON object with this repetition's figures.  Exit code 3 means
the program could not be imported.
"""

import argparse
import json
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference")
    args = ap.parse_args()

    try:
        import numpy  # noqa: F401
        import scipy  # noqa: F401
        from wvlab import cli
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 3
    cli.build_parser()
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from workloads import WORKLOADS, Run, check_run

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run = Run(args.workdir)
    t0 = time.perf_counter()
    WORKLOADS[args.workload](run, args.seed)
    wall_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
        tracer.write(args.trace_out)
    failures = check_run(run, args.seed, args.reference)
    result["steps"] = [{"name": s.name, "errors": errs}
                       for s, errs in zip(run.steps, failures)]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
