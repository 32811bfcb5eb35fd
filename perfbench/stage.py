"""Run one macnet subcommand in a fresh process and record what it cost.

    python3 stage.py RECORD.json [--trace RUN_ID] -- <macnet arguments...>
    python3 stage.py --probe

The record holds the time to ``import macnet.cli`` (set-up), the time spent
inside ``macnet.cli.main(argv)`` (wall), its return code and the process's
peak resident set size, plus the span trace when ``--trace`` is given.
``--probe`` imports macnet once, which also compiles its bytecode, and prints
the library versions and BLAS build as JSON.
"""

import sys
import time


def _probe() -> int:
    import json
    import os

    import macnet.cli  # noqa: F401  (the import is the point)
    import numpy
    import scipy

    import macnet

    blas = None
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {}).get("name")
    except (TypeError, AttributeError):
        blas = None
    print(json.dumps({
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "macnet": getattr(macnet, "__version__", None),
        "macnet_path": os.path.dirname(macnet.__file__),
        "blas": blas,
    }))
    return 0


def main() -> int:
    args = sys.argv[1:]
    if args == ["--probe"]:
        return _probe()
    split = args.index("--")
    record_path, options, argv = args[0], args[1:split], args[split + 1:]
    run_id = options[1] if options[:1] == ["--trace"] else None

    t0 = time.perf_counter()
    import macnet.cli
    setup_s = time.perf_counter() - t0

    import json
    import resource

    tracer = None
    if run_id is not None:
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()
    start = time.perf_counter()
    rc = macnet.cli.main(argv)
    end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {"rc": rc, "setup_s": setup_s, "wall_s": end - start, "peak_rss_mb": peak_rss_mb,
              "trace": tracer.finish(start, end) if tracer is not None else None}
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
