"""One tropsurf process, as the ``tropsurf`` console script would run it.

    python3 perfbench/oneshot.py [--trace FILE --op ID] -- <tropsurf arguments>

Without ``--trace`` this imports ``tropsurf.cli`` from the checkout's
``src`` and calls ``main``, exactly like the installed entry point.  With
``--trace`` it first installs the benchmark's span wrappers, tags every
span with operation ``ID``, and writes the spans and the time taken to
import ``tropsurf.cli`` to FILE when ``main`` returns.
"""

import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv):
    split = argv.index("--")
    opts, rest = argv[:split], argv[split + 1:]
    trace_file = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import tropsurf.cli

    import_s = perf_counter() - t0
    if trace_file is None:
        return tropsurf.cli.main(rest)

    from tracer import Tracer

    tracer = Tracer()
    tracer.install(tropsurf)
    tracer.op_id = int(opts[opts.index("--op") + 1])
    tracer.counters["cli_import_s"] = import_s
    tracer.active = True
    try:
        return tropsurf.cli.main(rest)
    finally:
        tracer.active = False
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
