"""One fresh interpreter running one pass of a workload through the CLI.

    python3 perfbench/child.py <spec.json>

The spec names the mode and the commands:

* "setup": run the first command with an invalid trajectory count, so
  `cli_dispatch` imports the package, parses the arguments and validates them,
  then stops before any solver call.  Reports the clock at that point.
* "run": run every command through `cli_dispatch`; report the wall time, the
  exit code of each command and the peak resident memory of this process.
* "trace": as "run", with the layers wrapped by tracer.py.

The result is written as JSON to the spec's "result" path.
"""

import contextlib
import io
import json
import resource
import sys
import traceback
from time import perf_counter


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    mode, commands = spec["mode"], spec["commands"]
    sink = io.StringIO()

    from cavity_sr.cli import cli_dispatch

    if mode == "setup":
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_dispatch(commands[0] + ["--trajectories", "0"])
        result = {"ready": perf_counter(), "code": code}
    else:
        tracer = None
        if mode == "trace":
            import tracer as tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
            cli_dispatch = tracer.wrap("cli", cli_dispatch)
        codes = []
        start = perf_counter()
        for argv in commands:
            try:
                with contextlib.redirect_stdout(sink):
                    codes.append(cli_dispatch(argv))
            except Exception:           # a crash fails this command only
                traceback.print_exc()
                codes.append(-1)
        result = {"wall_s": perf_counter() - start, "codes": codes,
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
            result["missing"] = sorted(tracer.missing)
        import numpy
        import scipy
        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
