"""One cold CLI invocation: import hfcopula, then make one call.

Usage: python3 bench/probe.py SRC_DIR CLI_ARG...

Prints one JSON line: the seconds from before the import to the end of
the call, the process's peak resident memory in MB, the call's exit code,
and the median time of three passes of the reference loop made just after.
Only the standard library is loaded before the clock starts, so the
import pays for numpy and scipy as a CLI user's process does.
"""

import contextlib
import io
import json
import resource
import statistics
import sys
import time


def main() -> int:
    src, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    sys.path.insert(0, src)
    from hfcopula import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    setup_s = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    from reference import reference_s  # beside this file, so first on sys.path

    ref_s = statistics.median(reference_s() for _ in range(3))
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0, "exit": code,
                      "ref_s": ref_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
