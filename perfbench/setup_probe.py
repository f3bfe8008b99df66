"""Set-up time of a fresh process: import dpinv, then run warm-up jobs.

    python3 perfbench/setup_probe.py '[["stationary", "g.tsv", ...], ...]'

Prints one JSON line with the seconds from before the import to the end of
the last job, and each job's exit code. Run with dpinv's sources on
PYTHONPATH.
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
import dpinv.cli  # noqa: E402

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(dpinv.cli.main(argv))
print(json.dumps({"setup_s": time.perf_counter() - t0, "codes": codes}))
