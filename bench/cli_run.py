"""The `voacalc` console script with the speed sampler of bench/speed.py on.

Run as `python3 bench/cli_run.py <voacalc arguments>` with src/ on
PYTHONPATH. It behaves like the console script (same stdout, same exit
code); from its first line on it times the calibration loop 4 ms in and then
every speed.CHILD_INTERVAL_S seconds, and writes, as its last line on
stderr, prefixed with "@@speed ", the loop times and the seconds the
sampling took, which the benchmark takes out of the call's latency.
"""

import json
import sys

from speed import CHILD_INTERVAL_S, Sampler

sampler = Sampler(CHILD_INTERVAL_S)
sampler.start()
try:
    from voacalc.cli import main

    code = main()
finally:
    samples, paused = sampler.stop()
    sys.stdout.flush()
    sys.stderr.write("@@speed " + json.dumps({"samples": samples, "paused": paused}) + "\n")
sys.exit(code)
