"""Traced stand-in for the `voacalc` console script.

Run as `python3 bench/cli_probe.py <voacalc arguments>` with src/ on
PYTHONPATH. It behaves like the console script (same stdout, same exit
code) and writes one extra line to stderr, prefixed with "@@bench ": the
CLOCK_MONOTONIC times at interpreter start, after `import voacalc.cli`, and
around main(), plus a span around each verification suite main() calls.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import voacalc  # noqa: E402
import voacalc.cli  # noqa: E402

T_IMPORT = time.monotonic()

# suite name -> (module, function); wrapped through the module attribute,
# which is how the CLI reaches them
SUITES = {
    "thm32": ("w3", "verify_theorem32"),
    "prop21": ("virasoro", "verify_prop21"),
    "lemma57": ("fock", "verify_lemma57"),
    "fusion-symmetry": ("fusion", "verify_fusion_symmetry"),
    "fock": ("fock", "verify_fock"),
}

spans = []


def _wrap(module, attr, label):
    fn = getattr(module, attr)

    def traced(*args, **kwargs):
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            spans.append([label, start, time.monotonic()])
    setattr(module, attr, traced)


for _label, (_mod, _attr) in SUITES.items():
    _module = getattr(voacalc, _mod, None)
    if _module is not None and hasattr(_module, _attr):
        _wrap(_module, _attr, "suites." + _label)

T_MAIN = time.monotonic()
code = voacalc.cli.main(sys.argv[1:])
T_END = time.monotonic()
sys.stdout.flush()
sys.stderr.write("@@bench " + json.dumps({
    "t_start": T_START, "t_import": T_IMPORT, "t_main": T_MAIN, "t_end": T_END,
    "spans": spans}) + "\n")
sys.exit(code)
