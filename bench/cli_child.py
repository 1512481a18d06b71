"""``python -m datamarket.cli`` that also reports its own peak memory.

    python3 bench/cli_child.py ARGS...    (PEAK_RSS_FILE=path in the environment)

Runs the module exactly as ``-m`` does, with the working directory first on
``sys.path``, and at exit writes the process's peak resident memory
(VmHWM, in kB) to the file ``PEAK_RSS_FILE`` names.  The cli_roundtrip
jobs start the CLI through it, so that their ``peak_rss_mb`` is the CLI's
and not the benchmark worker's.
"""

import atexit
import os
import runpy
import sys


def _write_peak() -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(os.environ["PEAK_RSS_FILE"], "w", encoding="ascii") as out:
        out.write(kb)


atexit.register(_write_peak)
sys.path[0] = os.getcwd()
runpy.run_module("datamarket.cli", run_name="__main__", alter_sys=True)
