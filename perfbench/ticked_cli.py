"""``python -m realtori.cli`` with the reference-loop ticker running inside.

Usage: python3 perfbench/ticked_cli.py <realtori CLI arguments>, with the
package on PYTHONPATH.  When the CLI exits, the tick samples are written as
JSON to the file named by the PERFBENCH_TICKS environment variable, so the
caller can rescale the process's wall time (see speed.py).
"""

import atexit
import json
import os
import runpy
import sys

import speed

ticker = speed.Ticker().start()


@atexit.register
def _dump():
    ticker.stop()
    with open(os.environ["PERFBENCH_TICKS"], "w", encoding="utf-8") as fh:
        json.dump(ticker.samples, fh)


sys.argv[0] = "realtori"
runpy.run_module("realtori.cli", run_name="__main__", alter_sys=True)
