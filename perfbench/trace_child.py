"""``python -m riordan ARGS`` with the span tracer installed.

    RIORDAN_BENCH_SPANS=spans.json python3 perfbench/trace_child.py ARGS

Used by the traced cli-small run; the spans, the largest coefficient
bit-height and the names the tracer could not find are written to the
file named by RIORDAN_BENCH_SPANS when the command exits.
"""

import os
import runpy
import sys

import tracer as tracing

trace = tracing.Tracer()
trace.install()
sys.argv = ["riordan", *sys.argv[1:]]
try:
    runpy.run_module("riordan", run_name="__main__", alter_sys=True)
finally:
    trace.dump(os.environ["RIORDAN_BENCH_SPANS"])
