"""Run the spg CLI with the benchmark's tracer installed.

Traced passes of the ``cli`` workload start this file in place of the spg
entry point; it writes its spans and counters as JSON to the file named by
``PERFBENCH_TRACE_OUT`` and exits with the CLI's exit code.
"""
import json
import os
import sys

import spg.cli
from tracer import Tracer

tracer = Tracer()
tracer.prepare()
tracer.install()
code = 1
try:
    with tracer.span("cli.main"):
        code = spg.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
finally:
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
sys.exit(code)
