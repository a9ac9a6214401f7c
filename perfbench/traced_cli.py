"""Run one breaklab CLI command with layer spans and write them as JSON.

    python3 perfbench/traced_cli.py SPANS_OUT [breaklab arguments...]

Stands in for ``python -m breaklab.cli`` in the traced replay of the
``cli_pipeline`` workload.  Records the time to import ``breaklab.cli`` in
this fresh interpreter, the handler's wall time, and the spans of the layer
calls made in this process (pool workers' spans are not collected).
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import import_breaklab  # noqa: E402
from tracing import Tracer, patched  # noqa: E402


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import_breaklab()
    from breaklab import cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    with patched(tracer):
        t0 = time.perf_counter()
        code = cli.main(argv)
        handler_s = time.perf_counter() - t0
    record = tracer.dump()
    record.update({"import_s": import_s, "handler_s": handler_s, "exit": code})
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
