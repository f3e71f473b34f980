"""Child processes of the benchmark, run from the root of a checkout.

    child.py import MODULE          print the seconds ``import MODULE`` took
    child.py cli TRACE_PATH ARGS..  run ``lorentz-forge ARGS..`` with spans
                                    recorded, and write them to TRACE_PATH
"""

import importlib
import json
import sys
import time
from pathlib import Path


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    if sys.argv[1] == "import":
        t0 = time.perf_counter()
        importlib.import_module(sys.argv[2])
        print(time.perf_counter() - t0)
        return 0
    trace_path, argv = sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    from lorentz_forge import cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    with open(trace_path, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
