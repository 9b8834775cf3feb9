"""One station process of the ``network-bet`` workload.

Runs ``bellbet station`` with the arguments it is given, exactly as
``python -m bellbet station`` does, and then prints one JSON line: the
monotonic time at which the process was ready to connect (its imports done)
and the CPU seconds the station command used. The referee side uses the first
to leave process start-up out of the per-trial time.

Usage: python3 perfbench/station.py --role left --endpoint HOST:PORT [...]
"""

import json
import resource
import sys
import time


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


if __name__ == "__main__":
    from benchlib import require_program

    require_program()
    from bellbet.cli import main

    ready = time.monotonic()
    cpu0 = cpu_seconds()
    status = main(["station", *sys.argv[1:]])
    print(json.dumps({"ready": ready, "cpu_s": cpu_seconds() - cpu0}), flush=True)
    sys.exit(status)
