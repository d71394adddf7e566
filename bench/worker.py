"""One benchmark worker: runs a workload's commands in-process, one after another.

Usage: python3 worker.py SPEC.json

SPEC holds "setup" and "measured" lists of zoneplan argv lists, "trace"
(bool), "spans" (where the tracer writes its JSON lines) and "result"
(where this worker writes its timings).  Each command goes through
zoneplan.cli.main(argv); a non-zero exit is recorded, not raised, and the
remaining commands still run.
"""

import json
import resource
import sys
import time
from pathlib import Path


def cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_commands(main, argvs: list[list[str]]) -> list[dict]:
    done = []
    for argv in argvs:
        t0 = time.monotonic()
        rc = main(argv)
        done.append({"command": argv[0], "rc": rc, "s": time.monotonic() - t0})
    return done


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    from zoneplan import cli

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        setup = run_commands(cli.main, spec["setup"])
        t_first = time.monotonic()
        cpu0 = cpu_s()
        measured = run_commands(cli.main, spec["measured"])
        t_end = time.monotonic()
        cpu1 = cpu_s()
    finally:
        if tracer is not None:
            tracer.dump(spec["spans"])
    result = {
        "zoneplan": cli.__file__,
        "setup": setup,
        "measured": measured,
        "t_first": t_first,
        "t_end": t_end,
        "cpu_s": cpu1 - cpu0,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
