"""Run one svdsurgery command and record this process's own costs.

Usage: python3 bench/child.py STATS_JSON [svdsurgery arguments ...]

Writes {"import_s", "vmhwm_kb"} to STATS_JSON; with no svdsurgery arguments
it only imports the CLI. The peak is VmHWM, the high-water mark of this
process's own address space, which exec starts afresh. ru_maxrss of a
waited-for child would instead carry over the launcher's high-water mark,
and the launcher holds the generated inputs.
"""

import json
import resource
import sys
import time


def _peak_kb() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from svdsurgery.cli import main as cli_main

    import_s = time.perf_counter() - start
    code = cli_main(argv) if argv else 0
    with open(stats_path, "w") as fh:
        json.dump({"import_s": import_s, "vmhwm_kb": _peak_kb()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
