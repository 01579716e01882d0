"""Run one command; print its wall time, CPU time, peak RSS and exit code as JSON.

    python3 bench/spawn.py <program> [args...]

``harness.run_child`` starts every command through this small process.
On Linux a child's ``ru_maxrss`` also counts the resident set of whichever
process spawned it, as it was when the child called exec. Spawning from
here keeps that inherited part at this process's few MB instead of the
size of the benchmark process, which can hold a 37 MB matrix.
"""

import json
import os
import subprocess
import sys
import time

start = time.perf_counter()
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
seconds = time.perf_counter() - start
proc.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps({
    "returncode": proc.returncode,
    "seconds": seconds,
    "cpu_seconds": usage.ru_utime + usage.ru_stime,
    "maxrss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
}))
