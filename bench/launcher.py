"""Start the benchmark's CLI commands from a process that stays small.

The peak RSS that ``os.wait4`` reports for a child includes the image it
was forked from, so a benchmark process that holds a whole dataset cannot
start the commands itself without inflating their peak memory.  It starts
this launcher while it is still small and sends it one command per line as
JSON (``argv``, ``env``, ``stderr`` path); for each, the launcher starts
the command, answers with its ``pid`` on one JSON line, runs it to
completion and answers with another: wall ``seconds``, exit ``code`` and
``maxrss_kb``.  It exits when its input closes.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(request["argv"], env=request["env"],
                                     stdout=subprocess.DEVNULL, stderr=err)
            print(json.dumps({"pid": child.pid}), flush=True)
            _, status, usage = os.wait4(child.pid, 0)
            elapsed = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"seconds": elapsed, "code": child.returncode,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
