"""A deliberately tiny process that starts the measured children.

Linux carries a process's peak RSS across ``exec``: a child's ``ru_maxrss``
is never below what its *parent* had resident when it forked.  Started from
the harness (tens of MB once it has imported the program), every CLI child
would report the harness's size instead of its own.  So the harness starts
this script once, under ``python3 -S -E`` and importing next to nothing
(~8 MB, below any Python child), and asks it to run each child: one JSON
line in (``argv``, ``env``, ``stdout``, ``stderr``, ``timeout_s``), one JSON
line out (``returncode``, ``wall_s``, ``maxrss_kb``).  Children inherit its
working directory and CPU affinity.  It exits when its stdin closes.
"""

import json
import os
import signal
import sys
import time


def run(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    file_actions = [
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
    ]
    argv = request["argv"]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=file_actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(int(request["timeout_s"]))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - start
    return {
        "returncode": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,  # Linux reports kilobytes
    }


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
