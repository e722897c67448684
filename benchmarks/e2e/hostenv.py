"""Process and host plumbing: isolated child environments, timed child
processes with their own peak RSS, host-speed calibration, and the host facts
stored with a result.

Everything the harness writes lives under ``<checkout>/.bench_e2e/``: one
``run-<pid>`` scratch directory per harness process (removed when the run
ends), the bytecode cache the CLI children share, and the result/span files.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_e2e"

#: Hard ceiling on any single child; the contract allows a run 180 s in all.
CHILD_TIMEOUT_S = 150.0


def scrub_own_environment(cache_dir: Path) -> None:
    """Drop every ambient ``REPRO_*`` knob from this process and pin the cache.

    An inherited ``REPRO_ENGINE_LANES``/``REPRO_OBS``/``REPRO_TRACE`` would
    silently change which code the in-process probes and, through
    ``child_environment``, the children run.
    """
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)


def pin_to_one_cpu() -> int:
    """Confine this process, and every child it starts from now on, to one CPU.

    Every workload is serial by construction (one worker, closed loop), so a
    second CPU buys no speed; what it buys in this VM is a cross-CPU wake-up
    of an idle vCPU on each client/server hand-off, whose cost comes and goes
    with the host (the cache-hit request rate halves for minutes at a time).
    On one CPU a hand-off is a context switch and the run measures the
    program's own work.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_environment() -> Dict[str, str]:
    """Environment for a CLI/server child: this process's scrubbed one, with
    ``src`` importable and bytecode cached under ``.bench_e2e`` — users run
    with ``.pyc`` files, so an ambient ``PYTHONDONTWRITEBYTECODE`` must not
    double every measured import."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    return env


@dataclass
class ChildResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float


class Spawner:
    """Runs ``python <args>`` children through ``spawner.py`` (which says why):
    wall time, and a peak RSS that is the child's own."""

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.process = subprocess.Popen(
            [sys.executable, "-S", "-E", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
        )

    def run(self, args: List[str]) -> ChildResult:
        out_path = self.scratch / "child.stdout"
        err_path = self.scratch / "child.stderr"
        request = {
            "argv": [sys.executable, *args], "env": child_environment(),
            "stdout": str(out_path), "stderr": str(err_path), "timeout_s": CHILD_TIMEOUT_S,
        }
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner.py died (exit {self.process.wait()})")
        reply = json.loads(line)
        return ChildResult(
            returncode=reply["returncode"],
            stdout=out_path.read_text(),
            stderr=err_path.read_text(),
            wall_s=reply["wall_s"],
            maxrss_mb=reply["maxrss_kb"] / 1024.0,
        )

    def close(self) -> None:
        self.process.stdin.close()
        self.process.stdout.close()
        self.process.wait()


# --------------------------------------------------------------------------- #
# Host-speed calibration
# --------------------------------------------------------------------------- #
#: One calibration unit: a fixed pure-Python loop (integer arithmetic and dict
#: stores, like the program's hot paths).  Its working set stays in the L1
#: cache on purpose: a loop over a 35 MB dict ran anywhere from 16 to 30 ms a
#: unit depending on what the last child had left in the shared cache, and
#: tracked the CLI children no better (README, "Host-speed calibration").
CALIBRATION_ITERATIONS = 250_000
#: What one unit takes on the reference sandbox when it is quiet.  It only
#: fixes the scale of the reported times; comparisons never depend on it.
CALIBRATION_NOMINAL_S = 0.035


def calibrate(duration_s: float) -> float:
    """Run calibration units for about ``duration_s``; mean seconds per unit."""
    units = 0
    start = time.perf_counter()
    while True:
        total = 0
        table: Dict[int, int] = {}
        for i in range(CALIBRATION_ITERATIONS):
            total += i * i
            table[i & 1023] = total
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= duration_s:
            return elapsed / units


class HostClock:
    """Scales measured wall times to nominal host speed.

    This class of sandbox drifts by 10-30 % over minutes (steal time, noisy
    neighbours), more than any bound worth setting.  So after every timed
    operation the driver runs the calibration loop for a fifth of that
    operation's wall time, and the operation is scaled by how fast the host
    was just before and just after it.  A later change cannot touch the loop
    (it lives in the benchmark), so it cancels host speed and nothing else.
    """

    SHARE = 0.2
    FLOOR_S = 0.03

    def __init__(self) -> None:
        self.unit_samples: List[float] = [calibrate(0.1)]

    def scaled(self, wall_s: float) -> float:
        """``wall_s`` of an operation that just ended, at nominal host speed."""
        before = self.unit_samples[-1]
        after = calibrate(max(self.FLOOR_S, self.SHARE * wall_s))
        self.unit_samples.append(after)
        return wall_s * CALIBRATION_NOMINAL_S / ((before + after) / 2.0)

    def host_speed(self) -> float:
        """Median host speed over the run, 1.0 = nominal."""
        return CALIBRATION_NOMINAL_S / statistics.median(self.unit_samples)


# --------------------------------------------------------------------------- #
def proc_status_field(pid: int, field: str) -> Optional[int]:
    """Integer value of one ``/proc/<pid>/status`` field (kB for Vm* fields)."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (the serve worker processes)."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit() and proc_status_field(int(entry.name), "PPid") == pid:
            found.append(int(entry.name))
    return found


def steal_ticks() -> Optional[int]:
    """Cumulative hypervisor steal time (clock ticks) from ``/proc/stat``."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, ValueError, IndexError):
        return None


def git_sha() -> str:
    """HEAD commit of the checkout, read from ``.git`` without spawning git
    ("unknown" in an exported tree)."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git_dir / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }
