"""Host fingerprint and the calibration loop that qualifies a run."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, List, Optional

__all__ = ["NOISY_CALIB_DRIFT", "HostLedger", "calibrate_ms", "fingerprint"]

#: A child whose two calibrations differ by more than this is ``noisy``.
NOISY_CALIB_DRIFT = 0.05
#: A calibration this far above the usual reading means the host is being
#: disturbed (children with both readings below it ran within ~5% of their
#: best; above it they ran 1.1x to 2x slower).
DISTURBED_ABOVE_USUAL = 1.10
MIN_READINGS = 8
KEPT_READINGS = 200
#: Waiting for the host to calm down: per child, and in total per checkout
#: (the builder's driver caps the time of all its runs together).
WAIT_PER_CHILD_S = 15.0
WAIT_TOTAL_S = 450.0


def calibrate_ms() -> float:
    """A fixed numpy loop (200x a 256x256 float64 matmul + einsum), timed
    in five batches of 40 and reported as 5x the fastest batch, so that a
    single interruption does not read as a slower machine.  Run before
    and after each child's timed pass: when the two readings disagree,
    the machine changed speed under the measurement."""
    import numpy as np

    a = np.arange(256 * 256, dtype=np.float64).reshape(256, 256) / 65536.0
    batches = []
    for _ in range(6):  # the first batch pays BLAS set-up and is dropped
        start = perf_counter()
        for _ in range(40):
            np.einsum("ij,ij->", a @ a, a)
        batches.append(perf_counter() - start)
    return min(batches[1:]) * 5 * 1e3


class HostLedger:
    """What this checkout has learnt about its host: recent calibration
    readings (their median is the usual reading) and the time already
    spent waiting for a quiet host.  Kept in the benchmark's scratch
    directory; a missing or unreadable file just means nothing is known."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.readings: List[float] = []
        self.waited_s = 0.0
        try:
            stored = json.loads(path.read_text(encoding="utf-8"))
            self.readings = [float(value) for value in stored["readings"]]
            self.waited_s = float(stored["waited_s"])
        except (OSError, ValueError, KeyError, TypeError):
            pass

    def limit_ms(self) -> Optional[float]:
        """Readings above this mean a disturbed host; ``None`` until
        enough readings are known."""
        if len(self.readings) < MIN_READINGS:
            return None
        return median(self.readings) * DISTURBED_ABOVE_USUAL

    def wait_allowance_s(self) -> float:
        return max(0.0, min(WAIT_PER_CHILD_S, WAIT_TOTAL_S - self.waited_s))

    def record(self, readings: List[float], waited_s: float) -> None:
        self.readings = (self.readings + readings)[-KEPT_READINGS:]
        self.waited_s += waited_s
        self.path.write_text(json.dumps(
            {"readings": self.readings, "waited_s": self.waited_s}), encoding="utf-8")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> Optional[str]:
    """HEAD of ``root`` when it is itself a git checkout, else ``None``."""
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]) != root:
        return None
    return lines[1]


def _version(package: str) -> Optional[str]:
    # importlib.metadata, not an import: the parent process stays small so
    # that a child's ru_maxrss is the child's own.
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def fingerprint(root: Path) -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _git_commit(root),
    }
