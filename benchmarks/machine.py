"""The machine and code a result was measured on, recorded in every result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git_state(root: Path = ROOT) -> dict:
    """Commit and dirty flag of the checkout, or None for each outside git.

    GIT_CEILING_DIRECTORIES stops git from searching above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args):
        out = subprocess.run(["git", "-C", str(root), *args], env=env,
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    try:
        commit = git("rev-parse", "HEAD")
        status = git("status", "--porcelain") if commit else None
    except (OSError, subprocess.TimeoutExpired):
        return {"git_commit": None, "git_dirty": None}
    return {"git_commit": commit, "git_dirty": None if status is None else bool(status)}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_1m_start": os.getloadavg()[0],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **git_state(),
    }
