"""Environment stamp written into every results and catalogue file."""

from __future__ import annotations

import hashlib
import importlib.metadata
import os
import platform
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _commit():
    """HEAD of the checkout when it is a git repository, else None."""
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over the library sources, which identifies the code measured
    also in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "toricdeg").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    # the numpy version from its metadata: importing numpy here would load it
    # into a measuring process whose workload never does
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": source_digest(),
    }
