"""Host and code-version metadata recorded with every result."""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
from pathlib import Path

__all__ = ["host_info"]


def _first_line(argv: list[str], cwd: Path | None = None) -> str:
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=30, cwd=cwd)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    if proc.returncode != 0:
        return ""
    lines = proc.stdout.strip().splitlines()
    return lines[0] if lines else ""


def _version(module: str) -> str:
    try:
        mod = __import__(module)
    except ImportError:
        return "missing"
    return getattr(mod, "__version__", "unknown")


def source_digest(src: Path) -> str:
    """SHA-256 over ``src/**/*.py``: names the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_info(root: Path, native_loader: str) -> dict:
    cc = shutil.which(os.environ.get("REPRO_CC", "cc"))
    commit = ""
    if (root / ".git").exists() and shutil.which("git"):
        commit = _first_line(["git", "rev-parse", "HEAD"], cwd=root)
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "cc": _first_line([cc, "--version"]) if cc else "none",
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cffi": _version("cffi"),
        "native_loader": native_loader,
        "commit": commit or "unknown (not a git checkout)",
        "src_digest": source_digest(root / "src"),
    }
