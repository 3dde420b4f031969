"""Facts about the machine and build that every benchmark result carries."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
from pathlib import Path

import numpy as np

# Thread-count getters of the OpenBLAS builds numpy ships or links.
_BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Threads of the BLAS library numpy has loaded, or None if unknown."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        # Opening a library numpy already loaded returns the same instance.
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root: Path) -> str | None:
    """HEAD of ``root``'s own .git, read without running git; None outside
    a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, which identifies the code measured
    where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "cyclebench").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def machine_facts(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
    }
