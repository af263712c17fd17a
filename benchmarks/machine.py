"""The machine block recorded with every benchmark result.

Everything is read from the running process, ``numpy.show_config`` and
``/proc`` / ``/sys`` (read only); nothing is changed.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

import numpy as np


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cache_sizes() -> dict:
    """Sizes of the L2 and L3 caches of cpu0, as the kernel reports them."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level in ("2", "3") and kind in ("Unified", "Data") and size:
            out[f"l{level}"] = size
    return out


def _blas() -> dict:
    """BLAS library name and version from numpy, thread count from the library."""
    info = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["library"] = blas.get("name")
        info["version"] = blas.get("version")
    except (TypeError, KeyError):
        pass
    info["threads"] = _blas_threads()
    return info


def _blas_threads() -> int | None:
    """Ask the loaded OpenBLAS for its thread count; None if it is not OpenBLAS."""
    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(handle, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def machine_block(seed: int) -> dict:
    from blindcal import model

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "platform": sys.platform,
        "seed": seed,
        "cache_limit_cells": model.CACHE_LIMIT_CELLS,
    }
