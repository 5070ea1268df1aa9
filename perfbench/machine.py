"""The machine block recorded with every result. Reads only; sets nothing."""

from __future__ import annotations

import os
import platform


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cpu_max() -> str | None:
    """cgroup v2 cpu.max or, on a cgroup v1 host, the quota and period in the same form.

    The machine the baseline was recorded on runs cgroup v1: it has no
    cpu.max, and its value comes from the v1 pair.
    """
    value = _read("/sys/fs/cgroup/cpu.max")
    if value is not None:
        return value
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is None or period is None:
        return None
    return f"{'max' if quota == '-1' else quota} {period}"


def _blas() -> str | None:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return None


def info(reelab) -> dict:
    import numpy as np

    thread_count = getattr(reelab.verify, "thread_count", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cgroup_cpu_max": _cpu_max(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "REE_LAB_THREADS": os.environ.get("REE_LAB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "verify_workers": thread_count() if thread_count else 1,
    }
