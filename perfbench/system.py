"""Machine facts, peak memory and latency summaries for the benchmark."""

from __future__ import annotations

import ctypes
import glob
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

#: Environment variables that decide thread counts; reported, never set.
THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "REPRO_KERNEL_THREADS",
    "REPRO_NATIVE_KERNEL",
)


def openblas_threads() -> Optional[int]:
    """Thread count of numpy's bundled OpenBLAS (a query; never the setter)."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)  # numpy already loaded it: same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment(kernel: str) -> Dict[str, object]:
    """Where and how the benchmark ran: cores, BLAS threads, kernel, env."""
    from repro.core import kernels

    info = kernels.kernel_info()
    native_threads = None
    if info["native_available"]:
        native_threads = kernels.get_kernel("native").num_threads
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "openblas_threads": openblas_threads(),
        "native_available": info["native_available"],
        "native_unavailable_reason": info["native_unavailable_reason"],
        "gemm_impl": info["gemm_impl"],
        "native_num_threads": native_threads,
        "kernel": kernel,
        "thread_env": {name: os.environ[name] for name in THREAD_ENV_VARS if name in os.environ},
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MB.

    The kernel's high-water mark costs nothing to keep; sampling PSS from a
    thread instead slowed the timed loop by 4-8% on a 2-core machine.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, in MB; 0 without ``/proc``."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0.0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _child_pids() -> set:
    """Pids of this process's live children, from ``/proc`` (empty without it)."""
    pids = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            pids.update(int(pid) for pid in Path(path).read_text().split())
        except OSError:
            continue
    return pids


def stop_child_processes(timeout_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Serving workers are closed with their pool; what remains are the
    ``multiprocessing`` helpers that outlive it, chiefly the shared-memory
    resource tracker, which otherwise exits only after this process has, so
    it would still be running when the benchmark returns.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout_s)
        if child.is_alive():
            child.kill()
            child.join()
    # Closing the tracker's pipe makes it exit; ``_stop`` then waits for it.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout_s
    for pid in _child_pids():
        while True:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                break
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)


# --------------------------------------------------------------------------- #
# Latency summaries
# --------------------------------------------------------------------------- #
def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, samples above it)``.  With ``beyond`` or
    fewer samples no such percentile exists and the maximum (p100) is
    returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return (ordered[-1] if ordered else 0.0), 100.0, 0
    index = n - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / n, beyond


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
