"""Loader for the optional compiled merge kernels.

``_merge_kernels.c`` is compiled once per machine into a content-addressed
shared object under the system temp directory (so repeated runs and test
invocations reuse it) and bound through :mod:`ctypes`.  Everything is
best-effort: no compiler, no write permission, or any compile/load failure
simply yields ``None`` and the callers keep using the vectorized NumPy
kernels.  No build step, no new dependency.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["load_merge_kernels", "CMergeKernels"]

#: Must match MAX_STREAMS in _merge_kernels.c.
MAX_STREAMS = 256

_SOURCE = Path(__file__).with_name("_merge_kernels.c")

_I64_P = ctypes.POINTER(ctypes.c_int64)
_F64_P = ctypes.POINTER(ctypes.c_double)


class CMergeKernels:
    """ctypes bindings over the compiled merge kernels."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._merge_add = lib.merge_add_i64_f64
        self._merge_add.restype = ctypes.c_int64
        self._merge_add.argtypes = [
            ctypes.c_int64, _I64_P, _F64_P,
            ctypes.c_int64, _I64_P, _F64_P,
            _I64_P, _F64_P,
        ]
        #: O(total * log streams) tournament-tree k-way kernel.
        self._merge_many = lib.merge_many_tournament_i64_f64
        self._merge_many.restype = ctypes.c_int64
        self._merge_many.argtypes = [
            ctypes.c_int64,
            ctypes.POINTER(ctypes.c_void_p),
            ctypes.POINTER(ctypes.c_void_p),
            _I64_P,
            _I64_P, _F64_P,
        ]

    @staticmethod
    def _i64(array: np.ndarray):
        return array.ctypes.data_as(_I64_P)

    @staticmethod
    def _f64(array: np.ndarray):
        return array.ctypes.data_as(_F64_P)

    def merge_add(self, a_indices: np.ndarray, a_values: np.ndarray,
                  b_indices: np.ndarray, b_values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # The kernel reads raw data pointers; a strided view (legal input at
        # the SparseGradient API boundary) must be compacted first.  This is
        # a no-op for the contiguous arrays the internal kernels produce.
        a_indices = np.ascontiguousarray(a_indices)
        a_values = np.ascontiguousarray(a_values)
        b_indices = np.ascontiguousarray(b_indices)
        b_values = np.ascontiguousarray(b_values)
        na, nb = a_indices.shape[0], b_indices.shape[0]
        out_indices = np.empty(na + nb, dtype=np.int64)
        out_values = np.empty(na + nb, dtype=np.float64)
        count = self._merge_add(
            na, self._i64(a_indices), self._f64(a_values),
            nb, self._i64(b_indices), self._f64(b_values),
            self._i64(out_indices), self._f64(out_values),
        )
        return out_indices[:count], out_values[:count]

    def merge_many(self, index_streams: Sequence[np.ndarray],
                   value_streams: Sequence[np.ndarray]) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """K-way tournament-tree merge; returns ``None`` when the stream
        count exceeds the compiled kernel's capacity (callers then fall
        back)."""
        k = len(index_streams)
        if k > MAX_STREAMS:
            return None
        index_streams = [np.ascontiguousarray(stream) for stream in index_streams]
        value_streams = [np.ascontiguousarray(stream) for stream in value_streams]
        total = sum(stream.shape[0] for stream in index_streams)
        out_indices = np.empty(total, dtype=np.int64)
        out_values = np.empty(total, dtype=np.float64)
        index_ptrs = (ctypes.c_void_p * k)(*[stream.ctypes.data for stream in index_streams])
        value_ptrs = (ctypes.c_void_p * k)(*[stream.ctypes.data for stream in value_streams])
        lengths = np.fromiter((stream.shape[0] for stream in index_streams),
                              dtype=np.int64, count=k)
        count = self._merge_many(
            k,
            ctypes.cast(index_ptrs, ctypes.POINTER(ctypes.c_void_p)),
            ctypes.cast(value_ptrs, ctypes.POINTER(ctypes.c_void_p)),
            self._i64(lengths),
            self._i64(out_indices), self._f64(out_values),
        )
        if count < 0:  # pragma: no cover - guarded by the k check above
            return None
        return out_indices[:count], out_values[:count]


def _cache_path(source: str) -> Optional[Path]:
    """Content-addressed ``.so`` path in a private per-user cache directory.

    A world-writable location (e.g. the shared temp dir) would let another
    local user pre-plant a malicious library at the predictable path, so the
    cache lives under ``$XDG_CACHE_HOME`` / ``~/.cache`` with mode 0700.
    Returns ``None`` when no such directory can be prepared (the caller then
    compiles into a throwaway directory instead of caching).
    """
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    base = os.environ.get("XDG_CACHE_HOME") or (Path.home() / ".cache")
    cache_dir = Path(base) / "repro-merge-kernels"
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        cache_dir.chmod(0o700)
    except OSError:
        return None
    return cache_dir / f"merge_kernels_{digest}.so"


def _load(path: Path) -> Optional[CMergeKernels]:
    try:
        return CMergeKernels(ctypes.CDLL(str(path)))
    except (OSError, AttributeError):
        return None


def load_merge_kernels() -> Optional[CMergeKernels]:
    """Compile (once per user and source version) and load the C merge
    kernels; ``None`` on any failure."""
    if os.environ.get("REPRO_DISABLE_CKERNELS"):
        return None
    try:
        source = _SOURCE.read_text()
    except OSError:
        return None
    cached = _cache_path(source)
    if cached is not None and cached.exists():
        try:
            if cached.stat().st_uid != os.getuid():
                return None
        except (OSError, AttributeError):  # no getuid on some platforms
            return None
        return _load(cached)
    compiler = os.environ.get("CC", "cc")
    try:
        with tempfile.TemporaryDirectory(
            dir=cached.parent if cached is not None else None
        ) as tmp:
            tmp_so = Path(tmp) / "merge_kernels.so"
            subprocess.run(
                [compiler, "-O3", "-shared", "-fPIC", "-o", str(tmp_so), str(_SOURCE)],
                check=True, capture_output=True, timeout=120,
            )
            if cached is not None:
                os.replace(tmp_so, cached)
                return _load(cached)
            # No cache available: load from the throwaway dir (the dynamic
            # loader keeps the mapping alive after the file is removed).
            return _load(tmp_so)
    except (OSError, subprocess.SubprocessError):
        return None
