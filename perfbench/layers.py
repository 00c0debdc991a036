"""Per-layer timing for the traced pass.

:class:`LayerProbe` wraps the public functions of each layer of ``repro``
with timers, from the benchmark's side: class attributes are wrapped in
place, module functions are rebound at every import site (``top_k_indices``
is imported by name into ``repro.sparse.vector``, for example), and
per-object methods (the transport, the model replicas, the optimizers) are
wrapped on the instance.  Pipeline stage times come from the public
``SyncSession.add_stage_hook``.  Leaving the ``with`` block restores every
original, so the untraced passes run the exact program.

Times are inclusive: a group's time is the time spent inside its outermost
call, so a nested call into the same group (``sendrecv`` calling
``exchange``) is not counted twice, while groups may overlap each other
(``SparseGradient.merge_many`` inside the exchange stage).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: ``(module, class, attribute, group)`` of the class methods timed.
CLASS_METHODS = (
    ("repro.sparse.vector", "SparseGradient", "add", "sparse.merge"),
    ("repro.sparse.vector", "SparseGradient", "merge_many", "sparse.merge"),
    ("repro.sparse.vector", "SparseGradient", "to_dense", "sparse.to_dense"),
    ("repro.comm.packed", "PackedBags", "pack", "comm.pack"),
    ("repro.core.residuals", "ResidualManager", "apply", "core.residuals.apply"),
    ("repro.core.residuals", "ResidualManager", "collect_local", "core.residuals.collect"),
    ("repro.core.residuals", "ResidualManager", "collect_local_sparse",
     "core.residuals.collect"),
    ("repro.core.residuals", "ResidualManager", "collect_procedure",
     "core.residuals.collect"),
    ("repro.core.residuals", "ResidualManager", "finalize", "core.residuals.finalize"),
    ("repro.compression.quantization", "QuantizedCompressor", "compress_sparse",
     "compression.quantize"),
    ("repro.compression.quantization", "QuantizedCompressor", "compress_dense",
     "compression.quantize"),
)

#: ``(defining module, function, group)`` of the module functions timed.
MODULE_FUNCTIONS = (
    ("repro.sparse.topk", "top_k_indices", "sparse.top_k"),
    ("repro.core.fusion", "plan_buckets", "core.fusion.plan"),
)


class LayerProbe:
    """Accumulates wall time and call counts per layer group.

    Use as a context manager around a traced pass; call :meth:`snapshot`
    before and after the region of interest and subtract.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: ``(synchroniser class name, SyncResult.info)`` of every step of
        #: a watched session.
        self.step_infos: List[Tuple[str, Dict[str, Any]]] = []
        self._active: set = set()
        self._restore: List[Callable[[], None]] = []
        self._stage_mark = 0.0

    # ------------------------------------------------------------------
    def timed(self, group: str, fn: Callable) -> Callable:
        """``fn`` wrapped to add its outermost calls' time to ``group``."""
        def wrapper(*args, **kwargs):
            if group in self._active:
                return fn(*args, **kwargs)
            self._active.add(group)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[group] += time.perf_counter() - start
                self.calls[group] += 1
                self._active.discard(group)
        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        return dict(self.seconds), dict(self.calls)

    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerProbe":
        for module_name, class_name, attribute, group in CLASS_METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            self._wrap_class_attribute(cls, attribute, group)
        for module_name, function_name, group in MODULE_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), function_name)
            self._rebind_everywhere(original, self.timed(group, original))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._restore:
            self._restore.pop()()

    def _wrap_class_attribute(self, cls: type, attribute: str, group: str) -> None:
        raw = cls.__dict__[attribute]
        if isinstance(raw, (staticmethod, classmethod)):
            replacement = type(raw)(self.timed(group, raw.__func__))
        else:
            replacement = self.timed(group, raw)
        setattr(cls, attribute, replacement)
        self._restore.append(lambda: setattr(cls, attribute, raw))

    def _rebind_everywhere(self, original: Callable, replacement: Callable) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that holds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, replacement)
                    self._restore.append(
                        lambda m=module, a=attribute: setattr(m, a, original))

    # ------------------------------------------------------------------
    # per-object wrappers (objects built inside the traced pass)
    # ------------------------------------------------------------------
    def wrap_method(self, obj: Any, attribute: str, group: str) -> None:
        setattr(obj, attribute, self.timed(group, getattr(obj, attribute)))

    def watch_transport(self, transport: Any) -> None:
        self.wrap_method(transport, "exchange", "comm.exchange")
        self.wrap_method(transport, "sendrecv", "comm.exchange")

    def watch_session(self, session: Any) -> None:
        """Time the five pipeline stages of every step ``session`` runs and
        keep each step's diagnostics (for the useful-work ratios)."""
        step = session.step
        method = type(session.synchronizer).__name__

        def traced_step(gradients):
            self._stage_mark = time.perf_counter()
            result = step(gradients)
            self.step_infos.append((method, result.info))
            return result

        session.step = traced_step
        session.add_stage_hook(self._stage_done)

    def _stage_done(self, stage: Any, context: Any) -> None:
        now = time.perf_counter()
        group = f"core.pipeline.{stage.value}"
        self.seconds[group] += now - self._stage_mark
        self.calls[group] += 1
        self._stage_mark = now

    def watch_trainer(self, trainer: Any) -> None:
        """Time the trainer's model, optimizer and synchronisation calls.

        Stage hooks go on the bucket sessions: a bucketed synchroniser runs
        the five stages once per bucket, inside its own ``_step``.
        """
        self.watch_transport(trainer.cluster)
        for replica in trainer.replicas:
            self.wrap_method(replica, "forward", "nn.forward")
            self.wrap_method(replica, "backward", "nn.backward")
        for optimizer in trainer.optimizers:
            self.wrap_method(optimizer, "step", "nn.optim")
        self.wrap_method(trainer.session, "step", "training.sync")
        for session in getattr(trainer.synchronizer, "sessions", [trainer.session]):
            self.watch_session(session)
