"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each hooked function with a wrapper that
records one span (name, start, end, parent) per call. A module-level
function is replaced under every ``meltshift.*`` module attribute bound to
that same function object, because modules import each other's functions
by name (the trainer calls its own ``adam_step`` binding, the splitter
calls ``kmer_set`` as a global). Methods are replaced on their class. A
target that no longer exists is reported as absent, not raised, so the
benchmark survives renames and merges in the package.

Spans live in flat arrays while the run lasts and are written to a
``.npz`` file at the end.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array

import numpy as np

# "module:qualname" of every hooked function; the span is named
# "<module>.<function>", and the module is the layer it belongs to.
TAPE_OPS = ("leaf", "add", "sub", "scale", "const_scale", "linear",
            "outer_flatten", "layernorm", "concat", "mean_scalars", "mse")
HOOKS = (
    [f"meltshift.tape:Tape.{op}" for op in TAPE_OPS + ("backward",)]
    + ["meltshift.heads:EnsembleModel.batch_loss",
       "meltshift.heads:EnsembleModel.predict",
       "meltshift.heads:TrackProjection.project",
       "meltshift.optim:clip_global_norm",
       "meltshift.optim:global_grad_norm",
       "meltshift.optim:adam_step",
       "meltshift.trainer:train",
       "meltshift.trainer:evaluate",
       "meltshift.data:load_dataset",
       "meltshift.data:read_bundles",
       "meltshift.checkpoint:save_checkpoint",
       "meltshift.splitter:split_records",
       "meltshift.splitter:greedy_cluster",
       "meltshift.splitter:kmer_set",
       "meltshift.splitter:split_clusters",
       "meltshift.metrics:compute_report"]
)


def span_name(target: str) -> str:
    """``meltshift.optim:adam_step`` -> ``optim.adam_step``."""
    module, qualname = target.split(":")
    return module.split(".")[-1] + "." + qualname.split(".")[-1]


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


class Tracer:
    """Owns the span arrays and the installed patches of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        # observations made at hook boundaries, outside the spans
        self.wt_seen = 0
        self.wt_total = 0
        self.param_count = 0
        self.file_mb: dict[str, float] = {}

    # ------------------------------------------------------------------
    # observers: they read a call's arguments or result after its span ends

    def _wt_repeats(self, wt_ids) -> None:
        seen = set()
        for vid in wt_ids:
            self.wt_total += 1
            if vid in seen:
                self.wt_seen += 1
            seen.add(vid)

    def _batch(self, args, result) -> None:
        self._wt_repeats(sample[0].variant_id for sample in args[2])

    def _evaluate(self, args, result) -> None:
        self._wt_repeats(r.wt_variant_id for r in args[1])

    def _adam(self, args, result) -> None:
        self.param_count = sum(p.size for p in args[0].values())

    def _file(self, name: str):
        def observe(args, result) -> None:
            self.file_mb[name] = _file_mb(args[0])
        return observe

    def _observer(self, name: str):
        return {"heads.batch_loss": self._batch,
                "trainer.evaluate": self._evaluate,
                "optim.adam_step": self._adam,
                "data.read_bundles": self._file(name),
                "checkpoint.save_checkpoint": self._file(name)}.get(name)

    # ------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack, start, end, parent, ids = (self._stack, self.start, self.end,
                                          self.parent, self.name_id)
        observe = self._observer(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            ids.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                try:
                    observe(args, result)
                except (IndexError, AttributeError, TypeError, OSError):
                    # the call's signature changed: report, never raise
                    if f"{name} (observer)" not in self.absent:
                        self.absent.append(f"{name} (observer)")
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for target in HOOKS:
            module_name, qualname = target.split(":")
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            wrapped = self._wrap(span_name(target), original)
            if path:  # a method: replace it on its class
                self._patch(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "meltshift"
                                       or mod_name.startswith("meltshift.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy()}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class Spans:
    """Read-only view of recorded spans with per-name aggregates."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name_id = a["name_id"]
        self.start = a["start"]
        self.end = a["end"]
        self.parent = a["parent"]
        self.dur = self.end - self.start

    def is_name(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.dur.size, dtype=bool)
        return self.name_id == self.names.index(name)

    def ids(self, name: str) -> np.ndarray:
        """Indices of every span of ``name``, in call order."""
        return np.flatnonzero(self.is_name(name))

    def within(self, name: str) -> np.ndarray:
        """Mask of the spans of ``name`` and of every span nested in one."""
        hit = self.is_name(name)
        mark = hit.copy()
        up = self.parent.copy()
        while (live := up >= 0).any():
            mark[live] |= hit[up[live]]
            up[live] = self.parent[up[live]]
        return mark

    def count(self, name: str, mask=None) -> int:
        ids = self.is_name(name) if mask is None else self.is_name(name) & mask
        return int(ids.sum())

    def total(self, name: str, mask=None) -> float:
        ids = self.is_name(name) if mask is None else self.is_name(name) & mask
        return float(self.dur[ids].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.dur[self.ids(name)]
