"""Spans around the package's public functions, recorded from outside.

`Tracer.patch` wraps each listed function and rebinds the wrapper in every
``svdsurgery`` module that holds the original, because ``from .x import f``
gives the importing module its own reference; patching only the defining
module would leave those call sites untraced. Spans stay in memory and are
written out as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at a command's root
    run: int  # one id per CLI invocation, as if each ran in its own process
    attrs: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for i, span in enumerate(spans):
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[i]
        )
        covered, cursor = 0.0, span.start
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span.end - span.start) - covered)
    return out


def _fingerprint(arr) -> str:
    """Cheap identity of a matrix's contents: shape plus a strided sample."""
    arr = np.asarray(arr)
    sample = np.ascontiguousarray(arr.reshape(-1)[::97])
    return f"{arr.shape}:{hashlib.blake2b(sample.tobytes(), digest_size=16).hexdigest()}"


def _svd_attrs(args, kwargs, result) -> dict:
    m, n = np.shape(args[0])
    return {"work_mnk": m * n * min(m, n), "input": _fingerprint(args[0])}


def _load_matrix_attrs(args, kwargs, result) -> dict:
    ckpt, name = args[0], args[1]
    return {"bytes": ckpt.index[name].nbytes, "input": f"{ckpt.path}:{name}"}


def _file_size_attrs(path_arg: int):
    def attrs(args, kwargs, result) -> dict:
        return {"bytes": os.path.getsize(args[path_arg])}

    return attrs


def _records_attrs(args, kwargs, result) -> dict:
    return {"records": int(len(result[0]))}


#: (module, function, extra attributes recorded after the call returns)
TRACED = [
    ("tensorstore", "open_checkpoint", None),
    ("tensorstore", "load_matrix", _load_matrix_attrs),
    ("tensorstore", "decode_values", None),
    ("tensorstore", "encode_values", None),
    ("tensorstore", "write_checkpoint", _file_size_attrs(2)),
    ("spectral", "svd", _svd_attrs),
    ("spectral", "delta_sigma", None),
    ("spectral", "matrix_angles", None),
    ("spectral", "principal_angles", None),
    ("surgery", "plan_selection", None),
    ("surgery", "mixed_matrix", None),
    ("surgery", "run_surgery", None),
    ("penalty", "fit_reference", None),
    ("penalty", "penalty_value", None),
    ("advantage", "read_rollout_log", _records_attrs),
    ("advantage", "gae", None),
    ("advantage", "summarize", None),
    ("advantage", "histogram_table", None),
    ("reports", "write_csv", _file_size_attrs(0)),
    ("reports", "write_json", _file_size_attrs(0)),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.run = -1

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def command(self, name: str):
        """Root span of one CLI invocation; starts a new run id."""
        self.run += 1
        return self.span(name)

    def _wrap(self, name: str, fn, attrs):
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def patch(self):
        """Wrap every TRACED function in every loaded svdsurgery module."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "svdsurgery" or n.startswith("svdsurgery.")
        ]
        undo = []
        try:
            for module_name, func_name, attrs in TRACED:
                original = getattr(sys.modules[f"svdsurgery.{module_name}"], func_name)
                wrapper = self._wrap(f"{module_name}.{func_name}", original, attrs)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            undo.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def library_self_s(spans: list[Span]) -> dict[int, float]:
    """Per run id, the self time of every span below the cli.<cmd> root.

    The root's own self time is what no library layer accounts for, so
    this over a command's wall time is the share the layers explain.
    """
    out: dict[int, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if not span.name.startswith("cli."):
            out[span.run] += own
    return out


def layer_metrics(spans: list[Span], commands: list[str]) -> dict[str, float]:
    """Per-layer counts and self times, zero for layers that did not run."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    attr_sum: dict[tuple[str, str], float] = defaultdict(float)
    distinct: dict[str, set] = defaultdict(set)
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        self_s[span.name] += own
        for key, value in span.attrs.items():
            if key == "input":
                distinct[span.name].add((span.run, value))
            else:
                attr_sum[(span.name, key)] += value

    def ratio(name: str) -> float:
        return len(distinct[name]) / calls[name] if calls[name] else 0.0

    metrics: dict[str, float] = {}
    for command in commands:
        metrics[f"cli.{command}.self_s"] = self_s[f"cli.{command}"]
    for module_name, func_name, _ in TRACED:
        name = f"{module_name}.{func_name}"
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    written = attr_sum[("tensorstore.write_checkpoint", "bytes")]
    metrics.update(
        {
            "tensorstore.load_matrix.mb": attr_sum[("tensorstore.load_matrix", "bytes")] / 1e6,
            "tensorstore.load_matrix.distinct_ratio": ratio("tensorstore.load_matrix"),
            "tensorstore.write_checkpoint.mb_written": written / 1e6,
            "spectral.svd.distinct_ratio": ratio("spectral.svd"),
            "spectral.svd.work_mnk": attr_sum[("spectral.svd", "work_mnk")],
            "advantage.read_rollout_log.records": attr_sum[
                ("advantage.read_rollout_log", "records")
            ],
            "reports.write_csv.mb": attr_sum[("reports.write_csv", "bytes")] / 1e6,
        }
    )
    return metrics
