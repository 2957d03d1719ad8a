"""Span tracing of deltavar from outside the package.

The tracer wraps package functions at every name they are bound to, in the
defining module and in each module that imported them (for example both
``deltavar.evaluation.fit_laplace_calibration`` and
``deltavar.bench.fit_laplace_calibration``), so calls between modules are
timed without editing the package. Spans live in memory as
(id, parent, name, thread, start, end, thread CPU seconds) and are written
out once, after the run, by the caller. Nothing here touches a report
directory.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name). An attribute with a dot is a method.
TARGETS = (
    ("deltavar.autodiff", "Tape.grad", "autodiff.Tape.grad"),
    ("deltavar.autodiff", "Tape.hessian", "autodiff.Tape.hessian"),
    ("deltavar.models", "train", "models.train"),
    ("deltavar.models", "mean_loglik_grad", "models.mean_loglik_grad"),
    ("deltavar.models", "loglik_grad_batch", "models.loglik_grad_batch"),
    ("deltavar.covariance", "empirical_fisher", "covariance.empirical_fisher"),
    ("deltavar.covariance", "loss_hessian", "covariance.loss_hessian"),
    ("deltavar.covariance", "invert", "covariance.invert"),
    ("deltavar.covariance", "sandwich", "covariance.sandwich"),
    ("deltavar.covariance", "save_covariance", "covariance.save_covariance"),
    ("deltavar.covariance", "load_covariance", "covariance.load_covariance"),
    ("deltavar.qoi", "values_and_deltas", "qoi.values_and_deltas"),
    ("deltavar.qoi", "qoi_value_and_delta", "qoi.qoi_value_and_delta"),
    ("deltavar.qoi", "value_batch_params", "qoi.value_batch_params"),
    ("deltavar.qoi", "_eigen_value_batch", "qoi._eigen_value_batch"),
    ("deltavar.delta_variance", "delta_variance",
     "delta_variance.delta_variance"),
    ("deltavar.delta_variance", "finetune_scales",
     "delta_variance.finetune_scales"),
    ("deltavar.evaluation", "fit_laplace_calibration",
     "evaluation.fit_laplace_calibration"),
    ("deltavar.evaluation", "retention_auc", "evaluation.retention_auc"),
    ("deltavar.baselines", "train_ensemble", "baselines.train_ensemble"),
    ("deltavar.baselines", "ensemble_variance_batch",
     "baselines.ensemble_variance_batch"),
    ("deltavar.baselines", "dropout_variance_batch",
     "baselines.dropout_variance_batch"),
    ("deltavar.oracles", "richardson_eps_loo", "oracles.richardson_eps_loo"),
    ("deltavar.oracles", "adversarial_shift", "oracles.adversarial_shift"),
    ("deltavar.oracles", "gaussian_posterior_mc",
     "oracles.gaussian_posterior_mc"),
    ("deltavar.oracles", "mahalanobis_gradient_distance",
     "oracles.mahalanobis_gradient_distance"),
    ("deltavar.bench", "_select_regularizer", "bench._select_regularizer"),
    ("deltavar.bench", "run_scenario", "bench.run_scenario"),
    ("deltavar.cli", "_cmd_train", "cli.train"),
    ("deltavar.cli", "_cmd_sigma", "cli.sigma"),
    ("deltavar.cli", "_cmd_deltavar", "cli.deltavar"),
    ("deltavar.cli", "load_model_dir", "cli.load_model_dir"),
    ("deltavar.util", "ordered_parallel_map", "util.ordered_parallel_map"),
)

MAP_SPAN = "util.ordered_parallel_map"
ITEM_SPAN = MAP_SPAN + ".item"


def _steps_of_train(result, args, kwargs):
    return (result.diagnostics or {}).get("steps", 0)


def _steps_of_finetune(result, args, kwargs):
    return result.steps_taken


def _bytes_of_file(result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# span name -> (counter suffix, function of (result, args, kwargs))
COUNTERS = {
    "models.train": ("steps", _steps_of_train),
    "delta_variance.finetune_scales": ("steps", _steps_of_finetune),
    "covariance.save_covariance": ("bytes", _bytes_of_file),
    "covariance.load_covariance": ("bytes", _bytes_of_file),
}


class Tracer:
    """Collects spans and counters; installs and removes the wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.map_workers: dict[int, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    # ---- spans ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, parent=None):
        """Run fn inside a span; the parent defaults to the enclosing span."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        cpu = time.thread_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - cpu
            stack.pop()
            self.spans.append((span_id, parent, name, threading.get_ident(),
                               start, end, cpu))
        counter = COUNTERS.get(name)
        if counter is not None:
            suffix, count = counter
            value = count(result, args, kwargs)
            with self._lock:
                self.counters[f"{name}.{suffix}"] += value
        return result

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return wrapper

    def _wrap_parallel_map(self, fn, thread_count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(item_fn, items):
            items = list(items)

            def body():
                # worker threads start with an empty stack, so each item
                # span names the map span as its parent explicitly
                map_id = tracer._stack()[-1]
                tracer.map_workers[map_id] = min(thread_count(),
                                                 max(len(items), 1))
                return fn(lambda x: tracer.call(ITEM_SPAN, item_fn, (x,), {},
                                                parent=map_id), items)

            return tracer.call(MAP_SPAN, body, (), {})

        return wrapper

    # ---- install / remove ----------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target at every deltavar binding of it."""
        thread_count = importlib.import_module("deltavar.util").thread_count
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "deltavar" or n.startswith("deltavar.")]
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._set(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            if name == MAP_SPAN:
                wrapped = self._wrap_parallel_map(original, thread_count)
            else:
                wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._patched.append((value, k, v))
                                value[k] = wrapped

    def remove(self) -> None:
        """Put every original binding back, newest first."""
        while self._patched:
            owner, attr, value = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # ---- derived numbers -----------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, inclusive CPU
        seconds, plus counters.

        Worker threads wait on the interpreter lock inside their spans, so
        wall time double counts where the pool runs; `cpu_total` (CPU of
        every span that starts a thread's traced work) does not.
        """
        by_id = {s[0]: s for s in self.spans}
        children: dict[int, list] = defaultdict(list)
        for s in self.spans:
            if s[1] is not None:
                children[s[1]].append(s)
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
        cpu_total = 0.0
        for span_id, parent, name, tid, start, end, cpu in self.spans:
            covered = _union_length(
                (max(c[4], start), min(c[5], end)) for c in children[span_id])
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - covered
            entry["cpu_s"] += cpu
            if parent is None or by_id[parent][3] != tid:
                cpu_total += cpu
        fits_under_select = 0
        for s in self.spans:
            if s[2] != "evaluation.fit_laplace_calibration":
                continue
            parent = s[1]
            while parent is not None:
                if by_id[parent][2] == "bench._select_regularizer":
                    fits_under_select += 1
                    break
                parent = by_id[parent][1]
        busy = wall_workers = 0.0
        for span_id, _, name, _, start, end, _ in self.spans:
            if name == MAP_SPAN:
                busy += sum(c[5] - c[4] for c in children[span_id])
                wall_workers += (end - start) * self.map_workers.get(span_id, 1)
        return {
            "layers": dict(out),
            "counters": dict(self.counters),
            "cpu_total": cpu_total,
            "select_calibration_fits": fits_under_select,
            "map_efficiency": busy / wall_workers if wall_workers else 0.0,
        }

    def write_jsonl(self, path) -> None:
        """All spans, one JSON object per line."""
        with open(path, "w") as fh:
            for span_id, parent, name, tid, start, end, cpu in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "thread": tid,
                                     "start": start, "end": end,
                                     "cpu": cpu}) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
