"""In-memory spans around knockint's public functions, installed from outside.

The tracer replaces a function by a wrapper in every knockint module that
binds it (the defining module, `harness`, `importance`, ...), so the spans
sit at the module boundaries the pipeline actually crosses. Nothing in the
program changes. Spans are kept in memory until the run ends; a layer's
figure is its self time (span duration minus the time its child spans cover).

The wrapper's own bookkeeping (opening and closing spans, counting) is
timed on every call and summed in `overhead_s`. That is a lower bound on the
wall time a traced run adds to an untraced one: the extra call frame and the
`enabled` test are not in it. The difference of a traced and an untraced run
is not used instead, because run-to-run drift of the machine is far larger.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

perf = time.perf_counter


def _path_bytes(args, kwargs, key="path"):
    path = kwargs.get(key, args[0] if args else None)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _report_bytes(args, kwargs):
    outdir = args[0]
    return sum(_path_bytes((os.path.join(outdir, f),), {})
               for f in ("report.json", "summary.csv", "aggregate.csv"))


def _train_counts(args, kwargs, out):
    X_aug, cfg = args[1], args[3]
    n_tr = X_aug.shape[0] - int(round(cfg.validation_fraction * X_aug.shape[0]))
    steps = cfg.epochs * -(-n_tr // cfg.batch_size)
    return {"steps": steps, "final_loss": out[1]["train_loss"][-1]}


def _instance_samples(args, kwargs, out):
    X_aug, cfg = args[1], args[2]
    n_baselines = 1 if isinstance(cfg.baselines, str) else len(cfg.baselines)
    return {"samples": min(cfg.sample_cap, X_aug.shape[0]) * n_baselines}


# (module, function, span name, counter(args, kwargs, result) -> dict).
# Writers and readers are named after the layer that calls them: harness.
TRACED = (
    ("harness", "run_repetition", "harness.cell", None),
    ("simsuite", "generate", "simsuite.generate", None),
    ("knockoff", "fit_gaussian", "knockoff.fit_gaussian", None),
    ("knockoff", "sample_knockoffs", "knockoff.sample_knockoffs", None),
    ("network", "train", "network.train", _train_counts),
    ("network", "batch_input_hessian", "network.hessian",
     lambda a, k, out: {"points": a[1].shape[0]}),
    ("importance", "compute_scores", "importance.compute_scores", None),
    ("importance", "instance_based_2d", "importance.instance_2d", _instance_samples),
    ("importance", "instance_based_1d", "importance.instance_1d", None),
    ("fdr", "build_gamma", "fdr.build_gamma", lambda a, k, out: {"pairs": len(out)}),
    ("fdr", "interaction_threshold", "fdr.interaction_threshold",
     lambda a, k, out: {"selected": len(out.selected)}),
    ("metrics", "evaluate", "metrics.evaluate", None),
    ("simsuite", "write_dataset_csv", "harness.write",
     lambda a, k, out: {"bytes": _path_bytes(a, k) + _path_bytes(a[2:], k, "manifest_path")}),
    ("knockoff", "save_model", "harness.write",
     lambda a, k, out: {"bytes": _path_bytes(a[1:], k)}),
    ("knockoff", "write_augmented_csv", "harness.write",
     lambda a, k, out: {"bytes": _path_bytes(a, k)}),
    ("network", "save_network", "harness.write",
     lambda a, k, out: {"bytes": _path_bytes(a[1:], k)}),
    ("importance", "write_scores_csv", "harness.write",
     lambda a, k, out: {"bytes": _path_bytes(a, k)}),
    ("fdr", "write_selection_json", "harness.write",
     lambda a, k, out: {"bytes": _path_bytes(a, k)}),
    ("fdr", "write_selection_csv", "harness.write",
     lambda a, k, out: {"bytes": _path_bytes(a, k)}),
    ("harness", "_write_report", "harness.write",
     lambda a, k, out: {"bytes": _report_bytes(a, k)}),
    ("importance", "read_scores_csv", "harness.read",
     lambda a, k, out: {"bytes": _path_bytes(a, k)}),
)


class Tracer:
    """Spans as [name, start, end, parent index, counts]; parent -1 is a root.

    Spans are recorded only while `enabled` is true, so the benchmark's own
    checks, which call into the program too, leave no spans.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.overhead_s = 0.0
        self.enabled = False
        self._patches = []

    def _open(self, name):
        t0 = perf()
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = t1 = perf()
        self.overhead_s += t1 - t0
        return span

    def _close(self, span):
        span[2] = t2 = perf()
        self.stack.pop()
        return t2

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around one of its ops."""
        span = self._open(name)
        try:
            yield
        finally:
            t2 = self._close(span)
            self.overhead_s += perf() - t2

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                t2 = self._close(span)
            if counter is not None:
                span[4] = counter(args, kwargs, out)
            self.overhead_s += perf() - t2
            return out
        return traced

    def install(self, table=TRACED):
        """Wrap each function in every loaded knockint module that binds it."""
        modules = [m for k, m in sys.modules.items()
                   if k == "knockint" or k.startswith("knockint.")]
        for modname, attr, name, counter in table:
            original = getattr(sys.modules[f"knockint.{modname}"], attr)
            wrapped = self.wrap(original, name, counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def self_times(self):
        """Per span name: (total self time, number of spans, summed counts)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(lambda: defaultdict(float))
        for k, (name, start, end, parent, extra) in enumerate(self.spans):
            totals[name] += end - start - child[k]
            calls[name] += 1
            for key, value in (extra or {}).items():
                counts[name][key] += value
        return totals, calls, counts

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]
