"""In-memory span tracing around the program's public functions.

A :class:`Tracer` replaces a function with a timing wrapper in every loaded
``graphrec`` module that binds it, so a call is traced wherever the caller
looks the name up (``forward`` is called through ``graphrec.train`` and
``graphrec.evaluate``, not only ``graphrec.model``). Spans record a name, a
start, an end and the index of the enclosing span; self time is a span's
duration minus the time its direct children cover. Names a later version of
the program no longer defines are recorded as absent instead of failing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs traced; spans are named "<module>.<function>".
TARGETS = [
    ("ml1m", "make_ml1m_dataset"), ("ml1m", "load_user_records"),
    ("ml1m", "load_item_records"),
    ("data", "load_interactions"), ("data", "split"),
    ("data", "save_checkpoint"), ("data", "load_checkpoint"),
    ("attributes", "encode"), ("attributes", "mask"),
    ("attributes", "init_missing"), ("attributes", "apply_update"),
    ("graph", "build_graph"), ("graph", "propagate"),
    ("model", "init_params"), ("model", "forward"), ("model", "infer_attributes"),
    ("train", "train"), ("train", "sample_negatives"), ("train", "batch_losses"),
    ("train", "gradients"), ("train", "adam_step"),
    ("evaluate", "evaluate_model"), ("evaluate", "rank_and_score"),
    ("evaluate", "sparsity_groups"), ("evaluate", "attribute_metrics"),
    ("evaluate", "label_propagation"), ("evaluate", "label_propagation_metrics"),
]


PACKAGE = "graphrec"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self.stack = []
        self.installed = []      # (module, attribute, original)
        self.absent = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code."""
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return wrapper

    def install(self, targets=TARGETS):
        """Wrap each target in every loaded package module binding it."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, fn_name in targets:
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                if vars(mod).get(fn_name) is original:
                    setattr(mod, fn_name, wrapper)
                    self.installed.append((mod, fn_name, original))

    def uninstall(self):
        for mod, attr, original in reversed(self.installed):
            setattr(mod, attr, original)
        self.installed = []

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "absent": self.absent}, fh)


def span_cost():
    """Seconds one traced call adds: a wrapped no-op against a bare one."""
    def noop():
        return None
    calls = 20_000
    elapsed = []
    for fn in (noop, Tracer()._wrap("noop", noop)):
        t = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(time.perf_counter() - t)
    return max(elapsed[1] - elapsed[0], 0.0) / calls


def summarize(spans, phase):
    """Per-name self seconds and call counts over spans below any span named
    ``phase``, plus ``(name, ancestor) -> calls`` for nesting ratios."""
    children = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    nested = defaultdict(int)
    for idx, (name, start, end, parent) in enumerate(spans):
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if phase not in ancestors:
            continue
        self_s[name] += (end - start) - children[idx]
        calls[name] += 1
        for anc in set(ancestors):
            nested[(name, anc)] += 1
    return self_s, calls, nested
