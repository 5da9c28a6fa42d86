"""In-memory span recording around jumprl's layer boundaries.

`Tracer.install` rebinds the library's public functions (and the value
families' methods) to timing wrappers; `Tracer.restore` puts the originals
back. Each wrapped call records one span

    (span id, name id, start, end, parent span id, self seconds, value)

where self time is the span's duration minus the durations of its direct
children, and `value` is an optional size taken from the call's arguments
(paths simulated, paths per argmin). Spans stay in memory until `write_csv`.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager


def _arg(index: int, name: str):
    """Extractor for a positional-or-keyword argument of a wrapped call."""
    return lambda args, kwargs: args[index] if len(args) > index else kwargs[name]


def trace_points():
    """(owner, attribute, span name, value extractor) for every traced call.

    Functions are rebound in each module that calls them through its own
    global name, so the wrappers see calls from inside the library.
    """
    from jumprl import estimators, models, oracles, portfolio, sde, serialize

    n_paths = _arg(4, "n_paths")  # simulate_batch and mc_argmin both take it 5th
    points = [
        (sde, "path_rng", "rng.path_rng", None),
        (estimators, "simulate_batch", "sde.simulate_batch", n_paths),
        (oracles, "simulate_batch", "sde.simulate_batch", n_paths),
        (estimators, "train", "estimators.train", None),
        (estimators, "grads_by_row", "estimators.grads_by_row", None),
        (estimators, "losses_by_row", "estimators.losses_by_row", None),
        (portfolio, "grads_by_row", "portfolio.grads_by_row", None),
        (portfolio, "losses_by_row", "portfolio.losses_by_row", None),
        (portfolio, "bipower_sigma2", "portfolio.bipower_sigma2", None),
        (portfolio, "threshold_series", "portfolio.threshold_series", None),
        (portfolio, "rolling_backtest", "portfolio.rolling_backtest", None),
        (oracles, "mc_objective_grid", "oracles.mc_objective_grid", None),
        (oracles, "mc_objective_samples", "oracles.mc_objective_samples", None),
        (oracles, "mc_argmin", "oracles.mc_argmin", n_paths),
        (oracles, "reference_minimizers", "oracles.reference_minimizers", None),
        (serialize, "dump_json", "serialize.dump_json", None),
    ]
    for family in ("LinearValue", "QuadraticValue", "ExponentialValue",
                   "MeanVarianceValue", "CustomValue"):
        for method in ("value", "dvalue_dtheta", "dvalue_dx"):
            points.append((getattr(models, family), method, f"models.{method}", None))
    # a name the library does not define is skipped; the traced run's exact
    # count checks then show any call that went unrecorded
    return [p for p in points if hasattr(p[0], p[1])]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self) -> list:
        entry = [next(self._ids), time.perf_counter(), 0.0]
        self._stack.append(entry)
        return entry

    def _exit(self, entry: list, name_id: int, value) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - entry[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((entry[0], name_id, entry[1], end,
                           parent[0] if parent is not None else -1,
                           duration - entry[2], value))

    def wrap(self, fn, name: str, value_of=None):
        name_id = self._name_id(name)
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            entry = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(entry, name_id, value_of(args, kwargs) if value_of else 0)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        name_id = self._name_id(name)
        entry = self._enter()
        try:
            yield
        finally:
            self._exit(entry, name_id, 0)

    def install(self) -> None:
        for owner, attr, name, value_of in trace_points():
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, value_of))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict:
        """name -> {"count", "total_s", "self_s", "value"} summed over spans."""
        out = {name: {"count": 0, "total_s": 0.0, "self_s": 0.0, "value": 0}
               for name in self.names}
        for _, name_id, start, end, _, self_s, value in self.spans:
            row = out[self.names[name_id]]
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += self_s
            row["value"] += value
        return out

    def value_under(self, name: str, ancestor: str) -> int:
        """Summed `value` of `name` spans that have an `ancestor` span above them."""
        target, above = self._name_ids.get(name), self._name_ids.get(ancestor)
        if target is None or above is None:
            return 0
        parent_of = {span[0]: (span[1], span[4]) for span in self.spans}
        total = 0
        for sid, name_id, _, _, parent, _, value in self.spans:
            if name_id != target:
                continue
            while parent != -1:
                parent_name, parent = parent_of[parent]
                if parent_name == above:
                    total += value
                    break
        return total

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,self_s,value\n")
            for sid, name_id, start, end, parent, self_s, value in self.spans:
                fh.write(f"{sid},{self.names[name_id]},{start!r},{end!r},{parent},"
                         f"{self_s!r},{value}\n")
