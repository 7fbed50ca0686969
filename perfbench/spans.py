"""In-memory span tracer that wraps the library's public functions.

The tracer rebinds each traced name in every loaded ``foliationlab`` module
that holds the original function object, so calls between layers (for
example ``solver.track_one`` calling ``closed_form_sing``, or
``jouanolou.closed_form_sing`` calling ``eval_field``) go through a wrapper
that records a span.  The library source is not modified and the original
bindings are restored by ``uninstall``.

A span is (name, start, end, parent span, item).  Spans live in flat arrays
while the benchmark runs and are written out once at the end.  Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import time
from array import array
from math import comb

import numpy as np

# (module, function) pairs traced; the span name is "<module>.<function>".
TARGETS = (
    ("cpoly", "eval_field"),
    ("cpoly", "jacobian"),
    ("jouanolou", "closed_form_sing"),
    ("jouanolou", "family_field"),
    ("solver", "newton_refine"),
    ("solver", "track_one"),
    ("solver", "track_singularities"),
    ("spectral", "char_poly_direct"),
    ("spectral", "eigenvalues"),
    ("spectral", "classify"),
    ("spectral", "small_divisor_scan"),
    ("spectral", "spectrum_report"),
    ("genericity", "alignment_census"),
    ("genericity", "hyperplane_set"),
    ("genericity", "defect_experiment"),
    ("genericity", "submersion_all"),
    ("genericity", "genericity_sample"),
    ("cli", "run"),
)


class Tracer:
    """Spans and per-call counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items: list[str] = []
        self._stack: list[int] = []
        self._item = -1
        self._saved: list[tuple[object, str, object]] = []
        # counters read from arguments and results at the layer boundary
        self.newton_iters = 0
        self.max_residual = 0.0
        self.scan_shape = (0, 0)          # largest (n, max_order) scanned
        self.census_pairs = 0
        self.collision_bytes = 0
        self.defect_expected = 0
        self.submersion_expected = 0

    # -- recording -------------------------------------------------------

    def begin_item(self, label: str) -> None:
        self.items.append(label)
        self._item = len(self.items) - 1

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn, hook):
        name_id = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counters fed by hooks -------------------------------------------

    def _on_newton(self, args, point) -> None:
        self.newton_iters += point.newton_iters

    def _on_track_one(self, args, point) -> None:
        self.max_residual = max(self.max_residual, point.residual)

    def _on_track_all(self, args, points) -> None:
        n = len(points[0].coords)
        self.collision_bytes = max(self.collision_bytes, len(points) ** 2 * n * 16)

    def _on_scan(self, args, record) -> None:
        n = len(np.ravel(args[0]))
        self.scan_shape = max(self.scan_shape, (n, record.max_order))

    def _on_census(self, args, records) -> None:
        big_n = len(args[0])
        self.census_pairs += big_n * (big_n - 1) // 2

    def _on_defect(self, args, result) -> None:
        d = args[1]
        self.defect_expected += len(result.mus) * (d + 1)

    def _on_submersion(self, args, reports) -> None:
        n = args[0]
        self.submersion_expected += 2 * n * len(reports)

    # -- installing ------------------------------------------------------

    def install(self, package) -> None:
        """Rebind every traced name in the package's loaded modules."""
        hooks = {
            "newton_refine": self._on_newton,
            "track_one": self._on_track_one,
            "track_singularities": self._on_track_all,
            "small_divisor_scan": self._on_scan,
            "alignment_census": self._on_census,
            "defect_experiment": self._on_defect,
            "submersion_all": self._on_submersion,
        }
        modules = [package] + [getattr(package, m) for m in
                               ("cpoly", "jouanolou", "solver", "spectral", "genericity", "cli")]
        for mod_name, fn_name in TARGETS:
            original = getattr(getattr(package, mod_name), fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", original, hooks.get(fn_name))
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._saved.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapped)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._saved):
            setattr(mod, fn_name, original)
        self._saved.clear()

    # -- reading ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "item": np.frombuffer(self.item, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), items=np.array(self.items),
                            **self.arrays())

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        excl = np.bincount(a["name"], weights=self_s, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(excl[i])}
                for i, name in enumerate(self.names)}

    def calls_under(self, child: str, parent: str) -> int:
        """Calls of `child` whose direct parent span is `parent`."""
        a = self.arrays()
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        has_parent = a["parent"] >= 0
        parent_name = np.full(len(a["name"]), -1)
        parent_name[has_parent] = a["name"][a["parent"][has_parent]]
        return int(np.count_nonzero((a["name"] == self._name_ids[child])
                                    & (parent_name == self._name_ids[parent])))

    def time_in_items(self, name: str, prefix: str) -> float:
        """Inclusive seconds of `name` spans inside items whose label starts with prefix."""
        a = self.arrays()
        if name not in self._name_ids:
            return 0.0
        chosen = np.array([label.startswith(prefix) for label in self.items] + [False])
        mask = (a["name"] == self._name_ids[name]) & chosen[a["item"]]
        return float(np.sum(a["end"][mask] - a["start"][mask]))

    def durations(self, name: str) -> np.ndarray:
        a = self.arrays()
        if name not in self._name_ids:
            return np.zeros(0)
        mask = a["name"] == self._name_ids[name]
        return a["end"][mask] - a["start"][mask]

    def child_time(self, child: str, parent: str) -> np.ndarray:
        """Per `parent` span, the seconds spent in its direct `child` spans."""
        a = self.arrays()
        parent_idx = np.flatnonzero(a["name"] == self._name_ids[parent])
        mask = a["name"] == self._name_ids[child]
        dur = a["end"][mask] - a["start"][mask]
        per_parent = np.bincount(a["parent"][mask], weights=dur, minlength=len(a["name"]))
        return per_parent[parent_idx]

    def scan_counts(self) -> tuple[int, int]:
        """Candidates and complex-table bytes of one scan at the largest shape seen."""
        n, max_order = self.scan_shape
        candidates = n * (comb(max_order + n, n) - 1 - n)
        return candidates, candidates * 16
