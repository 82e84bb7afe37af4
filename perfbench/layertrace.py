"""Outside-in layer tracing for the benchmark.

The solver has no counters of its own yet, so the traced pass wraps the public
functions of each layer by swapping module and class attributes for the
duration of a ``with LayerTracer():`` block.  A wrapper records calls,
inclusive time and self time (inclusive time minus the time of wrapped calls
made inside it).  Recording happens only inside ``tracer.root(label)``, so the
benchmark's own checks (which call ``validate_solution`` and
``Instance.time_matrix`` too) are not counted.  Every stat is kept per root:
``solve`` for the heuristic, ``oracle`` for ``exact_minmax``.
"""

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass

from minmaxtsp import allocation, heuristic, model, oracle, tsp

# Targets per tour request at or above which a request counts as long: the
# point where ROADMAP item 2 plans to switch 2-opt/Or-opt to numpy scans.
LONG_REQUEST = 12


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


# A hook sees a traced call's arguments and result and returns (counter, amount)
# pairs to add.
def _hook_request(args, result):
    m = len(args[0].targets)
    return (("tsp.request.count", 1), ("tsp.request.targets", m),
            ("tsp.request.long", int(m >= LONG_REQUEST)))


def _hook_cache(args, result):
    return (("tsp.cache.hits", int(result is not None)),)


# (owner, attribute, traced name, hook).  One name may sit at several owners:
# heuristic, allocation and oracle each import solve_tsp by name.
TARGETS = (
    (heuristic, "solve_tsp", "tsp.solve_tsp", _hook_request),
    (allocation, "solve_tsp", "tsp.solve_tsp", _hook_request),
    (oracle, "solve_tsp", "tsp.solve_tsp", _hook_request),
    (tsp, "held_karp_order", "tsp.held_karp_order", None),
    (tsp.TspCache, "get", "tsp.TspCache.get", _hook_cache),
    (heuristic, "local_search", "heuristic.local_search", None),
    (heuristic, "compute_savings", "heuristic.compute_savings", None),
    (heuristic, "best_insertion", "heuristic.best_insertion", None),
    (heuristic, "perturbation_loop", "heuristic.perturbation_loop", None),
    (heuristic, "solve_load_balancing", "allocation.solve_load_balancing", None),
    (heuristic, "perturb_colocated_depots", "allocation.perturb_colocated_depots", None),
    (heuristic, "build_initial_solution", "allocation.build_initial_solution", None),
    (heuristic, "validate_solution", "model.validate_solution", None),
    (model.Instance, "time_matrix", "model.Instance.time_matrix", None),
    (model.Instance, "with_depots", "model.Instance.with_depots", None),
    (oracle, "exact_minmax", "oracle.exact_minmax", None),
    (oracle, "best_cycle_lengths", "oracle.best_cycle_lengths", None),
)


class LayerTracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self):
        self.stats = {}        # (root, name) -> Stat
        self.counts = {}       # (root, name) -> int, filled by hooks
        self._root = None
        self._stack = []       # per open wrapped call: time spent in wrapped children
        self._saved = []

    def stat(self, root: str, name: str) -> Stat:
        return self.stats.get((root, name), Stat())

    def count(self, root: str, name: str) -> int:
        return self.counts.get((root, name), 0)

    @contextmanager
    def root(self, label: str):
        """Record wrapped calls made inside this block under ``label``."""
        self._root = label
        try:
            yield
        finally:
            self._root = None

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            root = tracer._root
            if root is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                st = tracer.stats.setdefault((root, name), Stat())
                st.calls += 1
                st.incl_s += dt
                st.self_s += dt - child
            if hook is not None:
                for counter, amount in hook(args, result):
                    key = (root, counter)
                    tracer.counts[key] = tracer.counts.get(key, 0) + amount
            return result

        return traced

    def __enter__(self):
        wrappers = {}
        for owner, attr, name, hook in TARGETS:
            original = owner.__dict__.get(attr)
            if original is None:
                self._restore()
                raise AttributeError(f"cannot trace {name}: {owner.__name__}.{attr} is gone")
            key = (id(original), name)
            if key not in wrappers:
                wrappers[key] = self._wrap(name, original, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

