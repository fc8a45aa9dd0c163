"""In-memory span recorder that wraps prepush's public functions from outside.

Nothing under ``src/`` is edited.  Each traced function is replaced, on
every prepush module that holds a reference to it (``placement``,
``planning`` and ``cli`` import these names directly), by a wrapper that
records one span: name, start, end and parent.  Spans of one benchmark run
share the tracer's run id.  They are kept in flat arrays while the run is
going and written out once, at the end; call counts and self times are
derived from them afterwards, and the cost of tracing from the span count
and :func:`span_cost_s`.
"""

import functools
import json
import statistics
import time
from array import array
from contextlib import contextmanager

import numpy as np

import prepush
from prepush import cli, concentration, placement, planning, synth, trace
from prepush.rounding import ceil_count

#: Every prepush module that may hold a reference to a traced function.
MODULES = (prepush, trace, synth, concentration, placement, planning, cli)


def _traffic_span_name(tracer, args, kwargs):
    """Name the curve's span by mode and count the titles its ratios need."""
    call = dict(zip(("dataset", "mode", "ratios"), args), **kwargs)
    mode = call["mode"]
    if mode != planning.CASE_PERFECT:
        tracer.titles_needed += ceil_count(max(call["ratios"]),
                                           call["dataset"].n_titles)
    return f"planning.traffic_vs_broadcast_ratio.{mode}"


#: (defining module, function name, span name or function of
#: (tracer, args, kwargs) giving it).
TARGETS = (
    (trace, "parse_trace", "trace.parse_trace"),
    (trace, "write_trace", "trace.write_trace"),
    (trace, "build_indexes", "trace.build_indexes"),
    (synth, "generate", "synth.generate"),
    (concentration, "concentration_curve", "concentration.concentration_curve"),
    (concentration, "geo_concentration_profile",
     "concentration.geo_concentration_profile"),
    (placement, "most_active_cell", "placement.most_active_cell"),
    (placement, "rank_title_visitors", "placement.rank_title_visitors"),
    (placement, "estimate_target_cells", "placement.estimate_target_cells"),
    (placement, "partition_cells", "placement.partition_cells"),
    (planning, "traffic_vs_broadcast_ratio", _traffic_span_name),
    (planning, "coverage_cost", "planning.coverage_cost"),
    (planning, "sweep_coverage", "planning.sweep_coverage"),
    (planning, "titles_by_popularity", "planning.titles_by_popularity"),
)


class Tracer:
    """Records nested spans of one single-threaded benchmark run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self._name_ids = {}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self._stack = [-1]
        #: Titles the assumed/limited traffic curves needed to cost: the
        #: prefix their largest ratio broadcasts, summed over calls.
        self.titles_needed = 0

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, func, name):
        """``func`` recording one span per call.

        ``name`` is the span name, or a function of (tracer, args, kwargs)
        giving it.
        """
        fixed = self.name_id(name) if isinstance(name, str) else None
        add_name, add_parent = self.name_ids.append, self.parents.append
        add_start, add_end = self.starts.append, self.ends.append
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_id(
                name(self, args, kwargs))
            idx = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0)
            stack.append(idx)
            add_start(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper while the block runs."""
        saved = []
        try:
            for owner, attr, name in TARGETS:
                original = getattr(owner, attr)
                wrapped = self.wrap(original, name)
                for module in MODULES:
                    if getattr(module, attr, None) is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapped)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def arrays(self):
        """Spans as numpy columns: name id, start, end, parent index."""
        return (
            np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            np.frombuffer(self.starts, dtype=np.int64).copy(),
            np.frombuffer(self.ends, dtype=np.int64).copy(),
            np.frombuffer(self.parents, dtype=np.int32).copy(),
        )

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        name_ids, starts, ends, parents = self.arrays()
        n_names = len(self.names)
        dur = (ends - starts).astype(np.float64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested],
                            minlength=len(dur))
        calls = np.bincount(name_ids, minlength=n_names)
        total = np.bincount(name_ids, weights=dur, minlength=n_names)
        own = np.bincount(name_ids, weights=dur - child, minlength=n_names)
        return {
            name: (int(calls[i]), total[i] / 1e9, own[i] / 1e9)
            for i, name in enumerate(self.names)
        }

    def children(self, child, parents_named):
        """Calls and seconds of span ``child`` directly under the named spans."""
        name_ids, starts, ends, parents = self.arrays()
        if child not in self._name_ids:
            return 0, 0.0
        parent_ids = [self._name_ids[p] for p in parents_named
                      if p in self._name_ids]
        mine = np.flatnonzero((name_ids == self._name_ids[child]) & (parents >= 0))
        mine = mine[np.isin(name_ids[parents[mine]], parent_ids)]
        return len(mine), float((ends[mine] - starts[mine]).sum()) / 1e9

    def roots_with(self, name):
        """Distinct top-level spans that have a ``name`` span inside them."""
        name_ids, _, _, parents = self.arrays()
        if name not in self._name_ids:
            return 0
        roots = np.flatnonzero(name_ids == self._name_ids[name])
        while True:
            up = parents[roots]
            if (up < 0).all():
                return len(np.unique(roots))
            roots = np.where(up < 0, roots, up)

    def write(self, path):
        """Write every span, with the name table and run id, to ``path``."""
        name_ids, starts, ends, parents = self.arrays()
        np.savez(
            path, name_id=name_ids, start_ns=starts, end_ns=ends,
            parent=parents, names=np.array(json.dumps(self.names)),
            run_id=np.array(self.run_id),
        )


def span_cost_s(batches=7, calls=20_000):
    """Seconds one span adds to a call.

    The median over ``batches`` of a wrapped no-op's time minus the bare
    no-op's, per call; bare and wrapped batches alternate so that a change
    of machine speed hits both.
    """
    def noop(a, b):
        return a

    wrapped = Tracer("span-cost").wrap(noop, "noop")
    per_call = []
    for _ in range(batches):
        times = []
        for func in (noop, wrapped):
            start = time.perf_counter()
            for i in range(calls):
                func(i, None)
            times.append(time.perf_counter() - start)
        per_call.append((times[1] - times[0]) / calls)
    return statistics.median(per_call)
