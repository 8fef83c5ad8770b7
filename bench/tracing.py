"""Per-layer tracing from outside the program.

`Tracer.install` wraps public functions of covsel's modules and rebinds
each wrapped name in every covsel module that imported it, so calls made
through `from .x import f` are timed too. Each call records a span
(function, start, end, parent span) in flat in-memory arrays; `dump`
writes them when the traced command ends and `summarize` derives the
per-layer metrics from the written spans.

Every layer is single-threaded and nothing queues between layers, so no
span waits: wait time is absent, not zero, and is not reported.
"""

import functools
import sys
import time
from array import array

import numpy as np

# Layers are covsel's modules; `precision` (value types) and `errors`
# (exception classes) do no timed work of their own.
FUNCTIONS = (
    "cli.main",
    "data.load_csv",
    "specialfn.symmetrize",
    "specialfn.cholesky_pd",
    "specialfn.chol_log_det",
    "specialfn.log_mv_gamma",
    "priors.conjugate_update",
    "priors.log_normalizer",
    "priors.log_prior_density",
    "priors.sample_half_precision",
    "structures.criteria",
    "structures.log_partition_hessian_logdet",
    "structures.select_structure",
    "structures.map_estimate",
    "structures.flexibility",
    "structures.log_evidence",
    "montecarlo.run_cell",
    "montecarlo.generate_instance",
    "montecarlo.gaussian_rows",
    "montecarlo.confusion_table",
    "asymptotics.rate_study",
    "regression.enumerate_covariates",
    "regression.fit_regression",
    "regression.effective_stats",
    "regression.log_evidence_regression",
    "regression.joint_map",
    "regression.joint_flexibility",
)

# Counts read off return values at the same boundaries.
OBSERVED = {
    "structures.select_structure": ("skipped", lambda result: len(result.skipped)),
    "montecarlo.run_cell": ("failures", lambda result: result.failures),
}

LATENCY = "structures.select_structure"  # also gets per-call p50/p99
PER_ITEM = ("structures.criteria", "regression.effective_stats", "specialfn.symmetrize")


class Tracer:
    def __init__(self):
        self.names = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = [-1]

    def wrap(self, name, func):
        fid = len(self.names)
        self.names.append(name)
        fn, parent, start, end, stack = self.fn, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        observe = OBSERVED.get(name)
        if observe:
            self.counters[f"{name}.{observe[0]}"] = 0

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(start)
            fn.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe:
                self.counters[f"{name}.{observe[0]}"] += observe[1](result)
            return result

        return traced

    @classmethod
    def install(cls):
        """Wrap every function in FUNCTIONS in place; covsel must be imported."""
        tracer = cls()
        modules = [m for key, m in sys.modules.items() if key == "covsel" or key.startswith("covsel.")]
        for name in FUNCTIONS:
            module, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"covsel.{module}"], attr)
            traced = tracer.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
        return tracer

    def dump(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.fn, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=float),
        )


def summarize(path, items):
    """Per-layer metrics of one traced command set, from its span file.

    self_s is a span's duration minus its child spans' durations (spans
    of one thread never overlap); total_s counts only a function's
    outermost spans, so nested calls are not counted twice.
    """
    with np.load(path) as spans:
        names = list(spans["names"])
        fn, parent, start, end = spans["fn"], spans["parent"], spans["start"], spans["end"]
        counters = dict(zip(spans["counter_names"], spans["counter_values"]))
    dur = end - start
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    metrics = {}
    for fid, name in enumerate(names):
        mine = np.flatnonzero(fn == fid)  # in start order
        # a span nested in an earlier span of the same function starts before that one ends
        earlier_end = np.maximum.accumulate(np.concatenate([[-np.inf], end[mine]]))[:-1]
        outer = mine[start[mine] >= earlier_end]
        metrics[f"{name}.calls"] = (float(mine.size), "count")
        metrics[f"{name}.self_s"] = (float(self_time[mine].sum()), "s")
        metrics[f"{name}.total_s"] = (float(dur[outer].sum()), "s")
        if name == LATENCY:
            p50, p99 = np.percentile(dur[mine], [50, 99]) * 1e6 if mine.size else (0.0, 0.0)
            metrics[f"{name}.p50_us"] = (float(p50), "us")
            metrics[f"{name}.p99_us"] = (float(p99), "us")
        if name in PER_ITEM:
            metrics[f"{name}.calls_per_item"] = (mine.size / items, "1/item")
    for key, value in counters.items():
        metrics[key] = (float(value), "count")
    return metrics
