"""Timing wrappers around macnet's public functions, and self-time accounting.

A stage process installs a :class:`Tracer` after importing ``macnet.cli`` and
before calling ``macnet.cli.main``.  Every target function is replaced, in
every ``macnet.*`` namespace that holds a reference to it, by a wrapper that
records one span (name, start, end, parent span).  Spans live in flat arrays
while the process runs and are written out once ``main`` has returned.  The
parent benchmark process turns them into calls and self time per name:
self time is a span's duration minus the time its child spans cover, and the
``cli.main`` root span, which brackets the whole ``main`` call, takes what no
other span covers.  Self times of one process therefore sum to its traced
wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

ROOT = "cli.main"

#: (module, attribute path, span name).  Several targets may share a span name.
TARGETS = (
    ("io", "ingest", "io.ingest"),
    ("io", "read_network", "io.read_network"),
    ("network", "infer_network", "network.infer_network"),
    ("network", "summary", "network.summary"),
    ("network", "degree_values", "network.degree_values"),
    ("network", "clustering_values", "network.clustering_values"),
    ("network", "betweenness_values", "network.betweenness_values"),
    ("network", "largest_connected_component", "network.largest_connected_component"),
    ("network", "jaccard", "network.jaccard"),
    ("network", "InferredNetwork.adjacency", "network.adjacency"),
    ("similarity", "PairCorrelationStructure.from_samples",
     "similarity.PairCorrelationStructure.from_samples"),
    ("similarity", "canonical_corr", "similarity.canonical_corr"),
    ("inference", "homogeneity_lrt", "inference.homogeneity_lrt"),
    ("inference", "bartlett_chi2", "inference.bartlett_chi2"),
    ("inference", "bh_fdr", "inference.bh_fdr"),
    ("inference", "fisher_z", "inference.fisher_z"),
    ("inference", "extreme_corr_pvalue", "inference.extreme_pvalue"),
    ("inference", "extreme_corr_pvalue_two_sided", "inference.extreme_pvalue"),
    ("numkernel", "corr_matrix", "numkernel.corr_matrix"),
    ("numkernel", "pearson_corr", "numkernel.pearson_corr"),
    ("numkernel", "sym_eigen", "numkernel.sym_eigen"),
    ("numkernel", "is_positive_definite", "numkernel.is_positive_definite"),
    ("numkernel", "inv_sqrt_spd", "numkernel.inv_sqrt_spd"),
    ("numkernel", "cholesky", "numkernel.cholesky"),
    ("classify", "classify_network", "classify.classify_network"),
    ("classify", "classify_edge", "classify.classify_edge"),
    ("classify", "contribution_histogram", "classify.contribution_histogram"),
    ("enrichment", "load_gmt", "enrichment.load_gmt"),
    ("enrichment", "enrich", "enrichment.enrich"),
    ("enrichment", "hypergeom_upper", "enrichment.hypergeom_upper"),
    ("simulation", "power_study", "simulation.power_study"),
    ("simulation", "sample_mvn", "simulation.sample_mvn"),
)

#: every public ``write_*`` function of macnet.io is timed under this one name
IO_WRITE = "io.write"

_F64 = 8


def _corr_matrix_cost(samples):
    n, d = np.shape(samples)
    return 2 * n * d * d + 2 * n * d + 3 * d * d, _F64 * (n * d + d * d)


def _pearson_cost(x, y):
    n = np.shape(x)[0]
    return 10 * n, _F64 * 2 * n


def _sym_eigen_cost(a):
    d = np.shape(a)[0]
    return 9 * d ** 3, _F64 * (2 * d * d + d)


def _eigvalsh_cost(a):
    d = np.shape(a)[0]
    return (4 * d ** 3) // 3, _F64 * (d * d + d)


def _inv_sqrt_cost(a):
    # the inner sym_eigen call is traced, and costed, on its own
    d = np.shape(a)[0]
    return 2 * d ** 3 + d * d, _F64 * 2 * d * d


def _cholesky_cost(a):
    d = np.shape(a)[0]
    return d ** 3 // 3, _F64 * 2 * d * d


#: floating-point operations and bytes touched, worked out from argument
#: shapes with textbook operation counts; nothing here is measured
KERNEL_COST = {
    "numkernel.corr_matrix": _corr_matrix_cost,
    "numkernel.pearson_corr": _pearson_cost,
    "numkernel.sym_eigen": _sym_eigen_cost,
    "numkernel.is_positive_definite": _eigvalsh_cost,
    "numkernel.inv_sqrt_spd": _inv_sqrt_cost,
    "numkernel.cholesky": _cholesky_cost,
}


class Tracer:
    """Span recorder for one stage process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self.name_of = array("i", [0])
        self.parent = array("i", [-1])
        self.start = array("d", [0.0])
        self.end = array("d", [0.0])
        self._stack = [0]
        self.flops = 0
        self.bytes = 0
        self.absent = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        cost = KERNEL_COST.get(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cost is not None:
                flops, nbytes = cost(*args, **kwargs)
                self.flops += flops
                self.bytes += nbytes
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return wrapper

    def install(self):
        """Replace every target by its timing wrapper wherever macnet refers to it."""
        import macnet.io

        targets = list(TARGETS) + [
            ("io", attr, IO_WRITE)
            for attr, value in sorted(vars(macnet.io).items())
            if attr.startswith("write_") and callable(value)
        ]
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if m is not None and (key == "macnet" or key.startswith("macnet."))]
        for module_name, path, name in targets:
            module = sys.modules.get(f"macnet.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.absent.append(f"{module_name}.{path}")
                continue
            original = vars(owner)[attr]
            if owner_name:
                # a method: replacing it on the class reaches every reference
                if isinstance(original, (classmethod, staticmethod)):
                    setattr(owner, attr, type(original)(self._wrap(original.__func__, name)))
                else:
                    setattr(owner, attr, self._wrap(original, name))
            else:
                wrapper = self._wrap(original, name)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapper)

    def finish(self, start: float, end: float) -> dict:
        """Close the root span over the ``main`` call and return the trace document."""
        self.start[0] = start
        self.end[0] = end
        return {
            "run_id": self.run_id,
            "names": self.names,
            "name": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "flops": self.flops,
            "bytes": self.bytes,
            "absent": self.absent,
        }


def self_times(doc: dict) -> dict:
    """Calls and self time per span name from one trace document."""
    names, name_of, parent = doc["names"], doc["name"], doc["parent"]
    start, end = doc["start"], doc["end"]
    covered = [0.0] * len(name_of)
    for idx in range(1, len(name_of)):
        covered[parent[idx]] += end[idx] - start[idx]
    out = {}
    for idx, nid in enumerate(name_of):
        entry = out.setdefault(names[nid], [0, 0.0])
        entry[0] += 1
        entry[1] += end[idx] - start[idx] - covered[idx]
    return {name: {"calls": calls, "self_s": self_s} for name, (calls, self_s) in out.items()}


def module_self_times(by_name: dict) -> dict:
    """Self time summed per macnet module (the first part of each span name)."""
    out = {}
    for name, entry in by_name.items():
        module = name.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + entry["self_s"]
    return out
