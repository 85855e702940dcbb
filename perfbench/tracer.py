"""Span tracing of the csikey library from outside the package.

`Tracer.install` replaces every public function of every library module
with a wrapper that records a span, on the defining module and on every
csikey module that bound the same object with `from .x import y`.
`uninstall` puts the originals back.  Spans stay in memory; self time is
computed from them after the traced run.

A few wrappers also read counts from arguments and return values, and keep
a reservoir sample of calls for the layer audits in `reference`.
"""

import functools
import importlib
import inspect
import pkgutil
import random
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

import numpy as np

# Modules that are not library layers: the CLI is what the benchmark
# calls, and its own time is reported as cli.overhead_ms.
NOT_LAYERS = ("cli", "errors")

# Functions with per-layer metrics: those the benchmarked workloads reach.
REPORTED = {
    "numerics": ("svd", "gram_schmidt", "pseudo_inverse"),
    "distributions": ("psi_sample",),
    "wiretap": ("make_instance", "transmit_to_bob", "bob_decode", "eve_receive"),
    "params": ("check_secrecy_constraints",),
    "lattice": ("lll_reduce", "babai_nearest_plane"),
    "attacks": ("ber_experiment", "zf_decode", "babai_attack",
                "exact_ml_decode"),
    "protocols": ("run_key_agreement", "universal_hash"),
}
# The Gram-Schmidt recompute is a child span of lll_reduce, so an LLL that
# updates it in place moves time between the two self times; the total
# shows the LLL as a whole.
TOTAL_REPORTED = ("lattice.lll_reduce",)

COUNTERS = ("lattice.lll_reduce.swaps", "attacks.exact_ml_decode.grid_points",
            "protocols.universal_hash.bits_in")

# Only reduction-demo reaches the Klein sampler, successive_minima,
# enumerate_cvp and bdd_via_mimo, and it is not benchmarked (see
# workloads.OUTSIDE_BENCHMARK).  Their rows stay in the result file's layer
# table, and these counts in its `held_out_counts`.
HELD_OUT_COUNTERS = ("distributions.discrete_gaussian_sample.samples",
                     "attacks.bdd_via_mimo.oracle_calls",
                     "attacks.bdd_via_mimo.solved")

# Calls per audited function kept, by reservoir sampling, for the layer audits.
AUDIT_SAMPLES = 32


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for mod, fns in REPORTED.items():
        for fn in fns:
            units[f"{mod}.{fn}.calls"] = "count"
            units[f"{mod}.{fn}.self_ms"] = "ms"
        units[f"{mod}.self_ms"] = "ms"
    units.update({f"{name}.total_ms": "ms" for name in TOTAL_REPORTED})
    units.update({c: "count" for c in COUNTERS})
    units["cli.overhead_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units


def library_functions(package) -> dict[str, object]:
    """'module.function' -> function, for each public library function."""
    found = {}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name in NOT_LAYERS:
            continue
        mod = importlib.import_module(f"{package.__name__}.{info.name}")
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                found[f"{info.name}.{attr}"] = obj
    return found


class Tracer:
    def __init__(self, package, sample_seed: int):
        self.package = package
        self.spans = []  # (name, start_ns, end_ns, parent index or -1, op)
        self.op = -1
        self.counts = Counter()
        self.samples = defaultdict(dict)  # name -> slot -> sample
        self._stack = []
        self._seen = Counter()
        self._rng = random.Random(sample_seed)
        self._patches = []  # (module, attribute, original)

    # -- installing -------------------------------------------------------

    def install(self):
        wrappers = {id(fn): (fn, self._wrap(name, fn))
                    for name, fn in library_functions(self.package).items()}
        prefix = self.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def patched_sites(self) -> list[str]:
        return [f"{mod.__name__}.{attr}" for mod, attr, _ in self._patches]

    def _wrap(self, name, fn):
        hook = getattr(self, "_hook_" + name.replace(".", "__"), None)
        sig = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = None
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after = hook(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if after:
                after(result)
            return result

        return traced

    # -- counts and audit samples -----------------------------------------

    def _slot(self, name):
        """Reservoir slot for this call's audit sample, or None."""
        i = self._seen[name]
        self._seen[name] += 1
        j = i if i < AUDIT_SAMPLES else self._rng.randrange(i + 1)
        return j if j < AUDIT_SAMPLES else None

    def _hook_lattice__lll_reduce(self, a):
        slot = self._slot("lattice.lll_reduce")
        original = None if slot is None else np.array(a["b"].matrix, copy=True)
        op = self.op

        def after(res):
            self.counts["lattice.lll_reduce.swaps"] += res.swaps
            if slot is not None:
                self.samples["lattice.lll_reduce"][slot] = (
                    op, original, np.array(res.reduced.matrix, copy=True),
                    np.array(res.transform, copy=True), res.delta)
        return after

    def _hook_attacks__exact_ml_decode(self, a):
        g, M = np.asarray(a["g"]), a["M"]
        self.counts["attacks.exact_ml_decode.grid_points"] += M ** g.shape[1]
        slot = self._slot("attacks.exact_ml_decode")
        if slot is None:
            return None
        g, y, op = g.copy(), np.array(a["y"], copy=True), self.op

        def after(res):
            self.samples["attacks.exact_ml_decode"][slot] = (
                op, g, y, M, np.array(res.estimate, copy=True))
        return after

    def _hook_distributions__discrete_gaussian_sample(self, a):
        self.counts["distributions.discrete_gaussian_sample.samples"] += a["size"]

    def _hook_protocols__universal_hash(self, a):
        self.counts["protocols.universal_hash.bits_in"] += len(a["bits"])

    def _hook_attacks__bdd_via_mimo(self, a):
        oracle = a["mimo_oracle"]

        def counted(batch):
            self.counts["attacks.bdd_via_mimo.oracle_calls"] += 1
            return oracle(batch)

        a["mimo_oracle"] = counted

        def after(_):
            self.counts["attacks.bdd_via_mimo.solved"] += 1
        return after

    # -- results -----------------------------------------------------------

    def layer_table(self) -> dict[str, dict]:
        """'module.function' -> {'calls', 'self_ns', 'total_ns'} over all
        spans; total time includes child spans."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "self_ns": 0, "total_ns": 0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            table[name]["calls"] += 1
            table[name]["self_ns"] += end - start - child[i]
            table[name]["total_ns"] += end - start
        return dict(table)

    def top_level_ns(self) -> Counter:
        """op -> time covered by spans with no traced caller."""
        top = Counter()
        for _, start, end, parent, op in self.spans:
            if parent < 0:
                top[op] += end - start
        return top

    def per_op_metrics(self, op_wall_ns: list[int]) -> dict[str, float]:
        """Per-layer metrics averaged over the traced ops (no overhead)."""
        ops = len(op_wall_ns)
        table = self.layer_table()
        out = {}
        empty = {"calls": 0, "self_ns": 0, "total_ns": 0}
        for mod, fns in REPORTED.items():
            for fn in fns:
                row = table.get(f"{mod}.{fn}", empty)
                out[f"{mod}.{fn}.calls"] = row["calls"] / ops
                out[f"{mod}.{fn}.self_ms"] = row["self_ns"] / ops / 1e6
            out[f"{mod}.self_ms"] = sum(
                row["self_ns"] for name, row in table.items()
                if name.split(".")[0] == mod) / ops / 1e6
        for name in TOTAL_REPORTED:
            out[f"{name}.total_ms"] = table.get(name, empty)["total_ns"] / ops / 1e6
        for c in COUNTERS:
            out[c] = self.counts[c] / ops
        top = self.top_level_ns()
        out["cli.overhead_ms"] = sum(
            wall - top[op] for op, wall in enumerate(op_wall_ns)) / ops / 1e6
        return out

    def held_out_counts(self, ops: int) -> dict[str, float]:
        """Per-op counts of the layers only reduction-demo reaches, and
        bdd_via_mimo's solved instances per oracle call (0 with no call)."""
        out = {c: self.counts[c] / ops for c in HELD_OUT_COUNTERS}
        calls = self.counts["attacks.bdd_via_mimo.oracle_calls"]
        out["attacks.bdd_via_mimo.success_per_oracle_call"] = (
            self.counts["attacks.bdd_via_mimo.solved"] / calls if calls else 0.0)
        return out

    def spans_document(self) -> dict:
        """Compact form of every span, for writing out once."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0
        return {"names": names,
                "columns": ["name", "start_ns", "duration_ns", "parent", "op"],
                "spans": [[index[n], s - base, e - s, p, op]
                          for n, s, e, p, op in self.spans]}
