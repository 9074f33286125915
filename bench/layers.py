"""Per-layer metrics from the spans and counters that bench/probe.py writes.

A layer is one module of the package.  A span's self time is its duration
minus the durations of its child spans; a layer's self time is the sum over
its spans, generator steps included.  Spans nest (a child lies inside its
parent), so the children's durations never overlap.
"""

from __future__ import annotations

import json
from array import array

# (metric, unit).  Order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.report_bytes", "count"),
    ("characterization.verify_hd.s", "s"),
    ("characterization.sum.self_s", "s"),
    ("characterization.report.s", "s"),
    ("characterization.sum.calls", "count"),
    ("characterization.coherent_splits.yielded", "count"),
    ("characterization.pool.cpu_s", "s"),
    ("characterization.pool.efficiency", "ratio"),
    ("laws.conditional_block_prob.calls", "count"),
    ("laws.cylinder_prob.calls", "count"),
    ("laws.predictive_prob.calls", "count"),
    ("laws.self_s", "s"),
    ("laws.cylinder.hit_ratio", "ratio"),
    ("laws.cylinder.misses", "count"),
    ("exactnum.multinomial_star.calls", "count"),
    ("exactnum.multinomial_star.zero_ratio", "ratio"),
    ("exactnum.multinomial.calls", "count"),
    ("exactnum.compositions.calls", "count"),
    ("exactnum.self_s", "s"),
    ("decomp.decompose.s", "s"),
    ("decomp.kernel_for.s", "s"),
    ("decomp.is_completely_degenerate.s", "s"),
    ("decomp.weak_independence_oracle.s", "s"),
    ("decomp.xi_nullspace_basis.s", "s"),
    ("decomp.self_s", "s"),
    ("linalg.row_echelon.calls", "count"),
    ("linalg.row_echelon.cells", "count"),
    ("linalg.row_echelon.self_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.min_norm_solve.calls", "count"),
    ("linalg.self_s", "s"),
    ("urnsim.simulate.calls", "count"),
    ("urnsim.draws", "count"),
    ("urnsim.simulate.self_s", "s"),
    ("urnsim.us_per_draw", "us"),
    ("urnsim.empirical_cylinder.s", "s"),
    ("trace.overhead", "ratio"),
)

# Counters that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = tuple(
    name
    for name, _ in PER_LAYER
    if name.endswith((".calls", ".yielded", ".cells"))
    or name in ("urnsim.draws", "cli.report_bytes")
)

MODULES = ("cli", "characterization", "laws", "exactnum", "decomp", "linalg", "urnsim")


class Tally:
    """Sums over the invocations of one traced pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.report_bytes = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.jobs_span = 0.0  # jobs x verify_hd span, summed
        self.spans = 0

    def add_invocation(self, summary_path: str, report_bytes: int, jobs: int) -> None:
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        names = summary["names"]
        n = summary["spans"]
        start, end, parent, name = array("d"), array("d"), array("q"), array("H")
        with open(summary_path + ".spans", "rb") as fh:
            for arr in (start, end, parent, name):
                arr.fromfile(fh, n)
        child = array("d", bytes(8 * n))
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(names)
        total = [0.0] * len(names)
        own = [0.0] * len(names)
        for s, e, c, nm in zip(start, end, child, name):
            d = e - s
            calls[nm] += 1
            total[nm] += d
            own[nm] += d - c
        for nid, label in enumerate(names):
            if calls[nid]:
                self.calls[label] = self.calls.get(label, 0) + calls[nid]
                self.total[label] = self.total.get(label, 0.0) + total[nid]
                self.self_s[label] = self.self_s.get(label, 0.0) + own[nid]
        for key, value in summary["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value
        self.report_bytes += report_bytes
        self.cache_hits += summary["cylinder_cache"]["hits"]
        self.cache_misses += summary["cylinder_cache"]["misses"]
        self.jobs_span += jobs * total[names.index("characterization.verify_hd")]
        self.spans += n

    def metrics(self, overhead: float) -> dict[str, float]:
        calls = lambda label: self.calls.get(label, 0)
        total = lambda label: self.total.get(label, 0.0)
        own = lambda label: self.self_s.get(label, 0.0)
        count = lambda key: self.counts.get(key, 0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        layer_self = self.module_self()
        pool_cpu = count("characterization.pool.cpu_us") / 1e6
        lookups = self.cache_hits + self.cache_misses
        draws = count("urnsim.draws")
        out = {
            "cli.self_s": own("cli.main"),
            "cli.report_bytes": self.report_bytes,
            "characterization.verify_hd.s": total("characterization.verify_hd"),
            "characterization.sum.self_s": own("characterization.characterization_sum"),
            "characterization.report.s": total("characterization.VerificationReport.to_jsonable"),
            "characterization.sum.calls": calls("characterization.characterization_sum"),
            "characterization.coherent_splits.yielded": count("characterization.coherent_splits.yielded"),
            "characterization.pool.cpu_s": pool_cpu,
            "characterization.pool.efficiency": ratio(pool_cpu, self.jobs_span),
            "laws.conditional_block_prob.calls": calls("laws.conditional_block_prob"),
            "laws.cylinder_prob.calls": calls("laws.cylinder_prob"),
            "laws.predictive_prob.calls": calls("laws.predictive_prob"),
            "laws.self_s": layer_self["laws"],
            "laws.cylinder.hit_ratio": ratio(self.cache_hits, lookups),
            "laws.cylinder.misses": self.cache_misses,
            "exactnum.multinomial_star.calls": calls("exactnum.multinomial_star"),
            "exactnum.multinomial_star.zero_ratio": ratio(
                count("exactnum.multinomial_star.zeros"), calls("exactnum.multinomial_star")
            ),
            "exactnum.multinomial.calls": calls("exactnum.multinomial"),
            "exactnum.compositions.calls": calls("exactnum.compositions"),
            "exactnum.self_s": layer_self["exactnum"],
            "decomp.decompose.s": total("decomp.decompose"),
            "decomp.kernel_for.s": total("decomp.kernel_for"),
            "decomp.is_completely_degenerate.s": total("decomp.is_completely_degenerate"),
            "decomp.weak_independence_oracle.s": total("decomp.weak_independence_oracle"),
            "decomp.xi_nullspace_basis.s": total("decomp.xi_nullspace_basis"),
            "decomp.self_s": layer_self["decomp"],
            "linalg.row_echelon.calls": calls("linalg.row_echelon"),
            "linalg.row_echelon.cells": count("linalg.row_echelon.cells"),
            "linalg.row_echelon.self_s": own("linalg.row_echelon"),
            "linalg.solve.calls": calls("linalg.solve"),
            "linalg.nullspace.calls": calls("linalg.nullspace"),
            "linalg.min_norm_solve.calls": calls("linalg.min_norm_solve"),
            "linalg.self_s": layer_self["linalg"],
            "urnsim.simulate.calls": calls("urnsim.simulate"),
            "urnsim.draws": draws,
            "urnsim.simulate.self_s": own("urnsim.simulate"),
            "urnsim.us_per_draw": ratio(total("urnsim.simulate"), draws) * 1e6,
            "urnsim.empirical_cylinder.s": total("urnsim.empirical_cylinder"),
            "trace.overhead": overhead,
        }
        return {name: out[name] for name, _ in PER_LAYER}

    def module_self(self) -> dict[str, float]:
        """Self time per module, for the hot-path ranking."""
        out = {m: 0.0 for m in MODULES}
        for label, value in self.self_s.items():
            out[label.split(".", 1)[0]] += value
        return out

    def top_self(self, k: int) -> list[tuple[str, float, int]]:
        """The k functions (generator steps separate) with most self time."""
        ranked = sorted(self.self_s.items(), key=lambda kv: -kv[1])[:k]
        return [(label, value, self.calls[label]) for label, value in ranked]
