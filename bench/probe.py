"""Run the hoeffding CLI in this process with timing hooks attached.

Usage: python3 bench/probe.py OUT MODE CLI_ARG...

The package comes from PYTHONPATH (the checkout's src/).  With MODE "run"
only the compute entry points the CLI calls are wrapped, to stamp the first
call into a compute module (the end of set-up); "setup" stamps it and exits
there.  With MODE "trace" every public function of every module is wrapped
at each name its callers look up, and one span (name, start, end, parent) is
kept in memory per call and per generator step.  Nothing under src/ is
modified.

OUT receives a JSON summary; in "trace" mode, OUT + ".spans" receives the span
arrays (start, end as float64; parent as int64; name id as uint16), which
bench/layers.py turns into per-layer metrics.  Clocks are time.perf_counter,
which is CLOCK_MONOTONIC on Linux and so comparable with the parent's stamps.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import types
from array import array
from time import perf_counter as clock

import hoeffding
from hoeffding import characterization, cli, decomp, exactnum, laws, linalg, urnsim

# Modules whose public functions are traced, one layer each.
LAYERS = (exactnum, laws, decomp, characterization, linalg, urnsim)

# The first compute call the CLI makes after parsing, for each subcommand the
# benchmark runs (decompose calls check_consistency first); it ends set-up.
ENTRY_POINTS = (
    (characterization, "verify_hd"),
    (decomp, "weak_independence_oracle"),
    (laws, "check_consistency"),
    (urnsim, "empirical_cylinder"),
)


def _short(module: types.ModuleType) -> str:
    return module.__name__.rpartition(".")[2]


class Tracer:
    """Spans in flat arrays; a stack of open span indices gives each parent."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.stack = [-1]
        self.counts: dict[str, int] = {}
        self.restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, hook=None):
        """fn, recording one span per call and one per step of a generator
        it returns; hook(counts, args, kwargs, result) adds counters."""
        nid = self._id(name)
        step_nid = self._id(name + "#step")
        yielded = name + ".yielded"
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        stack, counts = self.stack, self.counts
        gen_type = types.GeneratorType
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1])
            names.append(nid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            if type(result) is gen_type:
                return _TracedSteps(tracer, result, step_nid, yielded)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function, at every module global bound to it."""
        wrappers: dict[int, object] = {}
        for module in LAYERS:
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                name = f"{_short(module)}.{attr}"
                wrappers[id(fn)] = self.wrap(name, fn, HOOKS.get(name))
        for modname, module in sorted(sys.modules.items()):
            if modname != "hoeffding" and not modname.startswith("hoeffding."):
                continue
            for key, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self.restore.append((module, key, value))
                    setattr(module, key, wrapper)
        report_cls = characterization.VerificationReport
        self.restore.append((report_cls, "to_jsonable", report_cls.to_jsonable))
        report_cls.to_jsonable = self.wrap(
            "characterization.VerificationReport.to_jsonable", report_cls.to_jsonable
        )
        self.restore.append((cli, "main", cli.main))
        cli.main = self.wrap("cli.main", cli.main)
        self.restore.append((characterization, "verify_hd", characterization.verify_hd))
        characterization.verify_hd = _with_child_cpu(self, characterization.verify_hd)

    def uninstall(self) -> None:
        # Forked pool workers run untraced; their spans could not be collected.
        for owner, key, original in reversed(self.restore):
            setattr(owner, key, original)
        self.restore.clear()

    def dump(self, path: str) -> dict:
        with open(path, "wb") as fh:
            for arr in (self.start, self.end, self.parent, self.name):
                arr.tofile(fh)
        return {"spans": len(self.start), "names": self.names, "counts": self.counts}


class _TracedSteps:
    """Iterator that records one span per step of a wrapped generator."""

    __slots__ = ("tracer", "gen", "nid", "yielded")

    def __init__(self, tracer: Tracer, gen, nid: int, yielded: str) -> None:
        self.tracer, self.gen, self.nid, self.yielded = tracer, gen, nid, yielded

    def __iter__(self):
        return self

    def __next__(self):
        t = self.tracer
        idx = len(t.start)
        t.parent.append(t.stack[-1])
        t.name.append(self.nid)
        t.end.append(0.0)
        t.stack.append(idx)
        t.start.append(clock())
        try:
            item = next(self.gen)
        finally:
            t.end[idx] = clock()
            t.stack.pop()
        t.counts[self.yielded] = t.counts.get(self.yielded, 0) + 1
        return item


def _bump(counts: dict, key: str, by: int) -> None:
    counts[key] = counts.get(key, 0) + by


def _zero_results(counts, args, kwargs, result) -> None:
    if result == 0:
        _bump(counts, "exactnum.multinomial_star.zeros", 1)


def _echelon_cells(counts, args, kwargs, result) -> None:
    rows = list(args[0] if args else kwargs["rows"])
    _bump(counts, "linalg.row_echelon.cells", len(rows) * (len(rows[0]) if rows else 0))


def _urn_draws(counts, args, kwargs, result) -> None:
    _bump(counts, "urnsim.draws", len(result))


HOOKS = {
    "exactnum.multinomial_star": _zero_results,
    "linalg.row_echelon": _echelon_cells,
    "urnsim.simulate": _urn_draws,
}


def _with_child_cpu(tracer: Tracer, fn):
    # Pool workers are reaped inside verify_hd, so the growth of this
    # process's RUSAGE_CHILDREN across the call is the workers' CPU.
    def timed(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        try:
            return fn(*args, **kwargs)
        finally:
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
            _bump(tracer.counts, "characterization.pool.cpu_us", round(cpu * 1e6))

    return timed


def _write(path: str, summary: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


def _stamp_entry_points(summary: dict, out: str, stop: bool) -> None:
    def stamped(fn):
        def call(*args, **kwargs):
            if summary["first_compute"] is None:
                summary["first_compute"] = clock()
                if stop:
                    _write(out, summary)
                    os._exit(0)
            return fn(*args, **kwargs)

        return call

    for module, attr in ENTRY_POINTS:
        setattr(module, attr, stamped(getattr(module, attr)))


def main() -> int:
    out, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    summary: dict = {"first_compute": None, "package": os.path.abspath(hoeffding.__file__)}
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        os.register_at_fork(after_in_child=tracer.uninstall)
    else:
        _stamp_entry_points(summary, out, stop=mode == "setup")
    parent_pid = os.getpid()
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        if os.getpid() == parent_pid:
            if tracer is not None:
                tracer.uninstall()
                summary.update(tracer.dump(out + ".spans"))
                info = laws._cylinder.cache_info()
                summary["cylinder_cache"] = {"hits": info.hits, "misses": info.misses}
            _write(out, summary)
    return code


if __name__ == "__main__":
    sys.exit(main())
