"""Traced brownscope CLI invocation, and the per-layer metrics of its spans.

    PYTHONPATH=src python perfbench/tracer.py SPANS.json -- <cli arguments>

runs `brownscope.cli.main` on the arguments after `--` in this process,
with a span around every call into a layer's public functions.  The
layers are the modules `cli`, `measures`, `additive`, `multiplicative`,
`region` and `rmt`.  Wrappers are installed from here, not in the
package: every module attribute, module-level dispatch table and
`SpectralMeasure` method through which a wrapped function can be reached
is rebound, so `additive.neg2_trace` is traced as well as
`measures.neg2_trace`.  Spans are kept in memory and written to SPANS.json
when the command returns; the exit code is the command's.

A span is `[name, start, end, parent, counts]`: `parent` is the index of
the enclosing span (-1 for none) and `counts` holds what the call did,
taken at the same boundary (points and nodes of a kernel call, calls into
the function handed to `evaluate_grid` or `map_boundary`, emitted bytes).

Only the standard library is imported before `brownscope.cli`, so the
`cli.import` span covers the full import cost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "measures", "additive", "multiplicative", "region", "rmt")
# private names through which another layer calls in
PRIVATE_ENTRY = {"measures": ("_blocked_sum",),
                 "multiplicative": ("_T_positive_values",)}
MEASURE_METHODS = ("min_node_distance", "support_distance")


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans = []
        self.stack = []

    def span(self, name, start, end):
        self.spans.append([name, start, end,
                           self.stack[-1] if self.stack else -1, {}])

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = {}
            if before is not None:
                args = before(args, counts)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, counts]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, counts)
            return result

        return traced


# -- counts taken at the call boundary -----------------------------------


def _kernel_size(args, counts):
    # (mu, lam, ...) for every kernel and SpectralMeasure method
    if len(args) >= 2 and hasattr(args[0], "positions"):
        lam = args[1]
        size = getattr(lam, "size", None)
        if size is None:
            size = len(lam) if isinstance(lam, (list, tuple)) else 1
        counts["points"] = int(size)
        counts["nodes"] = len(args[0].positions)
    return args


def _count_calls(pos):
    """Replace the callable argument at `pos` with one that counts its
    calls into counts["calls"]."""
    def before(args, counts):
        if len(args) <= pos:
            return args
        fn = args[pos]
        counts["calls"] = 0

        def counted(*a, **k):
            counts["calls"] += 1
            return fn(*a, **k)

        return args[:pos] + (counted,) + args[pos + 1:]
    return before


def _grid_before(args, counts):
    args = _count_calls(0)(args, counts)
    if len(args) >= 4:
        counts["points"] = int(args[2]) * int(args[3])
    return args


def _map_before(args, counts):
    args = _count_calls(1)(args, counts)
    counts["sources"] = sum(len(c.points) + bool(c.closed)
                            for c in args[0].polylines)
    return args


def _levelset_after(result, counts):
    counts["points"] = sum(len(c.points) for c in result.polylines)


def _emit_after(result, counts):
    counts["bytes"] = len(result)


HOOKS = {
    "region.evaluate_grid": (_grid_before, None),
    "region.map_boundary": (_map_before, None),
    "region.extract_levelset": (None, _levelset_after),
    "region.emit": (None, _emit_after),
}


def install(recorder: Recorder):
    """Wrap the layer functions of the imported package and rebind every
    reference to them inside it."""
    modules = {layer: importlib.import_module(f"brownscope.{layer}")
               for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") or attr in PRIVATE_ENTRY.get(layer, ())
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and public:
                name = f"{layer}.{attr}"
                before, after = HOOKS.get(name, (None, None))
                if layer == "measures":
                    before = _kernel_size
                wrapped[obj] = recorder.wrap(name, obj, before, after)
    spectral = modules["measures"].SpectralMeasure
    for meth in MEASURE_METHODS:
        setattr(spectral, meth, recorder.wrap(f"measures.{meth}",
                                              getattr(spectral, meth),
                                              _kernel_size))
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("brownscope"):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if inspect.isfunction(val) and val in wrapped:
                        obj[key] = wrapped[val]
    return modules["cli"]


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py SPANS.json -- <cli arguments>\n")
        return 2
    out_path, cli_argv = argv[0], argv[2:]
    recorder = Recorder()
    start = time.perf_counter()
    import brownscope.cli  # noqa: F401  (timed: the import a CLI run pays)
    recorder.span("cli.import", start, time.perf_counter())
    cli = install(recorder)
    try:
        return cli.main(cli_argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)


# ---------------------------------------------------------------------------
# reduction: spans of one traced invocation -> per-layer metrics
# ---------------------------------------------------------------------------

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("cli.import_s", "s"), ("cli.config_s", "s"), ("cli.self_s", "s"),
    ("cli.command_s", "s"),
    ("measures.calls", "count"), ("measures.point_calls", "count"),
    ("measures.pairs", "count"), ("measures.busy_s", "s"),
    ("measures.pair_rate", "1/s"), ("measures.buffer_bytes", "B_computed"),
    ("measures.busy_share", "ratio"),
    ("additive.self_s", "s"), ("additive.map_calls", "count"),
    ("multiplicative.self_s", "s"), ("multiplicative.map_calls", "count"),
    ("region.grid_s", "s"), ("region.grid_points", "count"),
    ("region.grid_fallbacks", "count"), ("region.levelset_s", "s"),
    ("region.boundary_points", "count"), ("region.map_s", "s"),
    ("region.map_evals", "count"), ("region.map_inserts", "count"),
    ("region.emit_s", "s"), ("region.emit_bytes", "B"),
    ("region.emit_share", "ratio"),
    ("rmt.sample_s", "s"), ("rmt.factors", "count"), ("rmt.factor_ms", "ms"),
    ("rmt.product_s", "s"), ("rmt.eig_s", "s"), ("rmt.svd_s", "s"),
    ("rmt.svd_calls", "count"), ("rmt.support_s", "s"),
    ("rmt.sample_share", "ratio"),
)

_CONFIG_SPANS = ("cli.load_config", "cli.resolve_measure")


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced invocation.  Self time is a span's
    duration minus the durations of its child spans (calls are sequential,
    so children never overlap)."""
    dur = [end - start for _, start, end, _, _ in spans]
    self_t = list(dur)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_t[parent] -= dur[i]

    def layer(i):
        return spans[i][0].split(".", 1)[0] if i >= 0 else None

    def pick(pred):
        return [i for i, s in enumerate(spans) if pred(s[0], i)]

    def total(idx, times=dur):
        return float(sum(times[i] for i in idx))

    def counted(idx, key):
        return int(sum(spans[i][4].get(key, 0) for i in idx))

    m = {}
    m["cli.import_s"] = total(pick(lambda n, i: n == "cli.import"))
    m["cli.config_s"] = total(pick(lambda n, i: n in _CONFIG_SPANS))
    m["cli.self_s"] = total(pick(lambda n, i: layer(i) == "cli" and n not in
                                 ("cli.import",) + _CONFIG_SPANS), self_t)
    command_s = total(pick(lambda n, i: n == "cli.main"))
    m["cli.command_s"] = command_s

    def share(x):
        return x / command_s if command_s > 0 else 0.0

    outer = pick(lambda n, i: layer(i) == "measures"
                 and layer(spans[i][3]) != "measures")
    pairs = sum(spans[i][4].get("points", 0) * spans[i][4].get("nodes", 0)
                for i in outer)
    busy = total(outer)
    m["measures.calls"] = len(outer)
    m["measures.point_calls"] = sum(spans[i][4].get("points") == 1 for i in outer)
    m["measures.pairs"] = int(pairs)
    m["measures.busy_s"] = busy
    m["measures.pair_rate"] = pairs / busy if busy > 0 else 0.0
    m["measures.buffer_bytes"] = 16 * int(pairs)
    m["measures.busy_share"] = share(busy)

    for lay in ("additive", "multiplicative"):
        m[f"{lay}.self_s"] = total(pick(lambda n, i: layer(i) == lay), self_t)
        m[f"{lay}.map_calls"] = len(pick(
            lambda n, i: layer(i) == lay and n.endswith("_formula")))

    grid = pick(lambda n, i: n == "region.evaluate_grid")
    m["region.grid_s"] = total(grid, self_t)
    m["region.grid_points"] = counted(grid, "points")
    m["region.grid_fallbacks"] = sum(max(spans[i][4].get("calls", 0) - 1, 0)
                                     for i in grid)
    level = pick(lambda n, i: n == "region.extract_levelset")
    m["region.levelset_s"] = total(level, self_t)
    m["region.boundary_points"] = counted(level, "points")
    maps = pick(lambda n, i: n == "region.map_boundary")
    m["region.map_s"] = total(maps, self_t)
    m["region.map_evals"] = counted(maps, "calls")
    m["region.map_inserts"] = counted(maps, "calls") - counted(maps, "sources")
    emits = pick(lambda n, i: n == "region.emit")
    m["region.emit_s"] = total(emits)
    m["region.emit_bytes"] = counted(emits, "bytes")
    m["region.emit_share"] = share(m["region.emit_s"])

    samplers = pick(lambda n, i: n.startswith("rmt.sample_")
                    and layer(spans[i][3]) != "rmt")
    factors = pick(lambda n, i: n == "rmt.sample_elliptic" and spans[i][3] >= 0
                   and spans[spans[i][3]][0] == "rmt.sample_b")
    svds = pick(lambda n, i: n == "rmt.shifted_singular_values")
    m["rmt.sample_s"] = total(samplers)
    m["rmt.factors"] = len(factors)
    m["rmt.factor_ms"] = 1e3 * total(factors) / len(factors) if factors else 0.0
    m["rmt.product_s"] = total(pick(lambda n, i: n == "rmt.sample_b"), self_t)
    m["rmt.eig_s"] = total(pick(lambda n, i: n == "rmt.eigenvalues"))
    m["rmt.svd_s"] = total(svds)
    m["rmt.svd_calls"] = len(svds)
    m["rmt.support_s"] = total(pick(lambda n, i: n == "rmt.support_report"))
    m["rmt.sample_share"] = share(m["rmt.sample_s"])
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
