"""Per-layer tracing of legendre-mw from outside the package.

The tracer wraps the public entry points of each module (`gf`,
`ratfunc`, `heights`, `curve`, `legendre`, `exact_linalg`,
`invariants`, `cli`) and records, per layer, the number of calls, the
total time and the self time (total minus the time spent in other traced
layers called from inside it).  Nothing under `src/` changes: the
wrappers are installed by rebinding names at run time.

A module function is rebound in every loaded `legendre_mw` module that
holds it, because `cli` and `heights` import functions by name.  A
method is rebound on its class, under every alias (`__rmul__` is the
same function as `__mul__`).

A traced call made directly inside a call of the same layer is folded
into it, so `Poly // Poly`, which goes through `divmod`, counts once.

Run as a script, it executes one `legendre-mw` command with tracing on:

    PYTHONPATH=src python3 perfbench/layers.py gram --p 3 --f 2 --depth quick

The command's own output goes to stdout unchanged, followed by one line
that starts with MARKER and carries the layer counters as JSON.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

MARKER = "#perfbench-trace "

# Poly operands with more rows (coefficients in u) than this are "large".
# Most Poly work of the group law and isogeny chain is below it; the
# doubling loop of a d = 10 canonical height reaches thousands of rows.
SMALL_ROWS = 64


class Tracer:
    """Call counts and self/total times keyed by layer name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.poly_rows_max = 0
        self._stack = []  # [layer, time spent in traced children]

    def wrap(self, fn, layer):
        """Wrap fn; layer is a name, or a function of (args, kwargs)
        returning a name, or None to leave that call untraced."""
        name_of = layer if callable(layer) else (lambda args, kwargs: layer)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(args, kwargs)
            if name is None or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                if not any(f[0] == name for f in stack):
                    self.total_s[name] += dt
                if stack:
                    stack[-1][1] += dt

        return traced

    def poly_layer(self, base, poly_cls):
        """Layer namer for Poly operations: bucket by the largest operand
        row count, and keep the largest row count seen."""
        def name_of(args, kwargs):
            rows = max(a.c.shape[0] for a in args if isinstance(a, poly_cls))
            if rows > self.poly_rows_max:
                self.poly_rows_max = rows
            return "%s.%s" % (base, "large" if rows > SMALL_ROWS else "small")
        return name_of

    def install(self):
        """Import legendre_mw and rebind every traced entry point."""
        importlib.import_module("legendre_mw.cli")
        from legendre_mw.ratfunc import Poly
        namers = {layer: self.poly_layer(layer, Poly) for layer in BUCKETED}
        namers["ratfunc.ratfunc_canon"] = _canonicalising
        for layer, module, owner, names in LAYERS:
            namer = namers.get(layer, layer)
            mod = importlib.import_module(module)
            for name in names:
                if owner is None:
                    _rebind_function(mod, name, self.wrap(getattr(mod, name), namer))
                else:
                    _rebind_method(getattr(mod, owner), name, self, namer)

    def metrics(self) -> dict:
        """Flat {metric name: value} over every traced layer."""
        out = {}
        for layer in layer_names():
            out[layer + ".calls"] = self.calls.get(layer, 0)
            out[layer + ".total_s"] = self.total_s.get(layer, 0.0)
            out[layer + ".self_s"] = self.self_s.get(layer, 0.0)
        out["ratfunc.poly_rows.max"] = self.poly_rows_max
        return out


# (layer, module, class or None for a module function, entry points)
LAYERS = [
    ("gf.mul", "legendre_mw.gf", "FieldElement", ("__mul__",)),
    ("gf.inv", "legendre_mw.gf", "FieldElement", ("inv",)),
    ("ratfunc.poly_mul", "legendre_mw.ratfunc", "Poly", ("__mul__",)),
    ("ratfunc.poly_divmod", "legendre_mw.ratfunc", "Poly",
     ("__divmod__", "__mod__", "__floordiv__")),
    ("ratfunc.poly_gcd", "legendre_mw.ratfunc", "Poly", ("gcd",)),
    ("ratfunc.ratfunc_canon", "legendre_mw.ratfunc", "RatFunc", ("__init__",)),
    ("heights.canonical_height", "legendre_mw.heights", None, ("canonical_height",)),
    ("curve.add", "legendre_mw.curve", "WeierstrassCurve", ("add",)),
    ("curve.contains", "legendre_mw.curve", "WeierstrassCurve", ("contains",)),
    ("curve.isogeny_chain", "legendre_mw.curve", "IsogenyChain",
     ("__init__", "forward", "backward", "expected_mid", "expected_quotient")),
    ("legendre.point_P", "legendre_mw.legendre", None, ("point_P",)),
    ("legendre.make_family", "legendre_mw.legendre", None, ("make_family",)),
    ("exact_linalg.bareiss", "legendre_mw.exact_linalg", None,
     ("determinant", "rank", "kernel_basis")),
    ("invariants.bsd_report", "legendre_mw.invariants", None, ("bsd_report",)),
    ("cli.main", "legendre_mw.cli", None, ("main",)),
]

BUCKETED = ("ratfunc.poly_mul", "ratfunc.poly_divmod")


def layer_names() -> list[str]:
    names = []
    for layer, *_ in LAYERS:
        if layer in BUCKETED:
            names += [layer + ".small", layer + ".large"]
        else:
            names.append(layer)
    return names


def _canonicalising(args, kwargs):
    """RatFunc(num, den=None, _canonical=False): only the constructions
    that reduce num/den are a layer of work."""
    trusted = kwargs.get("_canonical", args[3] if len(args) > 3 else False)
    return None if trusted else "ratfunc.ratfunc_canon"


def _rebind_function(mod, name, wrapped):
    original = getattr(mod, name)
    for other in list(sys.modules.values()):
        if other is None or not getattr(other, "__name__", "").startswith("legendre_mw"):
            continue
        for attr, value in list(vars(other).items()):
            if value is original:
                setattr(other, attr, wrapped)


def _rebind_method(cls, name, tracer, layer):
    raw = vars(cls)[name]
    if isinstance(raw, staticmethod):
        wrapped = staticmethod(tracer.wrap(raw.__func__, layer))
    else:
        wrapped = tracer.wrap(raw, layer)
    for attr, value in list(vars(cls).items()):
        if value is raw:
            setattr(cls, attr, wrapped)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["legendre_mw.cli"]
    code = cli.main(argv)
    sys.stdout.flush()
    print(MARKER + json.dumps(tracer.metrics(), sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
