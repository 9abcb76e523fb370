"""Per-layer spans and counters for the traced run, recorded from outside.

`Tracer.install()` replaces each public function listed in `LAYERS` by a
wrapper that records a span, in its defining module and in every `anyonlat`
module that imported it with `from .x import f`; `Lattice.__post_init__` is
replaced on the class.  The package source is not touched.

A span's self time is its duration minus the time of the spans it contains.
Counter hooks run outside every span, and their time is taken out of the
enclosing span, so it falls into an op's `other` remainder:
`sum(self times) + other = op wall time`.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = {
    "linalg": ("determinant", "inertia", "smith_normal_form", "hermite_normal_form",
               "solve_columns", "rational_inverse", "left_kernel"),
    "metric_groups": ("build_prime", "direct_sum", "is_nondegenerate",
                      "central_charge_gauss", "is_isomorphic"),
    "symmetry": ("aut_bruteforce",),
    "wall": ("k_from_wall", "direct_ef_k"),
    "lattices": ("discriminant_form", "verify_realization", "k_double_prime"),
    "gluing": ("glue_selfdual_8", "orthogonal_complement", "build_ef_positive"),
    "weights": ("coset_minima", "extremality_score"),
    "realize": ("kmatrix_for",),
    "cli": ("parse_spec", "load_matrix_file"),
}
LATTICE_INIT = "lattices.Lattice.init"

SPANS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns) + (LATTICE_INIT,)

# name -> (unit, better)
COUNTERS = {
    "linalg.repeat_ratio": ("ratio", "lower"),
    "linalg.max_entry_bits": ("bits", "lower"),
    "metric_groups.central_charge_gauss.elements": ("count", "lower"),
    "metric_groups.is_isomorphic.misses": ("count", "lower"),
    "symmetry.aut_bruteforce.automorphisms": ("count", "lower"),
    "gluing.glue_selfdual_8.noncyclic_calls": ("count", "lower"),
    "weights.coset_minima.cosets": ("count", "lower"),
}
OVERHEAD = {
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
}


def per_layer_metrics() -> dict:
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = ("count", "lower")
        out[f"{span}.self_s"] = ("s", "lower")
    out["other.self_s"] = ("s", "lower")
    out.update(COUNTERS)
    out.update(OVERHEAD)
    return out


def _entry_bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _anyonlat_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "anyonlat" or name.startswith("anyonlat."))]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.kernel_calls = 0
        self.kernel_repeats = 0
        self._seen: set = set()
        self._stack: list[list[float]] = []  # [start, time of contained spans]
        self._originals: dict[str, object] = {}
        self._wrappers: dict[str, object] = {}

    # -- spans ---------------------------------------------------------------

    def _hook(self, fn, *args):
        started = time.perf_counter()
        fn(*args)
        if self._stack:
            self._stack[-1][1] += time.perf_counter() - started

    def _wrap(self, name, fn, pre=None, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                self._hook(pre, args)
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                elapsed = time.perf_counter() - frame[0]
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
            if post is not None:
                self._hook(post, args, result)
            return result

        return wrapper

    def begin_op(self) -> dict:
        """Start an op: kernel repeats are counted within one op."""
        self._seen = set()
        return dict(self.self_s)

    def op_self(self, before: dict) -> dict:
        return {name: t - before.get(name, 0.0) for name, t in self.self_s.items()
                if t != before.get(name, 0.0)}

    # -- counter hooks -------------------------------------------------------

    def _kernel_pre(self, name):
        def pre(args):
            m = args[0]
            self.kernel_calls += 1
            key = (name, len(m), hash(tuple(map(tuple, m))))
            if key in self._seen:
                self.kernel_repeats += 1
            else:
                self._seen.add(key)
            bits = max((_entry_bits(x) for row in m for x in row), default=0)
            if bits > self.counts["linalg.max_entry_bits"]:
                self.counts["linalg.max_entry_bits"] = bits
        return pre

    def _count(self, counter, value_of):
        def post(args, result):
            self.counts[counter] += value_of(args, result)
        return post

    def _glue_pre(self, snf):
        def pre(args):
            base = args[0]
            gram = base if isinstance(base, list) else base.gram
            if len(snf(gram).invariant_factors()) >= 2:
                self.counts["gluing.glue_selfdual_8.noncyclic_calls"] += 1
        return pre

    # -- install -------------------------------------------------------------

    def install(self):
        """Wrap every function in LAYERS wherever anyonlat binds it."""
        if not self._wrappers:
            self._build()
        for mod in _anyonlat_modules():
            for attr, value in list(vars(mod).items()):
                for name, original in self._originals.items():
                    if value is original:
                        setattr(mod, attr, self._wrappers[name])
        importlib.import_module("anyonlat.lattices").Lattice.__post_init__ = self._wrappers[LATTICE_INIT]

    def _build(self):
        import anyonlat.cli  # noqa: F401 - imports every module of the package

        linalg = importlib.import_module("anyonlat.linalg")
        hooks = {
            "metric_groups.central_charge_gauss": (None, self._count(
                "metric_groups.central_charge_gauss.elements", lambda a, r: a[0].size)),
            "metric_groups.is_isomorphic": (None, self._count(
                "metric_groups.is_isomorphic.misses", lambda a, r: r is None)),
            "symmetry.aut_bruteforce": (None, self._count(
                "symmetry.aut_bruteforce.automorphisms", lambda a, r: r.order)),
            "weights.coset_minima": (None, self._count(
                "weights.coset_minima.cosets", lambda a, r: len(r))),
            "gluing.glue_selfdual_8": (self._glue_pre(linalg.smith_normal_form), None),
        }
        for fn in LAYERS["linalg"]:
            hooks[f"linalg.{fn}"] = (self._kernel_pre(fn), None)
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"anyonlat.{mod_name}")
            for fn in fns:
                name = f"{mod_name}.{fn}"
                original = getattr(mod, fn)
                pre, post = hooks.get(name, (None, None))
                self._originals[name] = original
                self._wrappers[name] = self._wrap(name, original, pre, post)
        lattice = importlib.import_module("anyonlat.lattices").Lattice
        self._originals[LATTICE_INIT] = lattice.__post_init__
        self._wrappers[LATTICE_INIT] = self._wrap(LATTICE_INIT, lattice.__post_init__)

    def uninstall(self):
        """Put every original back."""
        for mod in _anyonlat_modules():
            for attr, value in list(vars(mod).items()):
                for name, wrapper in self._wrappers.items():
                    if value is wrapper:
                        setattr(mod, attr, self._originals[name])
        if LATTICE_INIT in self._originals:
            importlib.import_module("anyonlat.lattices").Lattice.__post_init__ = self._originals[LATTICE_INIT]

    def alias_problems(self) -> list[str]:
        """Every `from .x import f` of a wrapped f, at module level or inside a
        function, must resolve to the wrapper; no module may keep an original."""
        problems = []
        wrapped = {}
        for name, wrapper in self._wrappers.items():
            if name != LATTICE_INIT:
                mod_name, fn = name.split(".")
                wrapped[(mod_name, fn)] = wrapper
        for mod in _anyonlat_modules():
            for attr, value in vars(mod).items():
                for name, original in self._originals.items():
                    if value is original:
                        problems.append(f"{mod.__name__}.{attr} is still the original {name}")
            tree = ast.parse(inspect.getsource(mod))
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom) or node.level != 1 or not node.module:
                    continue
                for alias in node.names:
                    key = (node.module, alias.name)
                    if key not in wrapped:
                        continue
                    # an import inside a function reads the source module at call time
                    source = f"anyonlat.{node.module}"
                    if getattr(sys.modules[source], alias.name) is not wrapped[key]:
                        problems.append(f"{source}.{alias.name} is not wrapped")
                    local = alias.asname or alias.name
                    if node in tree.body and getattr(mod, local) is not wrapped[key]:
                        problems.append(f"{mod.__name__}.{local} does not resolve to the wrapper")
        lattice = importlib.import_module("anyonlat.lattices").Lattice
        if lattice.__dict__.get("__post_init__") is not self._wrappers.get(LATTICE_INIT):
            problems.append("Lattice.__post_init__ is not wrapped")
        return problems

    # -- report --------------------------------------------------------------

    def metrics(self, other_s: float, traced_s: float, untraced_s: float) -> dict:
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls.get(span, 0)
            out[f"{span}.self_s"] = self.self_s.get(span, 0.0)
        out["other.self_s"] = other_s
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        out["linalg.repeat_ratio"] = self.kernel_repeats / self.kernel_calls if self.kernel_calls else 0.0
        out["trace.overhead_ratio"] = traced_s / untraced_s
        out["trace.traced_s"] = traced_s
        out["trace.untraced_s"] = untraced_s
        return out
