"""Per-layer spans and counters, from wrappers installed by the benchmark.

:class:`Tracer` replaces the public functions and methods of each
``triring`` module (and the few private helpers named in ``EXTRA``) by
wrappers that record self time and calls.  Nothing under ``src/``
changes: the wrappers are installed in a traced run only, after set-up,
and record only while ``active`` is true, so the benchmark's own checks
between jobs are not counted.  The program is single-threaded, so
spans nest strictly and self time is a span's duration minus that of
the spans it called.
"""

import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("ring", "derivation", "ideals", "series", "hypergeom", "multiplicity", "cli")

#: private functions wrapped too, because they carry a layer's main work
EXTRA = {"cli": ("_emit",)}

#: the classes whose methods are wrapped; the others are plain records
TRACED_CLASSES = ("Poly", "PuiseuxSeries")
#: methods not wrapped: constructors are counted separately, and the
#: tiny accessors would add overhead without telling anything
SKIPPED_METHODS = {"__init__", "__repr__", "__bool__", "__hash__", "__eq__"}

# per-layer metric -> the spans whose self time it adds up
SELF_TIME = {
    "ring.mul_s": ("ring.Poly.__mul__", "ring.Poly.__pow__"),
    "ring.add_s": ("ring.Poly.__add__", "ring.Poly.__sub__", "ring.Poly.__rsub__",
                   "ring.Poly.__neg__"),
    "ring.divmod_s": ("ring.Poly.divmod_single", "ring.Poly.exact_div", "ring.Poly.divides"),
    "ring.resultant_s": ("ring.resultant", "ring.resultant_with_cofactors",
                         "ring.sylvester_matrix"),
    "derivation.apply_D_s": ("derivation.apply_D", "derivation.apply_variant"),
    "ideals.membership_s": ("ideals.membership", "ideals.groebner_basis"),
    "ideals.stability_s": ("ideals.principal_stability", "ideals.certify_stability"),
    "ideals.case_one_s": ("ideals.certify_case_one", "ideals.case_one_quadric",
                          "ideals.case_one_cubic", "ideals.expected_case_one_cubic"),
    "series.mul_s": ("series.PuiseuxSeries.__mul__", "series.PuiseuxSeries.__pow__"),
    "series.add_s": ("series.PuiseuxSeries.__add__", "series.PuiseuxSeries.__sub__",
                     "series.PuiseuxSeries.__rsub__", "series.PuiseuxSeries.__neg__"),
    "series.scale_s": ("series.PuiseuxSeries.scale",),
    "series.invert_s": ("series.PuiseuxSeries.invert",),
    "series.exp_s": ("series.PuiseuxSeries.exp",),
    "hypergeom.y_series_s": ("hypergeom.y_series", "hypergeom.u_series",
                             "hypergeom.gauss_2F1", "hypergeom.binomial_series"),
    "hypergeom.tau_q_s": ("hypergeom.tau_q_series_at_zero",),
    "hypergeom.numeric_s": ("hypergeom.hyp2f1_numeric", "hypergeom.hyp2f1_numeric_ext",
                            "hypergeom.u_value_and_derivative", "hypergeom.gamma_complex",
                            "hypergeom.connection_constants"),
    "multiplicity.generator_series_s": ("multiplicity.generator_series",),
    "multiplicity.substitute_s": ("multiplicity.substitute_series",),
    "multiplicity.generic_s": ("multiplicity.ord_at_generic", "multiplicity.generator_series_at",
                               "multiplicity.taylor_u_series"),
    "multiplicity.audit_s": ("multiplicity.bound_audit", "multiplicity.profile_bound"),
    "cli.emit_s": ("cli._emit",),
}

CALLS = {
    "ring.add_calls": ("ring.Poly.__add__",),
    "derivation.apply_D_calls": ("derivation.apply_D",),
    "series.mul_calls": ("series.PuiseuxSeries.__mul__",),
}

#: spans whose ``PuiseuxSeries.ord`` calls each try one truncation window
WINDOW_PARENTS = ("multiplicity.ord_at_zero", "multiplicity.bound_audit")
#: spans whose series results are scanned for coefficient sizes
SIZED = ("series.PuiseuxSeries.__mul__", "series.PuiseuxSeries.invert",
         "series.PuiseuxSeries.exp")

UNITS = {"_s": "s/job", "_calls": "count/job"}
OTHER_UNITS = {
    "series.objects": "count/job",
    "series.coeff_bits_max": "bits",
    "multiplicity.generator_cache_hits": "count/job",
    "multiplicity.generator_cache_misses": "count/job",
    "multiplicity.windows_per_ord": "windows/ord",
    "cli.output_bytes": "B/job",
}


def metric_unit(name):
    if name in OTHER_UNITS:
        return OTHER_UNITS[name]
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


PER_LAYER = (*SELF_TIME, *CALLS, *OTHER_UNITS)


def _coefficient_bits(series):
    best = 0
    for c in series.coeffs.values():
        if hasattr(c, "terms"):  # a polynomial in the adjoined symbols
            values = c.terms.values()
        elif hasattr(c, "numerator"):
            values = (c,)
        else:  # complex floats carry no size
            continue
        for v in values:
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    """Self time and call counts of the wrapped program functions."""

    def __init__(self):
        self.active = False
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.objects = 0
        self.coeff_bits = 0
        self.windows = 0
        self.conclusive_windows = 0
        self._stack = [[0.0, None]]  # [time spent in child spans, span name]
        self._undo = []

    # -- spans -----------------------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        self_time, calls = self.self_time, self.calls
        sized = name in SIZED
        is_ord = name == "series.PuiseuxSeries.ord"

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_time[name] += elapsed - frame[0]
                calls[name] += 1
                parent[0] += elapsed
                if is_ord and parent[1] in WINDOW_PARENTS:
                    self.windows += 1
                    self.conclusive_windows += ok
                if sized and ok:
                    # measured outside every span: the parent is credited
                    # with the scan, as if a child span had taken it
                    scan = perf_counter()
                    self.coeff_bits = max(self.coeff_bits, _coefficient_bits(result))
                    parent[0] += perf_counter() - scan

        return wrapper

    def _count_objects(self, init):
        def wrapper(obj, *args, **kwargs):
            if self.active:
                self.objects += 1
            return init(obj, *args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------------

    def install(self, triring):
        """Wrap every public function and method of the traced modules."""
        replaced = {}
        loaded = [m for m in MODULES if hasattr(triring, m)]  # cli only if imported
        for mod_name in loaded:
            module = getattr(triring, mod_name)
            extra = EXTRA.get(mod_name, ())
            for attr, obj in list(vars(module).items()):
                private = attr.startswith("_") and attr not in extra
                if private or getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported names are wrapped in their own module
                if inspect.isclass(obj):
                    self._install_class(mod_name, obj)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{mod_name}.{attr}", obj))
        # rebind every module-level reference, including re-exports
        # (``from .ring import resultant`` in ideals, the package namespace)
        namespaces = [triring] + [getattr(triring, m) for m in loaded]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                    self._undo.append((ns, attr, obj))

    def _install_class(self, mod_name, cls):
        if cls.__name__ not in TRACED_CLASSES:
            return
        wrapped = {}
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj):
                continue
            if attr == "__init__" and cls.__name__ == "PuiseuxSeries":
                new = self._count_objects(obj)
            elif attr in SKIPPED_METHODS or (attr.startswith("_") and not attr.startswith("__")):
                continue
            else:
                # __radd__ = __add__ and the like share one span name
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(f"{mod_name}.{cls.__name__}.{obj.__name__}", obj)
                new = wrapped[id(obj)]
            setattr(cls, attr, new)
            self._undo.append((cls, attr, obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- report -----------------------------------------------------------------------

    def metrics(self, jobs, cache_hits, cache_misses, output_bytes):
        """Per-layer figures, each per job unless its unit says otherwise."""
        out = {}
        for metric, spans in SELF_TIME.items():
            out[metric] = sum(self.self_time[s] for s in spans) / jobs
        for metric, spans in CALLS.items():
            out[metric] = sum(self.calls[s] for s in spans) / jobs
        out["series.objects"] = self.objects / jobs
        out["series.coeff_bits_max"] = self.coeff_bits
        out["multiplicity.generator_cache_hits"] = cache_hits / jobs
        out["multiplicity.generator_cache_misses"] = cache_misses / jobs
        out["multiplicity.windows_per_ord"] = (
            self.windows / self.conclusive_windows if self.conclusive_windows else 0.0
        )
        out["cli.output_bytes"] = output_bytes / jobs
        return out

    def spans(self, jobs):
        """Every span's self time and calls per job, largest first."""
        return {
            name: {"self_s": t / jobs, "calls": self.calls[name] / jobs}
            for name, t in sorted(self.self_time.items(), key=lambda kv: -kv[1])
        }
