"""Per-layer tracing from outside the package.

`install` wraps the public entry points of each qgenocchi module (and a few
private boundaries, where they exist) with timing wrappers, and patches
every place inside the package that holds a reference to a wrapped
function: module namespaces that imported the name, class attributes that
alias it (``__radd__ = __add__``), and module-level tables such as the
CLI's identity dispatch dictionaries.  Nothing inside ``src/`` changes.

Spans are aggregated at the wrapper into per-name counts and times rather
than kept one by one.  A span's self time is its duration minus the
durations of the wrapped calls made inside it; a name's inclusive time
counts only its outermost active call, so recursion is not counted twice.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "identities", "genocchi", "bernstein", "exactq", "_kernel", "padic")

def _shift_equation_id(args) -> str:
    return "EQ7" if args[0] == 1 else "EQ6"


# (layer, module, attribute path, span name).  The span name of an identity
# target is "identities.<ID>.<role>": role "instance" marks the function
# that evaluates one parameter point, "range" a whole-range verifier and
# "part" a piece of one instance.  Targets that do not exist are skipped
# and their metrics reported as absent.
_IDENTITY_FUNCTIONS = (
    ("verify_shift_equation", _shift_equation_id, "instance"),
    ("shift_equation_sides", _shift_equation_id, "part"),
    ("verify_frobenius_link", "THM1", "range"),
    ("frobenius_link_sides", "THM1", "instance"),
    ("verify_complement", "THM2_EQ10", "range"),
    ("complement_sides", "THM2_EQ10", "instance"),
    ("complement_classical_sides", "THM2_EQ10", "part"),
    ("verify_boundary", "THM3_EQ13", "range"),
    ("boundary_sides", "THM3_EQ13", "instance"),
    ("verify_reflection", "THM4_EQ11", "range"),
    ("reflection_sides", "THM4_EQ11", "instance"),
    ("verify_binomial_expansion", "THM5_EQ12", "range"),
    ("binomial_expansion_sides", "THM5_EQ12", "instance"),
    ("verify_umbral_recurrence", "PROP_EQ14", "range"),
    ("umbral_recurrence_sides", "PROP_EQ14", "instance"),
    ("verify_shift_two", "PROP_EQ15", "range"),
    ("shift_two_sides", "PROP_EQ15", "instance"),
    ("verify_one_minus_xi", "THM6_EQ16", "range"),
    ("one_minus_xi_sides", "THM6_EQ16", "instance"),
    ("verify_bernstein_single", "THM7", "instance"),
    ("bernstein_single_lhs", "THM7", "part"),
    ("verify_bernstein_product", "THM8", "instance"),
    ("bernstein_product_lhs", "THM8", "part"),
)

TARGETS = (
    ("cli", "qgenocchi.cli", "main", "cli.main"),
    ("_kernel", "qgenocchi._kernel", "poly_mul", "_kernel.poly_mul"),
    ("_kernel", "qgenocchi._kernel", "poly_gcd", "_kernel.poly_gcd"),
    ("_kernel", "qgenocchi._kernel", "poly_divexact", "_kernel.poly_divexact"),
    ("_kernel", "qgenocchi._kernel", "poly_eval_int", "_kernel.poly_eval_int"),
    ("_kernel", "qgenocchi._kernel", "alt_weighted_int_sum", "_kernel.alt_weighted_int_sum"),
    ("_kernel", "qgenocchi._kernel", "alt_weighted_mod_sum", "_kernel.alt_weighted_mod_sum"),
    ("exactq", "qgenocchi.exactq", "QRational.__add__", "exactq.add"),
    ("exactq", "qgenocchi.exactq", "QRational.__mul__", "exactq.mul"),
    ("exactq", "qgenocchi.exactq", "QRational.__truediv__", "exactq.div"),
    ("exactq", "qgenocchi.exactq", "QRational.invert_q", "exactq.invert_q"),
    ("exactq", "qgenocchi.exactq", "QRational.evaluate", "exactq.evaluate"),
    ("exactq", "qgenocchi.exactq", "QRational.to_text", "exactq.to_text"),
    ("exactq", "qgenocchi.exactq", "parse_qrational", "exactq.parse"),
    ("exactq", "qgenocchi.exactq", "_canonical_triplet", "exactq.canonical"),
    ("exactq", "qgenocchi.exactq", "_coprime_certificate", "exactq.certificate"),
    ("exactq", "qgenocchi.exactq", "QPolynomial.__mul__", "exactq.qpoly_mul"),
    ("exactq", "qgenocchi.exactq", "XPolynomial.__add__", "exactq.xpoly_add"),
    ("exactq", "qgenocchi.exactq", "XPolynomial.__mul__", "exactq.xpoly_mul"),
    ("exactq", "qgenocchi.exactq", "XPolynomial.__truediv__", "exactq.xpoly_div"),
    ("exactq", "qgenocchi.exactq", "XPolynomial.compose_linear", "exactq.xpoly_compose"),
    ("exactq", "qgenocchi.exactq", "XPolynomial.evaluate", "exactq.xpoly_evaluate"),
    ("genocchi", "qgenocchi.genocchi", "GenocchiTable.extend_to", "genocchi.extend_to"),
    ("genocchi", "qgenocchi.genocchi", "genocchi_number", "genocchi.genocchi_number"),
    ("genocchi", "qgenocchi.genocchi", "genocchi_polynomial", "genocchi.genocchi_polynomial"),
    ("genocchi", "qgenocchi.genocchi", "genocchi_series_oracle", "genocchi.genocchi_series_oracle"),
    ("genocchi", "qgenocchi.genocchi", "frobenius_euler_polynomial", "genocchi.frobenius_euler_polynomial"),
    ("genocchi", "qgenocchi.genocchi", "integrate_polynomial", "genocchi.integrate_polynomial"),
    ("genocchi", "qgenocchi.genocchi", "moment", "genocchi.moment"),
    ("bernstein", "qgenocchi.bernstein", "bernstein_basis", "bernstein.basis"),
    ("bernstein", "qgenocchi.bernstein", "bernstein_product", "bernstein.product"),
    ("bernstein", "qgenocchi.bernstein", "bernstein_reflect", "bernstein.reflect"),
    ("bernstein", "qgenocchi.bernstein", "bernstein_operator", "bernstein.operator"),
    ("identities", "qgenocchi.identities", "_eq16_rhs", "identities.eq16_rhs"),
    *(("identities", "qgenocchi.identities", fn, (ident, role))
      for fn, ident, role in _IDENTITY_FUNCTIONS),
    ("padic", "qgenocchi.padic", "padic_log1p", "padic.padic_log1p"),
    ("padic", "qgenocchi.padic", "iwasawa_log", "padic.iwasawa_log"),
    ("padic", "qgenocchi.padic", "fermionic_riemann_sum", "padic.fermionic_riemann_sum"),
    ("padic", "qgenocchi.padic", "qrational_at_padic", "padic.qrational_at_padic"),
    ("padic", "qgenocchi.padic", "moment_convergence", "padic.moment_convergence"),
    ("padic", "qgenocchi.padic", "loggamma_series", "padic.loggamma_series"),
    ("padic", "qgenocchi.padic", "loggamma_direct", "padic.loggamma_direct"),
)


class Tracer:
    """Aggregating span recorder.

    stats[name] = [calls, inclusive seconds, self seconds];
    groups[group] = inclusive seconds of the outermost call in the group
    (identity spans group by identity id); counters[name] = event counts.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.groups = defaultdict(float)
        self.counters = defaultdict(int)
        self.layer_self = defaultdict(float)
        self.missing = []
        self._stack = []  # frames: [child seconds, layer]
        self._active = defaultdict(int)

    def wrap(self, fn, layer, name, group=None, hook=None):
        """Return fn wrapped in a span; name may be a function of the args."""
        stack, active, stats, groups = self._stack, self._active, self.stats, self.groups
        layer_self = self.layer_self

        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            grp = group(args) if callable(group) else group
            frame = [0.0, layer]
            stack.append(frame)
            active[span] += 1
            if grp:
                active[grp] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                st = stats[span]
                st[0] += 1
                st[2] += own
                layer_self[layer] += own
                active[span] -= 1
                if not active[span]:
                    st[1] += duration
                if grp:
                    active[grp] -= 1
                    if not active[grp]:
                        groups[grp] += duration
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def parent_layer(self):
        return self._stack[-1][1] if self._stack else None

    def report(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "groups": dict(self.groups),
            "counters": dict(self.counters),
            "layer_self": dict(self.layer_self),
            "missing": list(self.missing),
        }


def _count_terms(tr, args, result):
    tr.counters["_kernel.poly_mul.terms"] += len(args[0]) * len(args[1])


def _count_gcd(tr, args, result):
    if len(result) > 1:
        tr.counters["_kernel.poly_gcd.nontrivial"] += 1
    if tr.parent_layer() == "exactq":
        tr.counters["exactq.gcd_fallback.calls"] += 1


def _count_certificate(tr, args, result):
    if result:
        tr.counters["exactq.certificate.conclusive"] += 1


_HOOKS = {
    "_kernel.poly_mul": _count_terms,
    "_kernel.poly_gcd": _count_gcd,
    "exactq.certificate": _count_certificate,
}


def _replace_refs(obj, old, new, depth=0):
    """Replace references to `old` inside module-level containers and
    dataclass records (for example a registry of identity sides)."""
    if depth > 3:
        return obj
    if obj is old:
        return new
    if isinstance(obj, dict):
        for k, v in list(obj.items()):
            nv = _replace_refs(v, old, new, depth + 1)
            if nv is not v:
                obj[k] = nv
        return obj
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            nv = _replace_refs(v, old, new, depth + 1)
            if nv is not v:
                obj[i] = nv
        return obj
    if isinstance(obj, tuple):
        items = [_replace_refs(v, old, new, depth + 1) for v in obj]
        if any(a is not b for a, b in zip(items, obj)):
            return type(obj)(items) if type(obj) is tuple else type(obj)(*items)
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            v = getattr(obj, f.name)
            nv = _replace_refs(v, old, new, depth + 1)
            if nv is not v:
                object.__setattr__(obj, f.name, nv)
    return obj


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "qgenocchi" or n.startswith("qgenocchi."))]


def install(targets=TARGETS) -> Tracer:
    """Wrap every target that exists; return the tracer collecting spans."""
    tracer = Tracer()
    for layer, module_name, path, name in targets:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        for part in path.split(".")[:-1]:
            owner = getattr(owner, part, None)
        original = vars(owner).get(path.rsplit(".", 1)[-1]) if owner is not None else None
        if original is None:
            tracer.missing.append(name if isinstance(name, str) else path)
            continue
        if isinstance(name, tuple):
            ident, role = name
            span = (lambda a, i=ident, r=role: f"identities.{i(a)}.{r}") if callable(ident) \
                else f"identities.{ident}.{role}"
            group = (lambda a, i=ident: f"identities.{i(a)}") if callable(ident) \
                else f"identities.{ident}"
        else:
            span, group = name, None
        wrapped = tracer.wrap(original, layer, span, group, _HOOKS.get(name))
        # the implementation module behind a facade (the kernel backend)
        # keeps its own internal calls untraced
        impl = getattr(original, "__module__", None)
        for mod in _package_modules():
            if mod.__name__ == impl and mod is not importlib.import_module(module_name):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(mod, key, wrapped)
                elif isinstance(value, (dict, list, tuple)) or (
                        dataclasses.is_dataclass(value) and not isinstance(value, type)):
                    nv = _replace_refs(value, original, wrapped)
                    if nv is not value:
                        setattr(mod, key, nv)
        if isinstance(owner, type):
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
    return tracer
