"""Layer spans and counters, recorded from outside the library.

`Tracer.install` wraps every public function of the seven modules, and
the public methods and constructors of the classes they define, at every
place that binds them: the defining module, each module that imported
the function by name, and the package namespace.  `Tracer.uninstall`
puts the originals back.  Self time of a span is its duration minus the
duration of its child spans; a layer's self time is the sum over its
spans.  The untraced run never calls `install`; `check_pristine` proves
that nothing is left wrapped before it times anything.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

from oracle import hermite_walk, twist_search_walk

LAYERS = ("exact", "lie", "twist", "cocycle", "torus", "datum", "cli")
_MARK = "__perfbench_span__"
_DUNDERS = ("__init__",)


def _matrix_bits(m) -> int:
    return max((abs(x).bit_length() for row in m.data for x in row), default=0)


def _targets(modules):
    """(layer, owner, attribute, original) for every function to wrap."""
    out = []
    for layer in LAYERS:
        mod = modules.get(layer)
        if mod is None:
            continue
        for name, value in vars(mod).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(value) or type(value).__name__ == "_lru_cache_wrapper":
                if getattr(value, "__module__", None) == mod.__name__:
                    out.append((layer, mod, name, value))
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                if issubclass(value, BaseException) or hasattr(value, "_member_map_"):
                    continue
                for attr, raw in vars(value).items():
                    if attr.startswith("_") and attr not in _DUNDERS:
                        continue
                    if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                        out.append((layer, value, attr, raw))
    return out


def binding_sites(modules):
    """Every (namespace, attribute, original) that a trace would patch."""
    targets = _targets(modules)
    functions = {id(orig) for _, owner, _, orig in targets if not inspect.isclass(owner)}
    sites = [(owner, attr, orig) for _, owner, attr, orig in targets
             if inspect.isclass(owner)]
    for mod in modules.values():
        for attr, value in vars(mod).items():
            if id(value) in functions:
                sites.append((mod, attr, value))
    return targets, sites


def check_pristine(modules) -> None:
    """Raise if any traced binding is not the library's own object."""
    _, sites = binding_sites(modules)
    for owner, attr, orig in sites:
        if vars(owner).get(attr) is not orig or hasattr(orig, _MARK):
            raise RuntimeError(f"{owner.__name__}.{attr} is wrapped")
    for mod in modules.values():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                raise RuntimeError(f"{mod.__name__}.{attr} is wrapped")


class Tracer:
    """Span stack and counters for one traced run."""

    def __init__(self, modules):
        self.modules = modules
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls: dict[str, int] = {}
        self.incl_s: dict[str, float] = {}
        self.count = {"hnf_max_bits": 0, "snf_max_bits": 0, "enum_walked": 0,
                      "enum_emitted": 0, "search_walked": 0, "search_yielded": 0,
                      "convolve_terms": 0, "table_entries": 0, "guard_trips": 0}
        self._stack = [[0.0]]
        self._patched = []
        self._originals = {}
        self._guards = (modules["torus"].EnumerationGuard,)
        self._seen_guards: set[int] = set()

    # -- counters computed from each call's inputs and outputs -----------

    def _before(self, qual, args, kwargs):
        c = self.count
        if qual == "exact.hermite_normal_form":
            c["hnf_max_bits"] = max(c["hnf_max_bits"], _matrix_bits(args[0]))
        elif qual == "exact.smith_normal_form":
            c["snf_max_bits"] = max(c["snf_max_bits"], _matrix_bits(args[0]))
        elif qual == "torus.enumerate_subgroups":
            c["enum_walked"] += hermite_walk(args[0].ell, args[0].n)
        elif qual == "twist.enumerate_valid_twists":
            bound = args[1] if len(args) > 1 else kwargs["bound"]
            c["search_walked"] += twist_search_walk(args[0].rank, bound)
        elif qual == "cocycle.TorusPairElement.convolve":
            support = self._originals["cocycle.TorusPairElement.support"]
            c["convolve_terms"] += len(support(args[0])) * len(support(args[1]))

    def _after(self, qual, result):
        c = self.count
        if qual == "torus.enumerate_subgroups":
            c["enum_emitted"] += len(result)
        elif qual == "exact.hermite_normal_form":
            c["hnf_max_bits"] = max(c["hnf_max_bits"], _matrix_bits(result))
        elif qual == "exact.smith_normal_form":  # growth shows in the transforms U, V
            c["snf_max_bits"] = max([c["snf_max_bits"]] + [_matrix_bits(m) for m in result])

    def _yielded(self, qual, item):
        if qual == "twist.enumerate_valid_twists":
            self.count["search_yielded"] += 1
        elif qual == "cocycle.GroupTwoCocycle.table_lines":
            self.count["table_entries"] += len(item.split())

    # -- spans -------------------------------------------------------------

    def _span(self, layer, qual, fn):
        stack, self_s, calls, incl = self._stack, self.self_s, self.calls, self.incl_s
        calls[qual] = 0
        incl[qual] = 0.0
        depth = [0]
        hooked = qual in _HOOKED

        def enter():
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            return frame, perf_counter()

        def leave(frame, t0):
            dt = perf_counter() - t0
            stack.pop()
            depth[0] -= 1
            self_s[layer] += dt - frame[0]
            stack[-1][0] += dt
            if not depth[0]:
                incl[qual] += dt

        def trip(exc):
            if isinstance(exc, self._guards) and layer == "torus" \
                    and id(exc) not in self._seen_guards:
                self._seen_guards.add(id(exc))
                self.count["guard_trips"] += 1

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                calls[qual] += 1
                if hooked:
                    self._before(qual, args, kwargs)
                frame, t0 = enter()
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    leave(frame, t0)
                while True:
                    frame, t0 = enter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException as exc:
                        trip(exc)
                        raise
                    finally:
                        leave(frame, t0)
                    if hooked:
                        self._yielded(qual, item)
                    yield item
        else:
            def wrapper(*args, **kwargs):
                calls[qual] += 1
                if hooked:
                    self._before(qual, args, kwargs)
                frame, t0 = enter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    trip(exc)
                    raise
                finally:
                    leave(frame, t0)
                if hooked:
                    self._after(qual, result)
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, qual)
        return wrapper

    def install(self) -> None:
        targets, sites = binding_sites(self.modules)
        replacement = {}
        for layer, owner, attr, orig in targets:
            qual = f"{layer}.{attr}" if not inspect.isclass(owner) \
                else f"{layer}.{owner.__name__}.{attr}"
            if isinstance(orig, (classmethod, staticmethod)):
                new = type(orig)(self._span(layer, qual, orig.__func__))
            else:
                new = self._span(layer, qual, orig)
                self._originals[qual] = orig
            replacement[id(orig)] = new
        for owner, attr, orig in sites:
            self._patched.append((owner, attr, orig))
            setattr(owner, attr, replacement[id(orig)])

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "incl_s": dict(self.incl_s), "count": dict(self.count)}


_HOOKED = {"exact.hermite_normal_form", "exact.smith_normal_form",
           "torus.enumerate_subgroups", "twist.enumerate_valid_twists",
           "cocycle.TorusPairElement.convolve", "cocycle.GroupTwoCocycle.table_lines"}


def merge(into: dict, snap: dict) -> dict:
    """Add one snapshot's numbers into an accumulated snapshot."""
    if not into:
        return {k: dict(v) for k, v in snap.items()}
    for part in ("self_s", "calls", "incl_s"):
        for k, v in snap[part].items():
            into[part][k] = into[part].get(k, 0) + v
    for k, v in snap["count"].items():
        into["count"][k] = max(into["count"][k], v) if k.endswith("max_bits") \
            else into["count"][k] + v
    return into


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from one snapshot."""
    calls, incl, cnt, self_s = snap["calls"], snap["incl_s"], snap["count"], snap["self_s"]

    def n(*quals):
        return sum(calls.get(q, 0) for q in quals)

    def t(*quals):
        return sum(incl.get(q, 0.0) for q in quals)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    out.update({
        "exact.hnf_calls": n("exact.hermite_normal_form"),
        "exact.hnf_s": t("exact.hermite_normal_form"),
        "exact.hnf_max_bits": cnt["hnf_max_bits"],
        "exact.snf_calls": n("exact.smith_normal_form"),
        "exact.snf_s": t("exact.smith_normal_form"),
        "exact.snf_max_bits": cnt["snf_max_bits"],
        "exact.kernel_mod_calls": n("exact.kernel_mod"),
        "exact.cyclo_calls": n("exact.CyclotomicNumber.from_polynomial"),
        "exact.cyclo_s": t("exact.CyclotomicNumber.from_polynomial"),
        "lie.form_calls": n("lie.bilinear_form"),
        "lie.roots_calls": n("lie.positive_roots", "lie.roots_supported"),
        "twist.build_calls": n("twist.build_twist"),
        "twist.search_walked": cnt["search_walked"],
        "twist.search_yielded": cnt["search_yielded"],
        "twist.search_yield_ratio": ratio(cnt["search_yielded"], cnt["search_walked"]),
        "torus.subgroup_calls": n("torus.TorusSubgroup.__init__"),
        "torus.enum_calls": n("torus.enumerate_subgroups"),
        "torus.enum_walked": cnt["enum_walked"],
        "torus.enum_emitted": cnt["enum_emitted"],
        "torus.enum_yield_ratio": ratio(cnt["enum_emitted"], cnt["enum_walked"]),
        "torus.kernel_calls": n("torus.t_hat_I_complement"),
        "torus.annihilator_calls": n("torus.annihilator"),
        "torus.guard_trips": cnt["guard_trips"],
        "datum.dim_h_calls": n("datum.dim_H"),
        "datum.validate_calls": n("datum.validate_datum"),
        "datum.predicates_calls": n("datum.predicates"),
        "datum.leq_calls": n("datum.datum_leq"),
        "cocycle.materialize_s": t("cocycle.twist_J_group_algebra"),
        "cocycle.convolve_calls": n("cocycle.TorusPairElement.convolve"),
        "cocycle.convolve_s": t("cocycle.TorusPairElement.convolve"),
        "cocycle.convolve_terms": cnt["convolve_terms"],
        "cocycle.check_s": t("cocycle.TorusPairElement.is_identity",
                             "cocycle.TorusPairElement.counit_is_one"),
        "cocycle.table_entries": cnt["table_entries"],
    })
    return out


def library_modules() -> dict:
    """The imported library modules by layer, plus the package namespace."""
    mods = {layer: sys.modules[f"qsubgroups.{layer}"] for layer in LAYERS
            if f"qsubgroups.{layer}" in sys.modules}
    return mods | {"package": sys.modules["qsubgroups"]}
