"""Outside-in layer tracer for the replalg package.

The tracer wraps named public functions of the ``replalg`` modules without
touching their source. For each traced function it counts calls and sums
self time (time not spent in another traced function) and total time
(outermost activation only, so recursion is not counted twice).

A wrapper is useless if some caller still holds the original function, so
``install`` rebinds every reference it can reach from a ``replalg``
namespace: module attributes (including ``from .x import f`` copies),
class attributes, function defaults such as ``hom_fn=rp.hom_layered``,
closure cells and module-level containers.  ``check`` then walks the same
graph again and raises ``TracerError`` if any original is still reachable,
so a traced run can never silently undercount.
"""

import functools
import importlib
import sys
import time
import types

# module -> traced names; "Class" traces the constructor, "Class.method" a method
TARGETS = {
    "exactfield": ["rref", "factor_poly", "char_poly"],
    "quiverrep": ["hom_basis", "is_iso", "decompose", "realize_extension_class",
                  "tau", "tau_inverse"],
    "replicated": ["build_replicated", "LayeredModule", "hom_layered", "is_iso_layered",
                   "decompose_layered", "proj_cover", "inj_envelope", "cosyzygy"],
    "splitting": ["fitting_split", "single_eigenvalue", "find_invertible_combo"],
    "artrans": ["indec_catalog", "transpose_layered", "ar_quiver",
                "IndecCatalog.hom_basis", "IndecCatalog.rad_basis"],
    "gencog": ["IsoRegistry.canon", "MDimEngine.omega_ids", "min_right_approx",
               "gldim_end", "gldim_end_windowed", "construct_lem47"],
    "endalg": ["end_algebra_gldim"],
    "windows": ["base_indecomposables", "census_modules"],
    "verify": ["verify"],
}

# traced name -> rule deciding which calls are useful:
#   True          the call returned True
#   "name"        the call finished without calling that traced function
HIT_RULES = {
    "replicated.is_iso_layered": True,
    "quiverrep.is_iso": True,
    "gencog.MDimEngine.omega_ids": "gencog.min_right_approx",
    "artrans.IndecCatalog.hom_basis": "replicated.hom_layered",
}

PACKAGE = "replalg"


class TracerError(RuntimeError):
    """An original traced function is still reachable after installation."""


def traced_names():
    return [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "hits", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.hits = 0
        self.active = 0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for name in traced_names()}
        self.originals = {}   # id(original function) -> traced name
        self.wrappers = {}    # id(original function) -> wrapper
        self._keep = []       # originals stay alive so their ids stay unique
        self._stack = []      # per active traced call: [time spent in traced callees]

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        rule = HIT_RULES.get(name)
        watched = self.stats[rule] if isinstance(rule, str) else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            stat.active += 1
            before = watched.calls if watched is not None else 0
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.active -= 1
                stat.self_s += dt - frame[0]
                if stat.active == 0:
                    stat.total_s += dt
                if stack:
                    stack[-1][0] += dt
            if rule is True:
                if result:
                    stat.hits += 1
            elif watched is not None and watched.calls == before:
                stat.hits += 1
            return result

        return wrapper

    def install(self):
        """Wrap every target, rebind every reference, then verify."""
        modules = _import_all()
        for mod_name, names in TARGETS.items():
            module = modules[mod_name]
            for name in names:
                full = f"{mod_name}.{name}"
                cls_name, _, attr = name.partition(".")
                obj = getattr(module, cls_name)
                if isinstance(obj, type):
                    attr = attr or "__init__"
                    if attr not in obj.__dict__:
                        raise TracerError(f"{full}: {attr} is not defined on the class")
                    fn = obj.__dict__[attr]
                elif attr:
                    raise TracerError(f"{full}: {cls_name} is not a class")
                else:
                    fn = obj
                if not isinstance(fn, types.FunctionType):
                    raise TracerError(f"{full} is not a plain function")
                self.originals[id(fn)] = full
                self.wrappers[id(fn)] = self._wrap(full, fn)
                self._keep.append(fn)
        _walk(modules, self._keep, self.wrappers, self._replace)
        self.check()
        return self

    def _replace(self, where, holder, key, value):
        wrapper = self.wrappers[id(value)]
        if isinstance(holder, (dict, list)):
            holder[key] = wrapper
        elif isinstance(holder, types.CellType):
            holder.cell_contents = wrapper
        elif isinstance(holder, types.FunctionType):
            if key == "__defaults__":
                holder.__defaults__ = tuple(
                    self.wrappers.get(id(v), v) for v in holder.__defaults__)
            else:
                holder.__kwdefaults__ = {
                    k: self.wrappers.get(id(v), v) for k, v in holder.__kwdefaults__.items()}
        elif isinstance(holder, (tuple, set, frozenset, staticmethod, classmethod, property)):
            pass  # immutable holders: check() reports them
        else:
            setattr(holder, key, wrapper)  # modules, classes, instances

    def check(self):
        """Raise TracerError if any replalg namespace or default still
        holds an unwrapped traced function."""
        found = []

        def report(where, holder, key, value):
            found.append(f"{where} -> {self.originals[id(value)]}")

        _walk(_import_all(), self._keep, self.wrappers, report)
        if found:
            raise TracerError("unwrapped traced functions remain: " + "; ".join(sorted(found)))

    # -- results --------------------------------------------------------------

    def snapshot(self):
        """Per traced name: calls, self_s, total_s, hits (JSON-ready)."""
        return {name: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s,
                       "hits": s.hits}
                for name, s in self.stats.items()}


def _import_all():
    for mod_name in list(TARGETS) + ["cli"]:
        importlib.import_module(f"{PACKAGE}.{mod_name}")
    return {name.split(".", 1)[1]: mod for name, mod in list(sys.modules.items())
            if name.startswith(PACKAGE + ".") and mod is not None}


def _is_ours(obj):
    return str(getattr(obj, "__module__", "")).split(".")[0] == PACKAGE


def _walk(modules, originals, wrappers, visit):
    """Call ``visit(where, holder, key, value)`` for every reference to a
    traced original reachable from the replalg modules, the classes and
    functions they define, their defaults and closures, module-level
    containers and instances, and the originals' own defaults."""
    seen = set(id(w) for w in wrappers.values())
    todo = [(f"{PACKAGE}.{name}", mod) for name, mod in sorted(modules.items())]
    todo.append((PACKAGE, sys.modules.get(PACKAGE)))
    todo += [(f"<original {fn.__qualname__}>", fn) for fn in originals]

    def edges(obj):
        if isinstance(obj, (types.ModuleType, type)):
            for key, value in list(vars(obj).items()):
                yield obj, key, value
        elif isinstance(obj, types.FunctionType):
            for value in obj.__defaults__ or ():
                yield obj, "__defaults__", value
            for key, value in (obj.__kwdefaults__ or {}).items():
                yield obj, "__kwdefaults__", value
            for cell in obj.__closure__ or ():
                try:
                    yield cell, "cell_contents", cell.cell_contents
                except ValueError:  # empty cell
                    pass
        elif isinstance(obj, (staticmethod, classmethod)):
            yield obj, "__func__", obj.__func__
        elif isinstance(obj, property):
            for key in ("fget", "fset", "fdel"):
                yield obj, key, getattr(obj, key)
        elif isinstance(obj, dict):
            for key, value in list(obj.items()):
                yield obj, key, value
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for i, value in enumerate(list(obj)):
                yield obj, i, value
        elif hasattr(obj, "__dict__") and _is_ours(type(obj)):
            for key, value in list(vars(obj).items()):
                yield obj, key, value

    while todo:
        where, obj = todo.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        for holder, key, value in edges(obj):
            if id(value) in wrappers:
                visit(f"{where}.{key}", holder, key, value)
                continue
            if isinstance(value, types.ModuleType):
                continue  # modules are roots of their own
            if isinstance(value, (type, types.FunctionType)):
                if _is_ours(value):
                    todo.append((f"{where}.{key}", value))
            elif isinstance(value, (staticmethod, classmethod, property, dict, list, tuple,
                                    set, frozenset)):
                todo.append((f"{where}.{key}", value))
            elif hasattr(value, "__dict__") and _is_ours(type(value)):
                todo.append((f"{where}.{key}", value))
