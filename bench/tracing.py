"""Per-layer tracing from outside the package.

`Tracer.install()` wraps the public functions of each `arcbar` module and the
methods named in `TARGETS`, patching every binding of a wrapped function (a
`from`-import binds the same object in another module's namespace), and
`uninstall()` restores them.  Each wrapped call adds to a per-target call count
and self time (its duration minus the wrapped calls inside it).  Spans are
kept only at coarse boundaries -- top-level calls from the benchmark and the
first wrapped call below each -- held in memory and written by the caller.

`GcObserver` watches the collector through `gc.callbacks`; it never disables
or tunes it.
"""
from __future__ import annotations

import gc
import importlib
import time
from collections import Counter

_OPERADS = ("AssocOperad", "LittleDiskOperad", "FramedOperad",
            "SemidirectOperad", "CompactOperad")

# metric key -> wrapped targets ("module:function" or "module:Class.method").
# Timed targets count calls and self time; COUNTED ones count calls only
# (their time stays in the caller's self time); GENERATORS count items yielded.
TARGETS = {
    "rational.mod_frac": ["rational:mod_frac"],
    "rational.Turn": ["rational:Turn.__init__"],
    "rational.images_overlap": ["rational:images_overlap"],
    "rational.draw_composition": ["rational:draw_composition"],
    "groups.orbit_sweep": ["groups:orbit_sweep"],
    "groups.slot_act": ["groups:slot_act"],
    "groups.act_labels": ["groups:act_labels"],
    "operads.compose": [f"operads:{c}.compose" for c in _OPERADS],
    "operads.act": [f"operads:{c}.act" for c in _OPERADS],
    "operads.sample": [f"operads:{c}.sample" for c in _OPERADS],
    "operads.check": ["operads:check_operad_laws", "operads:check_operad_map"],
    "circle.ArcSystem.validate": ["circle:ArcSystem.validate"],
    "circle.compose_uec": ["circle:compose_uec"],
    "circle.wreath_act": ["circle:wreath_act"],
    "circle.circle_act": ["circle:circle_act"],
    "circle.retract_step": ["circle:retract_step"],
    "circle.sample": ["circle:sample_uec", "circle:sample_ucc", "circle:sample_ue",
                      "circle:sample_e"],
    "cyclic.normalize_word": ["cyclic:normalize_word"],
    "cyclic.act_on_point": ["cyclic:act_on_point"],
    "cyclic.comparison": ["cyclic:lambda_to_ucc", "cyclic:ucc_to_lambda",
                          "cyclic:align_ucc"],
    "cyclic.twist_point": ["cyclic:twist_point"],
    "barcalc.cyclic_face": ["barcalc:cyclic_face"],
    "barcalc.cyclic_degeneracy": ["barcalc:cyclic_degeneracy"],
    "barcalc.cyclic_twist": ["barcalc:cyclic_twist"],
    "barcalc.collapse": ["barcalc:collapse"],
    "barcalc.multiply": ["barcalc:FinCmMonoid.multiply"],
    "barcalc.verify_cyclic_object": ["barcalc:verify_cyclic_object"],
    "barcalc.labeled_orbit": ["barcalc:labeled_orbit"],
    "barcalc.check_thm_cycbar_free": ["barcalc:check_thm_cycbar_free"],
    "barcalc.map_c_to_l": ["barcalc:map_c_to_l"],
    "suites.run_suite": ["suites:run_suite"],
    "jsonio.from_json": ["jsonio:*_from_json"],
    "jsonio.to_json": ["jsonio:*_to_json"],
    "cli.main": ["cli:main"],
}
COUNTED = {
    "rational.Rat.new": ["fractions:Fraction.__new__"],
    "groups.Perm": ["groups:Perm.__init__"],
    "groups.WreathElem": ["groups:WreathElem.__init__"],
}
GENERATORS = {
    "groups.znwrcm_elements": ["groups:znwrcm_elements"],
}
# Top-level calls from the benchmark, and calls one level below them, get a
# span only for these keys; everything else is aggregated.
SPAN_KEYS = {"suites.run_suite", "operads.check", "barcalc.verify_cyclic_object",
             "barcalc.check_thm_cycbar_free", "barcalc.labeled_orbit",
             "barcalc.map_c_to_l", "groups.orbit_sweep", "cyclic.normalize_word",
             "cli.main"}


def resolve(spec: str) -> list[tuple[str, object, str, object]]:
    """-> [(name, owner, attr, original)] for one target spec; an owner is a
    module or a class.  Targets missing from the package resolve to nothing."""
    mod_name, path = spec.split(":")
    module = importlib.import_module(
        mod_name if mod_name == "fractions" else f"arcbar.{mod_name}")
    if path.startswith("*"):
        suffix = path[1:]
        return [(f"{mod_name}.{a}", module, a, f) for a, f in sorted(vars(module).items())
                if a.endswith(suffix) and callable(f)
                and getattr(f, "__module__", None) == module.__name__]
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    if attr not in vars(owner):
        return []
    return [(f"{mod_name}.{path}", owner, attr, vars(owner)[attr])]


class Tracer:
    def __init__(self, span_cap: int = 8):
        self.calls: Counter = Counter()     # target name -> calls
        self.self_s: Counter = Counter()    # target name -> self seconds
        self.key_of: dict[str, str] = {}    # target name -> metric key
        self.extra: Counter = Counter()     # derived counts (cases, hits, ...)
        self.spans: list[dict] = []
        self.span_dropped = 0
        self._span_cap = span_cap
        self._span_seen: Counter = Counter()
        self._stack: list[list] = []        # [child_s, span_id] per open call
        self._active: Counter = Counter()   # metric key -> open calls
        self._patched: list[tuple[object, str, object]] = []
        self._root = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import sys
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "arcbar" or n.startswith("arcbar.")]
        for table, make in ((TARGETS, self._timed), (COUNTED, self._counted),
                            (GENERATORS, self._generator)):
            for key, specs in table.items():
                for spec in specs:
                    for name, owner, attr, orig in resolve(spec):
                        self.key_of[name] = key
                        wrapped = make(name, key, orig)
                        self._patch(owner, attr, orig, wrapped, modules)

    def _patch(self, owner, attr, orig, wrapped, modules) -> None:
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        for mod in modules:  # every from-import binding of the same function
            for a, v in list(vars(mod).items()):
                if v is orig and mod is not owner:
                    self._patched.append((mod, a, orig))
                    setattr(mod, a, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- spans -------------------------------------------------------------

    def open_root(self, name: str) -> None:
        self._root = {"id": 0, "parent": None, "name": name,
                      "start": time.perf_counter(), "end": None}
        self.spans.append(self._root)

    def close_root(self) -> None:
        self._root["end"] = time.perf_counter()

    def _span(self, key: str, start: float):
        depth = len(self._stack)
        if depth > 1 or key not in SPAN_KEYS:
            return None
        parent = self._stack[-1][1] if depth else 0
        if parent is None:
            return None
        seen = (parent, key)
        self._span_seen[seen] += 1
        if depth and self._span_seen[seen] > self._span_cap:
            self.span_dropped += 1
            return None
        span = {"id": len(self.spans), "parent": parent, "name": key,
                "start": start, "end": None}
        self.spans.append(span)
        return span["id"]

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, key: str, orig):
        fn = getattr(orig, "__func__", orig)
        hook = _HOOKS.get(key)
        stack, calls, self_s, active = self._stack, self.calls, self.self_s, self._active
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            start = perf()
            if hook is not None:
                hook.before(self, args)
            frame = [0.0, self._span(key, start)]
            stack.append(frame)
            active[key] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook.raised(self, exc)
                raise
            else:
                if hook is not None:
                    hook.after(self, result)
                return result
            finally:
                end = perf()
                stack.pop()
                active[key] -= 1
                calls[name] += 1
                self_s[name] += end - start - frame[0]
                if stack:
                    stack[-1][0] += end - start
                if frame[1] is not None:
                    self.spans[frame[1]]["end"] = end
        return _keep_kind(orig, wrapper)

    def _counted(self, name: str, key: str, orig):
        fn = getattr(orig, "__func__", orig)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper  # __new__ and __init__ are plain functions in a class dict

    def _generator(self, name: str, key: str, orig):
        calls, extra = self.calls, self.extra

        def counting(items):
            for item in items:
                extra[key + ".yielded"] += 1
                yield item

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return counting(orig(*args, **kwargs))
        return wrapper

    # -- results -----------------------------------------------------------

    def by_key(self) -> tuple[Counter, Counter]:
        calls, self_s = Counter(), Counter()
        for name, n in self.calls.items():
            calls[self.key_of[name]] += n
        for name, s in self.self_s.items():
            self_s[self.key_of[name]] += s
        return calls, self_s


def _keep_kind(orig, wrapper):
    if isinstance(orig, staticmethod):
        return staticmethod(wrapper)
    if isinstance(orig, classmethod):
        return classmethod(wrapper)
    return wrapper


class _Hook:
    def before(self, tracer: Tracer, args) -> None:
        pass

    def after(self, tracer: Tracer, result) -> None:
        pass

    def raised(self, tracer: Tracer, exc: BaseException) -> None:
        pass


class _Retries(_Hook):
    """A call made from inside the same function is a rejection retry."""

    def before(self, tracer, args):
        if tracer._active["rational.draw_composition"]:
            tracer.extra["rational.draw_composition.retries"] += 1


class _OrbitPoints(_Hook):
    def after(self, tracer, result):
        tracer.extra["groups.orbit_sweep.points"] += len(result)


class _InOrbit(_Hook):
    """Group elements applied per labeled orbit: wreath actions inside it."""

    def before(self, tracer, args):
        if tracer._active["barcalc.labeled_orbit"]:
            tracer.extra["barcalc.group_in_orbit"] += 1


class _Collapse(_Hook):
    def before(self, tracer, args):
        R, t = args[0], args[1]
        if R.base in t:
            tracer.extra["barcalc.collapse.hits"] += 1


class _Cases(_Hook):
    def after(self, tracer, result):
        tracer.extra["barcalc.verify_cyclic_object.cases"] += result.cases


class _Classes(_Hook):
    def after(self, tracer, result):
        tracer.extra["barcalc.check_thm_cycbar_free.classes"] += sum(
            e["left_classes"] for e in result.per_degree)


class _GensIn(_Hook):
    def before(self, tracer, args):
        tracer.extra["cyclic.normalize_word.gens_in"] += len(args[0].gens)


class _ExitCodes(_Hook):
    def after(self, tracer, result):
        tracer.extra[f"cli.exit{result}"] += 1

    def raised(self, tracer, exc):
        if isinstance(exc, SystemExit):
            tracer.extra[f"cli.exit{exc.code}"] += 1
        else:
            tracer.extra["cli.escaped"] += 1


_HOOKS = {
    "rational.draw_composition": _Retries(),
    "groups.orbit_sweep": _OrbitPoints(),
    "circle.wreath_act": _InOrbit(),
    "barcalc.collapse": _Collapse(),
    "barcalc.verify_cyclic_object": _Cases(),
    "barcalc.check_thm_cycbar_free": _Classes(),
    "cyclic.normalize_word": _GensIn(),
    "cli.main": _ExitCodes(),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics a traced run reports (GC and overhead aside)."""
    calls, self_s = tracer.by_key()
    x = tracer.extra
    out: dict[str, float] = {"rational.Rat.new_calls": calls["rational.Rat.new"]}
    for key in list(TARGETS) + list(COUNTED) + list(GENERATORS):
        if key != "rational.Rat.new":
            out[f"{key}.calls"] = calls[key]
        if key in TARGETS:
            out[f"{key}.self_s"] = self_s[key]
    out.update({k: x[k] for k in (
        "rational.draw_composition.retries", "groups.znwrcm_elements.yielded",
        "groups.orbit_sweep.points", "barcalc.verify_cyclic_object.cases",
        "barcalc.check_thm_cycbar_free.classes", "cyclic.normalize_word.gens_in",
        "cli.exit0", "cli.exit2", "cli.escaped")})
    ops = sum(calls[k] for k in ("circle.compose_uec", "circle.wreath_act",
                                 "circle.circle_act", "circle.retract_step"))
    out["circle.validations_per_op"] = calls["circle.ArcSystem.validate"] / ops if ops else 0.0
    n = calls["barcalc.collapse"]
    out["barcalc.collapse.hit_ratio"] = x["barcalc.collapse.hits"] / n if n else 0.0
    n = calls["barcalc.labeled_orbit"]
    out["barcalc.group_per_orbit"] = x["barcalc.group_in_orbit"] / n if n else 0.0
    return out


class GcObserver:
    """Counts collections and their pauses by generation, via gc.callbacks."""

    def __init__(self):
        self.collections = Counter()
        self.pause_s = 0.0
        self._start = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause_s += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)
