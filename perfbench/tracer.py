"""Per-layer tracing from outside the program.

The tracer wraps public functions and methods of the tlreplan modules,
times each call into a layer and counts its work, and restores every
original on `uninstall`. A function that another module imported by name
(`simulate.py` imports `sense` and `build_product`) is patched in every
tlreplan module that holds it, so calls are seen wherever they are looked
up. A name that no longer exists marks its layer absent; the untraced run
never touches the tracer.

Spans are tagged with the benchmark phase that was active when they
started ("setup" or "mission"), so the explicit set-up and the missions
are reported apart. The `baselines` layer is timed by the correctness
replay itself (see check.py), which runs untraced.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

now = time.perf_counter_ns

# (module, qualified public name, span). The span's first part names the layer.
# Methods are patched on their class; functions in every module that holds them.
TARGETS = (
    ("tlreplan.hoa", "parse_nba", "hoa.parse"),
    ("tlreplan.hoa", "NBA.chi_bits", "hoa.chi"),
    ("tlreplan.world", "to_wts", "world.to_wts"),
    ("tlreplan.world", "sense", "world.sense"),
    ("tlreplan.product", "build_product", "product.build"),
    ("tlreplan.product", "build_relaxed_product", "product.build"),
    ("tlreplan.product", "ProductAutomaton.map_wts_change", "product.map"),
    ("tlreplan.product", "ProductAutomaton.apply_changes", "product.apply"),
    ("tlreplan.dstar", "SearchInstance.compute_shortest_path", "dstar.search"),
    ("tlreplan.dstar", "SearchInstance.extract_path", "dstar.extract"),
    ("tlreplan.dstar", "SearchInstance.note_changed_edges", "dstar.update"),
    ("tlreplan.planner", "LTLDStarPlanner.plan_initial", "planner.initial"),
    ("tlreplan.planner", "LTLDStarPlanner.replan", "planner.replan"),
    ("tlreplan.simulate", "simulate", "simulate.mission"),
)


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.ns = defaultdict(int)      # (phase, span) -> total ns
        self.count = defaultdict(int)   # (phase, counter) -> total
        self.heap_max = 0
        self.absent: set[str] = set()
        self._planner = None
        self._in_replan = False
        self._patches = []              # (owner, attribute, original)

    # -- accounting ------------------------------------------------------------

    def add_ns(self, span: str, ns: int):
        self.ns[self.phase, span] += ns

    def add(self, counter: str, n: int = 1):
        self.count[self.phase, counter] += n

    def snapshot(self) -> dict:
        """Mission-phase counters, for per-mission determinism checks."""
        return {k: v for (phase, k), v in self.count.items() if phase == "mission"}

    # -- installation ------------------------------------------------------------

    def install(self):
        for module_name, name, span in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.add(span.partition(".")[0])
                continue
            wrapper = self._wrap(span, original)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "tlreplan" or mod_name.startswith("tlreplan.")) \
                        and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, span: str, fn):
        special = {
            "product.build": self._build,
            "product.apply": self._apply,
            "dstar.search": self._search,
            "planner.initial": self._plan_initial,
            "planner.replan": self._replan,
            "simulate.mission": self._simulate,
        }.get(span)
        return special(fn) if special else self._timed(span, fn)

    # -- wrappers ----------------------------------------------------------------

    def _timed(self, span, fn):
        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add_ns(span, now() - t0)
                self.add(span + "_calls")
        return wrapper

    def _build(self, fn):
        def wrapper(*args, **kwargs):
            t0 = now()
            pa = fn(*args, **kwargs)
            self.add_ns("product.build", now() - t0)
            self.add("product.states", pa.n_states)
            self.add("product.edges", pa.n_edges)
            return pa
        return wrapper

    def _apply(self, fn):
        def wrapper(pa, mod, *args, **kwargs):
            t0 = now()
            created = fn(pa, mod, *args, **kwargs)
            self.add_ns("product.apply", now() - t0)
            self.add("product.edge_changes", len(mod))
            self.add("product.created_edges", len(created))
            return created
        return wrapper

    def _search(self, fn):
        def wrapper(inst, *args, **kwargs):
            planner = self._planner
            kind = "main" if planner is not None and inst is getattr(planner, "main", None) \
                else "loop"
            exp0 = getattr(inst, "expansions", 0)
            cost0 = inst.cost_from(inst.start) if kind == "loop" and self._in_replan else None
            t0 = now()
            result = fn(inst, *args, **kwargs)
            self.add_ns(f"dstar.{kind}", now() - t0)
            self.add(f"dstar.{kind}_expansions", getattr(inst, "expansions", 0) - exp0)
            self.heap_max = max(self.heap_max, len(getattr(inst, "U", ())))
            if cost0 is not None:
                self.add("planner.loops_repaired")
                self.add("planner.loops_useful", inst.cost_from(inst.start) != cost0)
            return result
        return wrapper

    def _children_ns(self) -> int:
        return sum(self.ns[self.phase, s] for s in
                   ("dstar.loop", "dstar.main", "dstar.extract", "dstar.update",
                    "product.apply"))

    def _plan_initial(self, fn):
        def wrapper(planner, *args, **kwargs):
            self._planner = planner
            t0 = now()
            try:
                return fn(planner, *args, **kwargs)
            finally:
                self.add_ns("planner.initial", now() - t0)
        return wrapper

    def _replan(self, fn):
        def wrapper(planner, mod, *args, **kwargs):
            self._planner = planner
            self._in_replan = True
            main0 = getattr(planner, "main", None)
            repaired0 = self.count[self.phase, "planner.loops_repaired"]
            t0 = now()
            c0 = self._children_ns()
            try:
                return fn(planner, mod, *args, **kwargs)
            finally:
                dt = now() - t0
                self._in_replan = False
                self.add_ns("planner.replan", dt)
                self.add_ns("planner.other", dt - (self._children_ns() - c0))
                if mod:
                    repaired = self.count[self.phase, "planner.loops_repaired"] - repaired0
                    self.add("planner.loops_skipped",
                             len(getattr(planner, "records", ())) - repaired)
                    self.add("planner.main_restarts", getattr(planner, "main", None) is not main0)
        return wrapper

    def _simulate(self, fn):
        def wrapper(*args, **kwargs):
            report = fn(*args, **kwargs)
            self.add("simulate.steps", report.steps)
            self.add("simulate.events", len(report.events))
            planner, self._planner = self._planner, None
            if planner is not None:
                searches = [rec.instance for rec in getattr(planner, "records", ())]
                main = getattr(planner, "main", None)
                if main is not None:
                    searches.append(main)
                self.add("dstar.g_entries", sum(len(getattr(s, "g", ())) for s in searches))
            return report
        return wrapper
