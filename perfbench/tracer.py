"""Tracing from outside the program: timers and counters wrapped around
clonekit's public functions, installed in every clonekit module that binds
them.  Nothing under ``src/`` changes.

Each wrapped call is a span.  A layer's self time is the sum of its spans'
durations minus the parts covered by other spans inside them.  Spans are kept
in memory and written out when the run ends, except those of
``Csp.add_constraint``, which runs hundreds of thousands of times per pass and
is only summed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, layer).  "Class.method" names patch the class.
SPANS = [
    ("structures", "parse_structure", "structures.parse"),
    ("clones", "generate_to_arity", "clones.generate"),
    ("clones", "polymorphisms", "clones.polymorphisms"),
    ("clones", "all_polymorphisms", "clones.polymorphisms"),
    ("clones", "has_siggers", "clones.siggers"),
    ("search", "Csp.add_constraint", "search.add_constraint"),
    ("search", "Csp.solve", "search.solve"),
    ("search", "Csp.solutions", "search.solve"),
    ("homs", "hom_csp", "homs.hom_csp"),
    ("homs", "find_homomorphism", "homs.search"),
    ("homs", "hom_equivalent", "homs.search"),
    ("freestruct", "free_structure", "freestruct.closure"),
    ("freestruct", "free_structure_over_polymorphisms", "freestruct.polyfree"),
    ("freestruct", "find_coloring", "freestruct.coloring"),
    ("freestruct", "h1_homomorphism_exists", "freestruct.h1"),
    ("freestruct", "h1_to_projections", "freestruct.h1"),
    ("maltsev", "find_hagemann_mitschke", "maltsev.chain"),
    ("maltsev", "is_congruence_modular", "maltsev.test"),
    ("maltsev", "is_n_permutable_somewhere", "maltsev.test"),
    ("constructions", "bounded_pp_search", "constructions.candidates"),
    ("constructions", "evaluate_pp", "constructions.evaluate_pp"),
] + [("reports", name, "reports.render") for name in (
    "build_report", "render_report", "free_to_dict", "coloring_to_dict",
    "chain_to_dict", "hom_map_to_dict", "spec_to_dict", "refutation_digest")]

GENERATORS = {"polymorphisms", "Csp.solutions"}
UNRECORDED = {"Csp.add_constraint"}

# Layers whose self time is reported, in report order.
LAYERS = sorted({layer for _, _, layer in SPANS} | {"cli"})


class Tracer:
    """Span stack, per-layer self times and counters for one run."""

    def __init__(self):
        self.active = False
        self.stack: list[list] = []      # [layer, start, time covered by children, id]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []     # (id, parent id, decision, layer, start, seconds)
        self.next_id = 0
        self.decision = -1
        self.free: list[dict] = []       # per free structure of the current decision

    def enter(self, layer: str):
        self.next_id += 1
        self.stack.append([layer, time.perf_counter(), 0.0, self.next_id])

    def exit(self, record: bool = True):
        end = time.perf_counter()
        layer, start, covered, span_id = self.stack.pop()
        dur = end - start
        self.self_s[layer] += dur - covered
        parent = None
        if self.stack:
            self.stack[-1][2] += dur
            parent = self.stack[-1][3]
        if record:
            self.spans.append((span_id, parent, self.decision, layer, start, dur))

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    # -- counters taken at layer boundaries --------------------------------

    def after(self, name: str, result):
        c = self.counts
        if name == "generate_to_arity":
            c["clones.members"] += len(result)
        elif name == "Csp.add_constraint":
            c["search.constraints"] += 1
        elif name == "find_homomorphism":
            c["homs.searches"] += 1
        elif name == "free_structure":
            c["freestruct.carrier"] += len(result.carrier)
            c["freestruct.lifted_tuples"] += sum(map(len, result.lifted.values()))
        elif name == "render_report":
            c["reports.bytes"] += len(result.encode())
        if name in ("free_structure", "free_structure_over_polymorphisms"):
            self.free.append({"source": result.source, "carrier": len(result.carrier),
                              "lifted": {k: len(v) for k, v in result.lifted.items()}})

    def wrap(self, name: str, layer: str, fn):
        tracer = self
        record = name not in UNRECORDED
        short = name.rpartition(".")[2]
        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                it = fn(*args, **kwargs)
                try:
                    while True:
                        tracer.enter(layer)
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer.exit(record)
                        if short == "polymorphisms":
                            tracer.counts["clones.polymorphisms"] += 1
                        yield value
                finally:
                    it.close()
                    if short == "solutions":
                        tracer.counts["search.nodes"] += args[0].nodes_explored
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            pp_spec = name == "hom_equivalent" and tracer.parent() == "constructions.candidates"
            tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(record)
            tracer.after(name, result)
            if pp_spec:
                tracer.counts["constructions.specs_tried"] += 1
                tracer.counts["constructions.specs_found"] += result.found
            return result
        return wrapper

    def install(self):
        """Wrap every function in SPANS wherever a clonekit module binds it,
        and count ``Csp`` objects as they are built."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "clonekit" or name.startswith("clonekit.")}
        for modname, attr, layer in SPANS:
            owner = mods[f"clonekit.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(attr, layer, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(attr, layer, original)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        csp = mods["clonekit.search"].Csp
        init = csp.__init__
        tracer = self

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            if tracer.active:
                tracer.counts["search.csps"] += 1
            init(obj, *args, **kwargs)
        csp.__init__ = counted_init
