"""Spans and counters recorded around calls into ``spg``'s layers.

The benchmark never edits ``spg``.  ``Tracer.install`` replaces public
functions of ``spg``'s modules, wherever a module holds a reference to them,
with wrappers that record a span per call; ``uninstall`` puts the originals
back.  Untraced passes run with nothing installed.

A span is ``[name, start, end, parent, job, leaf_s]``: ``parent`` is the index
of the enclosing span (or -1) and ``leaf_s`` the time spent in legality
predicate calls made directly under it.  Predicate calls are too many to keep
one span each, so they are timed and counted in aggregate: a ruleset built by
a wrapped factory gets a counting predicate through ``dataclasses.replace``.
A call made inside a span of the same name records nothing of its own, so
recursive and re-entrant calls fold into their outermost span.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

NAME, START, END, PARENT, JOB, LEAF = range(6)

LAYERS = ("boards", "rulesets", "engine", "complexes", "gametree", "construct", "cli", "bench")


# (module, function, span name, counters taken from (args, result))
WRAPPED = (
    ("engine", "basic_positions", "boards.embed",
     lambda a, r: {"boards.placements": len(r), "boards.board_vertices": len(a[1].vertices)}),
    ("engine", "analyze", "engine.analyze",
     lambda a, r: {"engine.legal_sets": len(r.legal), "engine.minimal_illegal": len(r.minimal_illegal)}),
    ("engine", "legal_complex", "engine.legal_complex", None),
    ("engine", "illegal_complex", "engine.illegal_complex", None),
    ("complexes", "from_facets", "complexes.from_facets", lambda a, r: {"complexes.facets": len(r.facets)}),
    ("complexes", "faces", "complexes.faces", None),
    ("complexes", "minimal_nonfaces", "complexes.nonfaces", None),
    ("complexes", "are_isomorphic", "complexes.iso", lambda a, r: {"complexes.iso_calls": 1}),
    ("gametree", "canonical_value", "gametree.value", None),
    ("gametree", "build_tree", "gametree.tree", None),
    ("gametree", "legal_iso_iff_tree_iso", "gametree.iso_agree", None),
    ("construct", "realize_illegal", "construct.realize",
     lambda a, r: {"construct.board_vertices": len(r.board.vertices)}),
    ("construct", "realize_legal", "construct.realize",
     lambda a, r: {"construct.board_vertices": len(r.board.vertices)}),
    ("construct", "realize_both", "construct.realize",
     lambda a, r: {"construct.board_vertices": len(r[0].board.vertices)}),
    ("construct", "verify_roundtrip", "construct.verify",
     lambda a, r: {"construct.verify_pass": int(r.status == "PASS")}),
)

# ruleset factories whose products get a counting predicate
FACTORIES = (
    "snort", "col", "nogo", "domineering", "free_placement", "gamma_game",
    "table_game_legal", "table_game_illegal", "cycle_placement_game",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = None
        self._sites: list | None = None

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name):
        if any(self.spans[i][NAME] == name for i in self.stack):
            yield
            return
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.job, 0.0]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[END] = perf_counter()
            self.stack.pop()

    def _wrap(self, fn, name, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if any(self.spans[i][NAME] == name for i in self.stack):
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if counters is not None:
                self.counts.update(counters(args, result))
            return result

        return wrapper

    def _counting(self, pred):
        if getattr(pred, "_counted", False):
            return pred

        def legal(board, pos):
            t0 = perf_counter()
            ok = pred(board, pos)
            dt = perf_counter() - t0
            self.counts["rulesets.legal_calls"] += 1
            self.counts["rulesets.legal_accepted"] += bool(ok)
            if self.stack:
                self.spans[self.stack[-1]][LEAF] += dt
            return ok

        legal._counted = True
        return legal

    def _wrap_factory(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            rs = factory(*args, **kwargs)
            return dataclasses.replace(rs, legal=self._counting(rs.legal))

        return wrapper

    # -- installing --------------------------------------------------------

    def _find_sites(self):
        """(namespace, key, original, wrapper) for every reference to a
        wrapped function held by an spg module, as a global or as a value of
        a module-level dict (such as the CLI's ruleset table)."""
        targets = {}
        for mod, fn, name, counters in WRAPPED:
            orig = getattr(sys.modules[f"spg.{mod}"], fn)
            targets[id(orig)] = (orig, self._wrap(orig, name, counters))
        for fn in FACTORIES:
            orig = getattr(sys.modules["spg.rulesets"], fn)
            targets[id(orig)] = (orig, self._wrap_factory(orig))
        sites = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "spg" or mod_name.startswith("spg.")):
                continue
            namespaces = [vars(mod)] + [
                v for k, v in vars(mod).items() if type(v) is dict and not k.startswith("__")
            ]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    hit = targets.get(id(value))
                    if hit is not None and hit[0] is value:
                        sites.append((ns, key) + hit)
        return sites

    def prepare(self):
        """Find the patch sites; call once after importing spg, before its
        process-global caches grow (they are module-level dicts too)."""
        self._sites = self._find_sites()

    def install(self):
        for ns, key, _, wrapper in self._sites:
            ns[key] = wrapper

    def uninstall(self):
        for ns, key, orig, _ in self._sites:
            ns[key] = orig

    # -- output ------------------------------------------------------------

    def adopt(self, spans, counts, parent):
        """Append spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for rec in spans:
            rec = list(rec)
            rec[PARENT] = parent if rec[PARENT] < 0 else rec[PARENT] + offset
            rec[JOB] = self.spans[parent][JOB]
            self.spans.append(rec)
        self.counts.update(counts)


def layer_times(spans, scale):
    """Inclusive seconds per span name, and self seconds per span name and
    per layer (the part of a span's name before the first dot), each span's
    time multiplied by ``scale(start, end)``.

    A span's self time is its duration minus its direct children's durations
    and the predicate time recorded under it; predicate time is the
    ``rulesets`` layer's self time.
    """
    factor = [scale(rec[START], rec[END]) for rec in spans]
    child = [0.0] * len(spans)
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += (rec[END] - rec[START]) * factor[i]
    inclusive: Counter = Counter()
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    for i, rec in enumerate(spans):
        dur, leaf = (rec[END] - rec[START]) * factor[i], rec[LEAF] * factor[i]
        own = dur - child[i] - leaf
        inclusive[rec[NAME]] += dur
        self_by_name[rec[NAME]] += own
        self_by_layer[rec[NAME].split(".", 1)[0]] += own
        self_by_layer["rulesets"] += leaf
    return inclusive, self_by_name, self_by_layer


def null_span(_name):
    return nullcontext()
