"""The four workloads: job lists built from a seed, and their checks.

A job is one call sequence into ``spg`` plus a check of its answer against a
reference that does not come from ``spg``: ``expected.json`` (reproduced by
``oracle.py``), the input complex itself for round trips, a witness the
benchmark applies itself for isomorphisms, and plain subset enumeration for
minimal nonfaces.  A check returns ``None`` or a one-line failure.

Why each workload (see README.md for the metrics each should move):

* ``solve``: complexes and value of mid-size games; the closure, the
  all-pairs maximal-face scan and the game layer do nearly all the work.
* ``roundtrip``: distance-game round trips at n=3 and n=4, where embedding
  into boards of ~400 and ~1,800 vertices does nearly all the work, so
  closure and game-layer changes must show no change here.
* ``corpus``: many small distinct jobs over the same layers as ``solve``,
  where per-call overhead and the process-global caches dominate.
* ``cli``: ``spg`` invocations as child processes, one at a time; process
  start, import, argument parsing and file I/O dominate.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import gen
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))

# the console-script entry point of spg, run as ``python -c``
SPG_MAIN = "import sys; from spg.cli import main; sys.exit(main())"


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


class Context:
    """What jobs share: the spg modules, the span recorder of the current
    pass, and the directories the run may write."""

    def __init__(self, spg_modules, root, work):
        self.spg = spg_modules
        self.root = root
        self.work = work
        self.span = None  # set per pass: a no-op or Tracer.span
        self.tracer = None  # set during traced passes
        with open(os.path.join(HERE, "expected.json")) as fh:
            self.expected = json.load(fh)
        with open(os.path.join(HERE, "known_defects.json")) as fh:
            self.known_defects = json.load(fh)


def _same_value(want, text):
    """None when the value strings denote the same canonical form (option
    order follows spg's interning order, which the seed may change)."""
    if oracle.parse_value(text) != oracle.parse_value(want):
        return f"value {text!r}, want {want!r}"
    return None


def _mismatch(want, got):
    bad = [f"{k}: want {want[k]!r}, got {got[k]!r}" for k in got if want[k] != got[k]]
    return "; ".join(bad) or None


# ---------------------------------------------------------------------------
# solve

SOLVE = (
    ("snort-path10", gen.path(10)),
    ("col-cycle10", gen.cycle(10)),
    ("nogo-grid3x3", gen.grid(3, 3)),
    ("domineering-grid3x4", gen.grid(3, 4)),
)


def _solve_one(ctx, ruleset, brd, cap):
    S = ctx.spg
    game = getattr(S.rulesets, ruleset)()
    legal = S.engine.legal_complex(game, brd, cap=cap)
    illegal = S.engine.illegal_complex(game, brd, cap=cap)
    with ctx.span("gametree.value"):
        value = S.gametree.canonical_value(legal)
        text, outcome = S.gametree.value_str(value), S.gametree.outcome_of_value(value)
    with ctx.span("gametree.tree"):
        nodes = S.gametree.build_tree(legal).node_count
    if ctx.tracer:
        ctx.tracer.counts["gametree.tree_nodes"] += nodes
    return {
        "facets": len(legal.facets),
        "legal_vertices": len(legal.vertices),
        "minimal_illegal": len(illegal.facets),
        "value": text,
        "outcome": outcome,
        "tree_nodes": nodes,
    }


def solve(ctx, rng):
    """The four games in a fixed order; the seed shuffles each board's
    vertex ids, which changes names but no answer."""
    jobs = []
    for name, shape in SOLVE:
        want = ctx.expected["solve"][name]
        vertices, edges, coords = gen.relabel_board(rng, shape)
        brd = ctx.spg.boards.board(vertices, edges, coords=coords)
        jobs.append(Job(
            name,
            lambda r=want["ruleset"], b=brd, c=want["cap"]: _solve_one(ctx, r, b, c),
            lambda got, w=want: _same_value(w["value"], got.pop("value")) or _mismatch(w, got),
        ))
    return jobs


# ---------------------------------------------------------------------------
# round trips


def _complex(ctx, cx):
    facets, part = cx
    return ctx.spg.complexes.from_facets(facets, part)


def _roundtrip_job(ctx, name, kind, cx, max_n=4):
    target = _complex(ctx, cx)

    def check(report):
        if report.status != "PASS":
            return f"{report.status}: {report.detail}"
        if target.vertices or report.computed.vertices:
            if report.computed != target:
                return f"recovered {report.computed!r}, input {target!r}"
        return None

    return Job(
        name,
        lambda: ctx.spg.construct.verify_roundtrip(kind, target, max_construction_vertices=max_n),
        check,
    )


def _key(cx):
    facets, part = cx
    return tuple(sorted(tuple(sorted(f)) for f in facets)), tuple(sorted(part.items()))


def roundtrip(ctx, rng):
    """Random complexes on 3 and 4 vertices with no isolated vertex, minus
    the inputs of known_defects.json.

    Kind ``illegal``: one complex per vertex count and shape (1-skeleton and
    facet sizes), which fix the distance board and game.  Kind ``legal``:
    one non-simplex complex per vertex count and shape of its minimal
    nonfaces, which fix the board, its free assemblies and the game.  Every
    seed therefore gets the same mix of boards and games; the parts and
    names vary.
    """
    broken = {kind: {_key((e["facets"], e["part"])) for e in ctx.known_defects[kind]} for kind in ("illegal", "legal")}
    jobs = []
    for n in (3, 4):
        everything = gen.gapless_complexes(n)
        pool = [c for c in everything if _key(c) not in broken["illegal"]]
        for cx in gen.sample_stratified(rng, pool, lambda c: gen.shape(c[0])):
            jobs.append(_roundtrip_job(ctx, f"illegal-n{n}-{len(jobs)}", "illegal", cx))
        pool = [c for c in everything if not gen.is_simplex(c[0]) and _key(c) not in broken["legal"]]
        for cx in gen.sample_stratified(rng, pool, lambda c: gen.nonface_shape(c[0], tuple(sorted(c[1])))):
            jobs.append(_roundtrip_job(ctx, f"legal-n{n}-{len(jobs)}", "legal", cx))
    return jobs


# ---------------------------------------------------------------------------
# corpus

CORPUS_BOTH = 400
CORPUS_ISO = 400  # as many as the round trips, so the median job is an iso job, not a boundary
CORPUS_GAMES_PER_SIZE = 4
CORPUS_RULESETS = ("snort", "col", "nogo")


def _nonfaces_job(ctx, name, cx):
    target = _complex(ctx, cx)
    facets, part = cx

    def run():
        return ctx.spg.complexes.minimal_nonfaces(target), ctx.spg.complexes.sr_ideal(target)

    def check(got):
        nonfaces, ideal = got
        want = {frozenset(f) for f in gen.minimal_nonfaces(facets, sorted(part))}
        if set(nonfaces) != want:
            return f"minimal nonfaces {sorted(map(sorted, nonfaces))}, want {sorted(map(sorted, want))}"
        if set(ideal.generators) != want or set(ideal.variables) != set(part):
            return f"sr ideal {ideal!r} does not match the minimal nonfaces"
        return None

    return Job(name, run, check)


def _iso_job(ctx, name, cx, rng):
    moved, _ = gen.relabel_complex(rng, cx)
    a, b = _complex(ctx, cx), _complex(ctx, moved)

    def run():
        return ctx.spg.complexes.are_isomorphic(a, b), ctx.spg.gametree.legal_iso_iff_tree_iso(a, b)

    def check(got):
        phi, report = got
        if not oracle.iso_witness_ok(cx, moved, phi):
            return f"are_isomorphic gave {phi!r}, not an isomorphism"
        if not (report.complexes_isomorphic and report.trees_isomorphic):
            return f"iso agreement report {report!r} on isomorphic inputs"
        return None

    return Job(name, run, check)


def _game_job(ctx, name, ruleset, shape):
    vertices, edges, coords = shape
    brd = ctx.spg.boards.board(vertices, edges, coords=coords)
    ref: dict = {}  # filled at the first check, outside the timed call

    def run():
        S = ctx.spg
        game = getattr(S.rulesets, ruleset)()
        legal = S.engine.legal_complex(game, brd)
        illegal = S.engine.illegal_complex(game, brd)
        with ctx.span("gametree.value"):
            value = S.gametree.canonical_value(legal)
            text, outcome = S.gametree.value_str(value), S.gametree.outcome_of_value(value)
        return {"facets": len(legal.facets), "minimal_illegal": len(illegal.facets), "outcome": outcome, "value": text}

    def check(got):
        if not ref:
            a = oracle.Analysis(ruleset, shape)
            ref.update(analysis=a, values={}, want={
                "facets": len(a.facets), "minimal_illegal": len(a.minimal_illegal), "outcome": a.outcome(),
            })
        text = got.pop("value")
        if text not in ref["values"]:
            ref["values"][text] = ref["analysis"].equals_value(text)
        if not ref["values"][text]:
            return f"value {text!r} is not the game's value"
        return _mismatch(ref["want"], got)

    return Job(name, run, check)


def corpus(ctx, rng):
    """A size-stratified sample of the 2,170 labeled complexes on at most 4
    vertices, through ``both`` round trips and minimal nonfaces; a second
    sample against seeded relabellings; and snort, col and nogo on random
    connected boards of 3 to 6 vertices."""
    pool = gen.labeled_complexes("abcd")
    key = lambda c: (len(c[1]), len(c[0]))
    jobs = []
    for cx in gen.sample_proportional(rng, pool, key, CORPUS_BOTH):
        jobs.append(_roundtrip_job(ctx, f"both-{len(jobs)}", "both", cx))
        jobs.append(_nonfaces_job(ctx, f"nonfaces-{len(jobs)}", cx))
    for cx in gen.sample_proportional(rng, pool, key, CORPUS_ISO):
        jobs.append(_iso_job(ctx, f"iso-{len(jobs)}", cx, rng))
    for n in range(3, 7):
        for _ in range(CORPUS_GAMES_PER_SIZE):
            shape = gen.random_connected_graph(rng, n)
            for ruleset in CORPUS_RULESETS:
                jobs.append(_game_job(ctx, f"{ruleset}-n{n}-{len(jobs)}", ruleset, shape))
    return jobs


# ---------------------------------------------------------------------------
# cli


def spg_command(argv, traced=False):
    """argv for one spg invocation: the console-script entry point, or the
    traced launcher."""
    if traced:
        return [sys.executable, os.path.join(HERE, "cli_child.py")] + argv
    return [sys.executable, "-c", SPG_MAIN] + argv


def child_env(ctx, **extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ctx.root, "src")
    env.update(extra)
    return env


def _after(lines, prefix):
    """The rest of the first line that starts with ``prefix``, or None."""
    return next((line[len(prefix):] for line in lines if line.startswith(prefix)), None)


def _name_sets(text):
    """``ab, cb`` or ``<ab, cb>`` as a set of vertex sets (the inputs use
    one-letter vertex ids)."""
    text = text.strip().strip("<>")
    return {frozenset(token.strip()) for token in text.split(",")} if text else set()


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _cli_answer(ctx, spec, argv, lines):
    """Check what an invocation that succeeded printed, by meaning: game
    answers against expected.json (reproduced by oracle.py), answers about
    complexes against subset enumeration over the input, round trips by
    their PASS status.  None, or a one-line failure."""
    if "--dry-run" in argv:
        out_dir = _option(argv, "--out-dir")
        if out_dir and os.path.exists(out_dir):
            return f"dry run wrote {out_dir}"
        answers = [line for line in lines if not line.startswith("dry run")]
        return f"dry run printed {answers}" if answers else None
    command = tuple(argv[:2])
    if command[0] in ("verify", "construct"):
        if _after(lines, "PASS: ") is None:
            return f"no PASS line in {lines}"
        if "report" in spec:
            with open(os.path.join(ctx.work, spec["report"])) as fh:
                status = json.load(fh)["status"]
            if status != "PASS":
                return f"report status {status}"
        return None
    if command[0] == "game":
        want = spec["game"]
        if command[1] == "value":
            text = _after(lines, "value: ")
            return "no value line" if text is None else _same_value(want["value"], text)
        if command[1] == "outcome":
            got = (_after(lines, "outcome: ") or "").split(" ")[0]
            return None if got == want["outcome"] else f"outcome {got!r}, want {want['outcome']!r}"
        if command[1] == "complex":
            side, key = ("illegal", "minimal_illegal") if "--illegal" in argv else ("legal", "facets")
            got = len({t for t in (_after(lines, f"{side} complex: facets ") or "").split(", ") if t})
            return None if got == want[key] else f"{got} facets, want {want[key]}"
        if command[1] == "tree":
            got = int((_after(lines, "game tree: ") or "-1").split(" ")[0])
            return None if got == want["tree_nodes"] else f"{got} tree nodes, want {want['tree_nodes']}"
    inputs = ctx.expected["inputs"]
    if "--ideal" in argv:  # complex dual --to sr-complex
        ideal = inputs[_option(spec["argv"], "--ideal").strip("{}")]
        want = oracle.ideal_complex_facets(ideal["variables"], ideal["generators"])
        got = _name_sets(_after(lines, "sr-complex: facets ") or "")
        return None if got == want else f"facets {sorted(map(sorted, got))}, want {sorted(map(sorted, want))}"
    facts = oracle.complex_facts(*oracle.complex_input(inputs[_option(spec["argv"], "--complex").strip("{}")]))
    if command == ("complex", "info"):
        got = {
            "facets": _name_sets(_after(lines, "facets: ") or ""),
            "faces": int(_after(lines, "faces: ") or -1),
            "flag": _after(lines, "flag: ") == "yes",
            "simplex": _after(lines, "simplex: ") == "yes",
        }
        return _mismatch({k: facts[k] for k in got}, got)
    if command == ("complex", "nonfaces"):
        got = {frozenset(line.strip("{}").split(",")) for line in lines if line.startswith("{")}
        return None if got == facts["nonfaces"] else f"minimal nonfaces {sorted(map(sorted, got))}"
    if command == ("complex", "flag"):
        got = _after(lines, "flag: ")
        return None if got == str(facts["flag"]).lower() else f"flag {got!r}, want {facts['flag']}"
    if command == ("complex", "dual"):
        to = _option(argv, "--to")
        want = facts["nonfaces"] if to == "sr-ideal" else facts["facets"]
        got = _name_sets(_after(lines, f"{to}: ") or "")
        return None if got == want else f"{to} generators {sorted(map(sorted, got))}, want {sorted(map(sorted, want))}"
    return f"no check for {' '.join(argv)}"


def _cli_job(ctx, name, spec, paths):
    argv = [a.format(**paths) for a in spec["argv"]]
    trace_out = os.path.join(ctx.work, "child-trace.json")

    def run():
        traced = ctx.tracer is not None
        if traced and os.path.exists(trace_out):
            os.remove(trace_out)
        env = child_env(ctx, PERFBENCH_TRACE_OUT=trace_out) if traced else child_env(ctx)
        proc = subprocess.run(
            spg_command(argv, traced), env=env, cwd=ctx.work,
            capture_output=True, text=True, timeout=120,
        )
        if traced:
            with open(trace_out) as fh:
                child = json.load(fh)
            ctx.tracer.adopt(child["spans"], child["counts"], ctx.tracer.stack[-1])
        return proc

    def check(proc):
        if proc.returncode != spec["exit"]:
            if ctx.tracer is not None:
                ctx.tracer.counts["cli.exit_mismatch"] += 1
            return f"exit {proc.returncode}, want {spec['exit']}: {proc.stderr.strip()[-200:]}"
        if "Traceback" in proc.stderr:
            return "traceback on stderr"
        if spec["exit"] != 0:
            return None
        return _cli_answer(ctx, spec, argv, proc.stdout.splitlines())

    return Job(name, run, check)


def cli(ctx, rng):
    """The fixed invocation list of expected.json in a seeded order; the
    input files are written to the run's work directory."""
    paths = {"work": ctx.work}
    for key, obj in ctx.expected["inputs"].items():
        paths[key] = os.path.join(ctx.work, f"{key}.json")
        with open(paths[key], "w") as fh:
            json.dump(obj, fh)
    names = sorted(ctx.expected["cli"])
    rng.shuffle(names)
    return [_cli_job(ctx, name, ctx.expected["cli"][name], paths) for name in names]


WORKLOADS = {"solve": solve, "roundtrip": roundtrip, "corpus": corpus, "cli": cli}
