#!/usr/bin/env python3
"""Benchmark harness for spg.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: spg is imported from ``./src``.  One
process, one caller, closed loop: each job starts when the previous one has
ended and been checked.  The run sets up (imports spg afresh and builds the
seeded inputs) several times, then runs passes over the job list until
``--seconds`` have gone by.  Every pass has a set-up of its own, so every
timed pass starts with spg's process-global caches empty.  The first pass
always completes, later ones stop between jobs at the deadline.  Times are
reported in reference seconds (see speed.py).

With ``--trace 0`` nothing is installed in spg and the end-to-end metrics
are reported.  With ``--trace 1`` whole untraced and traced passes
alternate; the traced ones record spans (see tracer.py), which are written
to ``.bench_build/perfbench/`` and reduced to the per-layer metrics.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> {value, unit}).  Lines before it name the
failures, the known-defect probes' verdicts, the times as measured, the
number of passes and set-ups, and every job latency of every untraced pass.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from collections import Counter, defaultdict
from time import perf_counter

import gen
import speed
import tracer as tracing
import workloads

SETUP_REPEATS = 11
SIDE_PROBE_REPEATS = 5
SPG_MODULES = ("boards", "complexes", "rulesets", "engine", "gametree", "construct", "cli")


def import_spg(src):
    """A fresh import of spg from ``src``: earlier imports are dropped, so
    each set-up pays for the import and starts with empty caches."""
    for name in [n for n in sys.modules if n == "spg" or n.startswith("spg.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"spg.{name}") for name in SPG_MODULES}
    pkg = sys.modules["spg"]
    if not os.path.abspath(pkg.__file__).startswith(src + os.sep):
        raise SystemExit(f"spg was imported from {pkg.__file__}, not from {src}")
    return types.SimpleNamespace(**mods)


def cpu_now():
    """CPU seconds of this process and its finished children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Run:
    """The passes of one run.  Every pass has a set-up of its own (a fresh
    import of spg and freshly built jobs), so every timed pass starts with
    spg's process-global caches empty."""

    def __init__(self):
        self.passes = []  # (traced, [(job name, start, end, CPU seconds)])
        self.attempted = 0
        self.failures = []

    def one_pass(self, ctx, jobs, tracer=None, deadline=None):
        """Run every job once, or until ``deadline``, recording the time of
        each job's calls into spg.  Checks run outside the timed calls."""
        ctx.tracer = tracer
        ctx.span = tracer.span if tracer else tracing.null_span
        timings = []
        self.passes.append((tracer is not None, timings))
        if tracer:
            tracer.install()
        try:
            for job in jobs:
                if deadline is not None and perf_counter() >= deadline:
                    break
                if tracer:
                    tracer.job = job.name
                c0, t0 = cpu_now(), perf_counter()
                try:
                    with ctx.span("bench.job"):
                        result = job.run()
                    error = None
                except Exception as exc:  # a failed job is counted, never fatal
                    error = f"{type(exc).__name__}: {exc}"
                t1, c1 = perf_counter(), cpu_now()
                timings.append((job.name, t0, t1, c1 - c0))
                if error is None:
                    try:
                        error = job.check(result)
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
                self.attempted += 1
                if error is not None:
                    self.failures.append(f"{job.name}: {error}")
        finally:
            if tracer:
                tracer.uninstall()

    def job_names(self):
        """The job list, in order, from the first pass (which completes)."""
        return [name for name, *_ in self.passes[0][1]]

    def job_times(self, scale, traced=False):
        """Job name -> [(wall, cpu)] over the passes of one kind, each time
        multiplied by ``scale(start, end)``."""
        out = defaultdict(list)
        for was_traced, timings in self.passes:
            if was_traced == traced:
                for name, t0, t1, cpu in timings:
                    k = scale(t0, t1)
                    out[name].append(((t1 - t0) * k, cpu * k))
        return out

    def typical_pass(self, times, which=0):
        """One pass's wall (``which`` 0) or CPU (1) time, as the sum of each
        job's median over the passes: a slow spell during one pass moves it
        less than it moves that pass's total."""
        return sum(statistics.median(t[which] for t in times[name]) for name in self.job_names())


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run, times, setup_s, workload):
    """The end-to-end metrics.  Latency percentiles are over each job's
    median over the run's passes, so that every job weighs the same however
    many passes fit in the run.  In ``cli`` the peak RSS is that of the
    largest spg child; elsewhere it is that of this process."""
    lat = [1000 * statistics.median(wall for wall, _ in times[name]) for name in run.job_names()]
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "wall_s": run.typical_pass(times, 0),
        "cpu_s": run.typical_pass(times, 1),
        "job_p50_ms": percentile(lat, 50),
        "job_p90_ms": percentile(lat, 90),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "setup_s": setup_s,
        "pass_ratio": (run.attempted - len(run.failures)) / run.attempted,
    }


def timed_child_ms(ctx, argv):
    times = []
    for _ in range(SIDE_PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run(argv, env=workloads.child_env(ctx), cwd=ctx.work, capture_output=True, check=True, timeout=60)
        times.append(1000 * (perf_counter() - t0))
    return statistics.median(times)


def per_layer(ctx, traced, scale, overhead):
    """Per-layer metrics: times are medians over the traced passes, in
    reference seconds; counts come from the first traced pass (every pass
    does the same work)."""
    rows = []
    for spans, counts in traced:
        inclusive, self_by_name, self_by_layer = tracing.layer_times(spans, scale)
        calls = counts["rulesets.legal_calls"]
        rows.append({
            "boards.embed_s": inclusive["boards.embed"],
            "boards.placements": counts["boards.placements"],
            "boards.board_vertices": counts["boards.board_vertices"],
            "rulesets.legal_calls": calls,
            "rulesets.legal_s": self_by_layer["rulesets"],
            "rulesets.legal_accept_ratio": counts["rulesets.legal_accepted"] / calls if calls else 0.0,
            "engine.analyze_s": self_by_name["engine.analyze"],
            "engine.legal_complex_s": inclusive["engine.legal_complex"],
            "engine.illegal_complex_s": inclusive["engine.illegal_complex"],
            "engine.derive_s": self_by_name["engine.legal_complex"] + self_by_name["engine.illegal_complex"],
            "engine.legal_sets": counts["engine.legal_sets"],
            "engine.minimal_illegal": counts["engine.minimal_illegal"],
            "engine.calls_per_legal_set": calls / counts["engine.legal_sets"] if counts["engine.legal_sets"] else 0.0,
            "complexes.facets": counts["complexes.facets"],
            "complexes.nonfaces_s": inclusive["complexes.nonfaces"],
            "complexes.iso_s": inclusive["complexes.iso"],
            "complexes.iso_calls": counts["complexes.iso_calls"],
            "gametree.value_s": inclusive["gametree.value"],
            "gametree.tree_s": inclusive["gametree.tree"],
            "gametree.tree_nodes": counts["gametree.tree_nodes"],
            "gametree.iso_agree_s": inclusive["gametree.iso_agree"],
            "construct.realize_s": inclusive["construct.realize"],
            "construct.verify_s": inclusive["construct.verify"],
            "construct.verify_pass": counts["construct.verify_pass"],
            "construct.board_vertices": counts["construct.board_vertices"],
            "cli.exit_mismatch": counts["cli.exit_mismatch"],
            **{f"{layer}.self_s": self_by_layer[layer] for layer in tracing.LAYERS if layer != "rulesets"},
        })
    out = {}
    for key, value in rows[0].items():
        out[key] = float(statistics.median(r[key] for r in rows)) if key.endswith("_s") else value
    out.update(overhead)
    out["cli.python_ms"] = timed_child_ms(ctx, [sys.executable, "-c", "pass"])
    out["cli.startup_ms"] = timed_child_ms(ctx, workloads.spg_command(["--help"]))
    return out


def probes(ctx):
    """Known-defect probes, run outside the timed workloads with their
    verdicts printed by name on every run, so that a fix shows.

    * the distance round trip on a 5-vertex labeled path: at the time the
      benchmark was written it dies with a RecursionError in the embedding
      search (one stack frame per vertex of the 1,125-vertex piece);
    * the first input of known_defects.json: the recovered complex gains a
      pair that the input lacks.
    """
    S = ctx.spg
    spurious = ctx.known_defects["illegal"][0]
    cases = (
        ("distance-roundtrip-path5-n5", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")],
         {"a": "L", "b": "R", "c": "L", "d": "R", "e": "L"}, 5),
        ("distance-roundtrip-spurious-pair", spurious["facets"], spurious["part"], 4),
    )
    for name, facets, part, max_n in cases:
        target = S.complexes.from_facets(facets, part)
        t0 = perf_counter()
        try:
            report = S.construct.verify_roundtrip("illegal", target, max_construction_vertices=max_n, time_cap_s=60)
            fixed = report.status == "PASS" and report.computed == target
            verdict = "PASS" if fixed else f"KNOWN-FAIL {report.status}: {report.detail}"
        except RecursionError:
            verdict = "KNOWN-FAIL RecursionError in the embedding search"
        except Exception as exc:  # any other crash is reported, not raised
            verdict = f"KNOWN-FAIL {type(exc).__name__}: {exc}"
        yield f"probe {name}: {verdict} ({perf_counter() - t0:.2f}s)"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spg", "__init__.py")):
        print(f"error: no spg sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(root, ".bench_build", "perfbench")
    work = os.path.join(out_dir, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return measure(args, root, src, out_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, src, out_dir, work):
    build = workloads.WORKLOADS[args.workload]
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    gen.prepare_pools()  # seed-independent tables, built before set-up is timed
    tracer = tracing.Tracer() if args.trace else None
    run = Run()
    setups = []

    def set_up():
        gc.collect()  # each set-up starts without the last one's garbage
        t0 = perf_counter()
        ctx = workloads.Context(import_spg(src), root, work)
        jobs = build(ctx, gen.rng_for(args.seed, args.workload))
        setups.append((t0, perf_counter()))
        if tracer:
            tracer.prepare()
        return ctx, jobs

    with speed.SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            set_up()
        # every pass sets up afresh; untraced runs stop at the deadline
        # between jobs once every job has run; traced runs alternate whole
        # untraced and traced passes
        deadline = perf_counter() + args.seconds
        traced = []
        ctx = jobs = None
        while not run.passes or (tracer and not traced) or perf_counter() < deadline:
            ctx = jobs = None  # the last pass's spg is collected before the next set-up
            ctx, jobs = set_up()
            if tracer and len(run.passes) % 2:
                tracer.spans, tracer.counts = [], Counter()
                run.one_pass(ctx, jobs, tracer)
                traced.append((tracer.spans, tracer.counts))
            else:
                run.one_pass(ctx, jobs, deadline=deadline if run.passes and not tracer else None)
        time.sleep(speed.WINDOW_S)  # samples after the last job, for its scale
    times = run.job_times(sampler.scale)
    raw = run.job_times(lambda t0, t1: 1.0)
    setup_s = statistics.median((t1 - t0) * sampler.scale(t0, t1) for t0, t1 in setups)

    if tracer:
        with open(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"), "w") as fh:
            for i, (spans, _) in enumerate(traced):
                for rec in spans:
                    fh.write(json.dumps([i] + rec) + "\n")
        traced_pass = run.typical_pass(run.job_times(sampler.scale, traced=True))
        values = per_layer(ctx, traced, sampler.scale, {
            "trace.wall_s": traced_pass,
            "trace.overhead_s": traced_pass - run.typical_pass(times),
        })
    else:
        values = end_to_end(run, times, setup_s, args.workload)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}

    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    for line in probes(ctx):
        print(line)
    print(f"measured wall_s {run.typical_pass(raw, 0):.4f} cpu_s {run.typical_pass(raw, 1):.4f} "
          f"setup_s {statistics.median(t1 - t0 for t0, t1 in setups):.4f} (seconds as measured); "
          f"median speed loop {1000 * statistics.median(sampler.loop_s):.4f} ms")
    latencies = {name: [round(1000 * wall, 4) for wall, _ in times[name]] for name in run.job_names()}
    print(f"passes {len(run.passes)} set-ups {len(setups)}")
    print("latencies_ms " + json.dumps(latencies))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
