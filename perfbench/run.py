"""Benchmark of fibreconj: area search in Z^2, the word problem in genus 2, conjugacy in P.

    python3 perfbench/run.py --workload fibre_p --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 30        # all three, one process each

Run from the root of a checkout.  One process, one thread: the workload
is set up, its seeded batch of queries is built, and whole passes over
that same batch are timed until --seconds is used up.  Between the
queries it times a fixed piece of reference work, and next to each
set-up probe a bare interpreter start, and it reports each time scaled
to a host on which those take REF_UNIT_S and START_UNIT_S, so that the
host's swings in speed cancel out.  The outputs of the first pass are
then checked.  With --trace 0 the last line printed is a JSON object
with the end-to-end metrics; with --trace 1 the passes alternate
untraced and traced, and it holds the per-layer metrics.
Results and spans go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import boot
import workloads
from tracing import Tracer

OUT_DIR = os.path.join(boot.BENCH_DIR, "out")
SETUP_PROBES = 15
MIN_TAIL_BEYOND = 10
# Times are reported at the speed of a host on which reference_work()
# takes REF_UNIT_S and a bare interpreter starts in START_UNIT_S; a
# reference sample is taken at least every REF_EVERY_S.
REF_UNIT_S = 0.002
START_UNIT_S = 0.04
REF_EVERY_S = 0.05
REF_WORD = "abABcdCD" * 4


def reference_work() -> int:
    """Fixed pure-Python work of strings, slices and a dict, like the package's; never calls it."""
    seen: dict[str, int] = {}
    for i in range(4000):
        k = i % 32
        w = REF_WORD[k:] + REF_WORD[:k]
        seen[w[:k + 1]] = seen.get(w[:k + 1], 0) + i
    return len(seen)


def reference_sample() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def time_to_ready(args: list[str]) -> float:
    """Seconds from starting a fresh interpreter with args until it prints "ready"."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                          text=True, cwd=boot.ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{args} did not get ready (exit {proc.returncode})")
    return elapsed


def probe_setup(workload: str) -> tuple[float, float]:
    """(seconds from the start of a fresh process until it has set up the workload,
    the mean time of a bare interpreter start just before and after it)."""
    bare = ["-c", "print('ready', flush=True)"]
    before = time_to_ready(bare)
    elapsed = time_to_ready([os.path.join(boot.BENCH_DIR, "boot.py"), workload])
    return elapsed, (before + time_to_ready(bare)) / 2


def run_pass(queries, tracer: Tracer | None = None, scales: list[float] | None = None):
    """One timed pass over the batch: (wall seconds, per-query seconds, results, failed count).

    Given a list as scales, it also takes reference samples between the
    queries and sets scales[i] to the mean of the two that bracket query i.
    """
    latencies = [0.0] * len(queries)
    results = [None] * len(queries)
    refs, ref_before = [], [0] * len(queries)
    gc.collect()
    start = last_ref = time.perf_counter()
    for i, q in enumerate(queries):
        if scales is not None and (not refs or time.perf_counter() - last_ref >= REF_EVERY_S):
            refs.append(reference_sample())
            last_ref = time.perf_counter()
        ref_before[i] = len(refs) - 1
        t0 = time.perf_counter()
        try:
            results[i] = tracer.run_query(i, q.run) if tracer else q.run()
        except Exception as exc:  # a failed operation; reported, never fatal
            results[i] = exc
        latencies[i] = time.perf_counter() - t0
    if scales is not None:
        refs.append(reference_sample())
        scales[:] = [(refs[k] + refs[k + 1]) / 2 for k in ref_before]
    wall = time.perf_counter() - start
    failed = sum(1 for q, r in zip(queries, results) if isinstance(r, Exception) or not q.decided(r))
    return wall, latencies, results, failed


def more_passes(started: float, walls: list[float], seconds: float) -> bool:
    """Start another whole pass only if it is expected to end within the run's time."""
    return time.perf_counter() - started + statistics.median(walls) <= seconds


def verify(queries, results) -> list[str]:
    errors = []
    for q, res in zip(queries, results):
        if isinstance(res, Exception):
            errors.append(f"{q.group}: {type(res).__name__}: {res}")
            continue
        if not q.decided(res):
            continue  # counted in failed
        err = q.check(res)
        if err:
            errors.append(f"{q.group}: {err}")
    return errors


def nearest_rank(sorted_values: list[float], pct: int) -> float:
    return sorted_values[workloads.tail_rank(len(sorted_values), pct) - 1]


def group_shares(queries, per_query: list[float]) -> dict[str, float]:
    """Share of the batch's time by quotient and query kind (first two parts of the group)."""
    total = sum(per_query)
    shares: dict[str, float] = {}
    for q, t in zip(queries, per_query):
        key = "/".join(q.group.split("/")[:2])
        shares[key] = shares.get(key, 0.0) + t / total
    return dict(sorted(shares.items()))


def group_medians(queries, per_query: list[float]) -> dict[str, float]:
    """Median latency in ms of each stratum."""
    groups: dict[str, list[float]] = {}
    for q, t in zip(queries, per_query):
        groups.setdefault(q.group, []).append(t * 1e3)
    return {g: statistics.median(ts) for g, ts in sorted(groups.items())}


def run_untraced(wl, queries, args):
    """Timed passes, with the set-up probes spread between them over the run.

    Every query time is scaled by the reference samples taken next to it
    (t / ref * REF_UNIT_S), and each query's time is the median of its
    scaled times over the passes.  Each set-up probe is scaled by the
    bare interpreter starts next to it (t / bare * START_UNIT_S).
    """
    walls, failed, probes = [], 0, []
    raw, scales = [[] for _ in queries], [0.0] * len(queries)
    first_results = None
    started = time.perf_counter()
    while not walls or more_passes(started, walls, args.seconds):
        wall, lat, results, f = run_pass(queries, scales=scales)
        walls.append(wall)
        failed += f
        for acc, t, ref in zip(raw, lat, scales):
            acc.append((t, ref))
        if first_results is None:
            first_results = results
        while (len(probes) < SETUP_PROBES
               and time.perf_counter() - started >= len(probes) * args.seconds / SETUP_PROBES):
            probes.append(probe_setup(wl.name))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes += [probe_setup(wl.name) for _ in range(SETUP_PROBES - len(probes))]
    per_query = [statistics.median(t / ref * REF_UNIT_S for t, ref in ts) for ts in raw]
    ranked = sorted(per_query)
    metrics = {
        "ops_per_s": (len(queries) / sum(per_query), "ops/s"),
        "latency_p50_ms": (statistics.median(per_query) * 1e3, "ms"),
        "latency_tail_ms": (nearest_rank(ranked, wl.tail_pct) * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (statistics.median(t / bare * START_UNIT_S for t, bare in probes), "s"),
    }
    detail = {
        "passes": len(walls),
        "pass_s": walls,
        "reference_median_s": statistics.median(ref for ts in raw for _, ref in ts),
        "tail_percentile": wl.tail_pct,
        "tail_samples": len(ranked),
        "time_share": group_shares(queries, per_query),
        "group_median_ms": group_medians(queries, per_query),
        "query_raw_s": raw,
        "setup_probes_s": probes,
    }
    return metrics, len(walls) * len(queries), failed, first_results, detail


def run_traced(queries, args, tracer: Tracer, setup_spans: int, spans_path: str):
    """Alternate untraced and traced passes; per-layer figures are medians over traced passes."""
    untraced, traced, layers, counts = [], [], [], []
    first_results = None
    failed = attempted = 0
    started = time.perf_counter()
    while not traced or more_passes(started, [u + t for u, t in zip(untraced, traced)], args.seconds):
        wall, _, results, f = run_pass(queries)
        untraced.append(wall)
        failed += f
        first = len(tracer.spans)
        before = tracer.counts.copy()
        tracer.install()
        try:
            wall, _, results, f = run_pass(queries, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        failed += f
        attempted += 2 * len(queries)
        layers.append(tracer.summarize(first, len(tracer.spans)))
        counts.append(tracer.counts - before)
        if first_results is None:
            first_results = results
            tracer.write(spans_path, 0, len(tracer.spans))
        del tracer.spans[setup_spans:]  # keep memory flat; pass one is on disk

    def med(f):
        return statistics.median(f(layer, count) for layer, count in zip(layers, counts))

    def calls(*names):
        return med(lambda layer, _: sum(layer.get(n, {}).get("calls", 0) for n in names))

    def self_s(*names):
        return med(lambda layer, _: sum(layer.get(n, {}).get("self_s", 0.0) for n in names))

    def count(name):
        return med(lambda _, c: c[name])

    def states_per_s(layer, c):
        incl = layer.get("area.area_bounded", {}).get("incl_s", 0.0)
        return c["area.states"] / incl if incl else 0.0

    abelian = ("abelian.power_solutions", "abelian.coords", "abelian.residues")
    words = sorted({name for layer in layers for name in layer if name.startswith("words.")})
    metrics = {
        "oracle.wp_decide.calls": (calls("oracle.wp_decide"), "count"),
        "oracle.wp_decide.self_s": (self_s("oracle.wp_decide"), "s"),
        "oracle.check_c16.calls": (calls("oracle.check_c16"), "count"),
        "oracle.check_c16.self_s": (self_s("oracle.check_c16"), "s"),
        "oracle.dehn_steps": (count("oracle.dehn_steps"), "count"),
        "oracle.power_decide.calls": (calls("oracle.power_decide"), "count"),
        "oracle.power_decide.self_s": (self_s("oracle.power_decide"), "s"),
        "oracle.power_wp_calls": (count("oracle.power_wp_calls"), "count"),
        "abelian.calls": (calls(*abelian), "count"),
        "abelian.self_s": (self_s(*abelian), "s"),
        "area.area_bounded.calls": (calls("area.area_bounded"), "count"),
        "area.area_bounded.self_s": (self_s("area.area_bounded"), "s"),
        "area.dehn_function.self_s": (self_s("area.dehn_function"), "s"),
        "area.states": (count("area.states"), "count"),
        "area.states_per_s": (med(states_per_s), "1/s"),
        "subdirect.p_conjugacy.calls": (calls("subdirect.p_conjugacy"), "count"),
        "subdirect.p_conjugacy.self_s": (self_s("subdirect.p_conjugacy"), "s"),
        "subdirect.power_queries": (count("subdirect.power_queries"), "count"),
        "perturb.power_avoid.calls": (calls("perturb.power_avoid"), "count"),
        "perturb.power_avoid.self_s": (self_s("perturb.power_avoid"), "s"),
        "perturb.q_equal_calls": (count("perturb.q_equal_calls"), "count"),
        "words.calls": (calls(*words), "count"),
        "words.self_s": (self_s(*words), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(untraced), "s"),
    }
    detail = {"passes": len(traced), "untraced_pass_s": untraced, "traced_pass_s": traced}
    return metrics, attempted, failed, first_results, detail


def run_workload(args) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    fb = boot.import_package()
    tracer = None
    setup_metrics = {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            quotients = boot.setup(wl.name)
        finally:
            tracer.uninstall()
        setup = tracer.summarize(0, len(tracer.spans))
        setup_metrics = {
            "cli.parse_s": (setup.get("cli.parse", {}).get("incl_s", 0.0), "s"),
            "oracle.strategy_s": (setup.get("oracle.strategy", {}).get("incl_s", 0.0), "s"),
        }
    else:
        quotients = boot.setup(wl.name)
    queries = wl.build(fb, quotients, args.seed)
    if len(queries) - workloads.tail_rank(len(queries), wl.tail_pct) < MIN_TAIL_BEYOND:
        raise RuntimeError(f"{wl.name}: p{wl.tail_pct} of {len(queries)} queries has under ten beyond it")

    if tracer:
        metrics, attempted, failed, results, detail = run_traced(
            queries, args, tracer, len(tracer.spans), stem + ".spans.jsonl")
        metrics = {**setup_metrics, **metrics}
    else:
        metrics, attempted, failed, results, detail = run_untraced(wl, queries, args)
    errors = verify(queries, results)
    for err in errors[:20]:
        print("CHECK FAILED", err, file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                   "queries": len(queries), **detail, "errors": errors, **result}, fh, indent=1)
    print(f"# {wl.name} seed={args.seed}: {detail['passes']} passes of {len(queries)} queries, "
          f"{attempted} attempted, {failed} failed, {len(errors)} check errors")
    for name, (value, unit) in metrics.items():
        print(f"# {wl.name} {name} = {value:.6g} {unit}")
    for key, share in detail.get("time_share", {}).items():
        print(f"# {wl.name} time share {key} = {share:.1%}")
    return result


def run_all(args) -> dict:
    """Each workload in its own process, one after another; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=boot.ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} failed (exit {proc.returncode})")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, value in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed phase of each workload: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
