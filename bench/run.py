"""sqdenom benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload families|sweep|paper --seed N --seconds S --trace 0|1
    python3 bench/run.py --check

Run from a checkout of the repository; the program is imported from its
src/ directory, so nothing needs installing.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics of a
separate traced run with --trace 1.  A fuller record of the run goes to
.bench_out/BENCH_<workload>_seed<N>_trace<T>.json.

--check makes one verified pass of each workload plus its traced pass and
fails on any wrong output or any change in the traced counts recorded in
expected.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Set-up samples are spread evenly over the measured window, between passes,
# so their median follows the machine's speed over the whole run rather
# than over the second before it.
SETUP_SAMPLES = 25

# A fresh interpreter reports CLOCK_MONOTONIC before and after the import;
# that clock is shared by all processes, so the parent can subtract its own
# spawn time from the second reading.
IMPORT_PROBE = (
    "import time; t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC); import sqdenom.cli; "
    "print(t0, time.clock_gettime_ns(time.CLOCK_MONOTONIC))"
)

# Metric names and units come from the benchmark's spec, so the two cannot drift.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def _import_program():
    if not (SRC / "sqdenom" / "__init__.py").is_file():
        raise BenchError(f"no sqdenom sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sqdenom

    if Path(sqdenom.__file__).resolve().parent != (SRC / "sqdenom").resolve():
        raise BenchError(f"sqdenom imported from {sqdenom.__file__}, not {SRC}")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sqdenom").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup_sample(env) -> tuple[float, float]:
    """(setup s, import ms) of one fresh interpreter importing sqdenom.cli."""
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    done = subprocess.run([env.python, "-c", IMPORT_PROBE], env=env.child_env,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise BenchError(f"cannot import sqdenom.cli: {done.stderr.strip()[-300:]}")
    c0, c1 = map(int, done.stdout.split())
    return (c1 - t0) / 1e9, (c1 - c0) / 1e6


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(passes, setup) -> dict[str, float]:
    # Each request's median over the passes first: single samples of a
    # 10-50 us query jitter by tens of percent with what ran just before.
    latencies = [statistics.median(p.latencies_ms[label] for p in passes)
                 for label in passes[0].latencies_ms]
    attempted = sum(p.attempted for p in passes)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "request_p50_ms": percentile(latencies, 50),
        "request_p90_ms": percentile(latencies, 90),
        "items_per_s": statistics.median(p.items / p.wall_s for p in passes),
        "in_budget_frac": sum(p.ok for p in passes) / attempted,
    }


def exact_counts(tracer) -> dict[str, int]:
    """The traced counts that must repeat exactly from run to run."""
    counts = {f"{name}.calls": int(s["calls"]) for name, s in tracer.layer_stats().items()}
    counts.update(tracer.counts)
    counts["figures.heatmap_data.distinct"] = len(tracer.heatmap_args)
    return dict(sorted(counts.items()))


def per_layer(tracer, traced, reference, e2e, jobs, imports) -> dict[str, float]:
    """Every per-layer metric of the spec, from the traced pass and the untraced ones.

    `<span>.calls` and `<span>.self_ms` come from the spans (or, for the
    counted leaf helpers, the counters); other names are derived below.
    """
    stats = tracer.layer_stats()
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    def calls(span):
        return stats[span]["calls"] if span in stats else counts.get(f"{span}.calls", 0)

    derived = {
        "confrac.sqrt_cf.terms": counts.get("confrac.sqrt_cf.terms", 0),
        "sigmacore.sigma.calls_per_row": ratio(
            calls("sigmacore.sigma"), counts.get("analysis.sweep.rows", 0)),
        "sigmacore.tau.hit_frac": ratio(
            counts.get("sigmacore.tau.hits", 0), calls("sigmacore.tau")),
        "figures.heatmap_data.useful_frac": ratio(
            len(tracer.heatmap_args), calls("figures.heatmap_data")),
        "analysis.sweep.pool_util": e2e["cpu_s"] / (e2e["wall_s"] * jobs),
        "cli.process_start_ms": statistics.median(imports),
        "trace.overhead_frac": traced.wall_s / reference.wall_s - 1,
    }
    out = {}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        span, stat = name.rsplit(".", 1)
        if name in derived:
            out[name] = derived[name]
        elif stat == "calls":
            out[name] = calls(span)
        elif stat == "self_ms":
            out[name] = stats.get(span, {}).get("self_ms", 0.0)
        else:
            raise BenchError(f"no rule computes the per-layer metric {name}")
    return out


def _refuse_oversubscription(cls) -> None:
    if cls.jobs > nproc():
        raise BenchError(f"{cls.name} runs {cls.jobs} processes at once; nproc is {nproc()}")


def run_workload(args, env) -> int:
    import spans
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    _refuse_oversubscription(cls)
    setup_sample(env)  # unmeasured, so compiled bytecode is in place
    work = cls(env, args.seed)
    try:
        work.run_pass()  # warm-up, unmeasured: lazy set-up and OS caches
        passes, setup, imports = [], [], []
        start = time.perf_counter()
        deadline = start + args.seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(work.run_pass())
            due = start + len(setup) * args.seconds / SETUP_SAMPLES
            if len(setup) < SETUP_SAMPLES and time.perf_counter() >= due:
                seconds, import_ms = setup_sample(env)
                setup.append(seconds)
                imports.append(import_ms)
        while len(setup) < SETUP_SAMPLES:
            seconds, import_ms = setup_sample(env)
            setup.append(seconds)
            imports.append(import_ms)
        e2e = end_to_end(passes, setup)
        checked = list(passes)
        if args.trace:
            reference = work.inprocess_pass()
            with spans.Tracer() as tracer:
                traced = work.inprocess_pass(tracer)
            checked += [reference, traced]
            group, values = "per_layer", per_layer(tracer, traced, reference, e2e, cls.jobs, imports)
        else:
            group, values = "end_to_end", e2e
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[group]}
    finally:
        work.close()

    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    record = {
        "workload": cls.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "jobs": cls.jobs,
        "passes": len(passes),
        "per_pass": {
            "attempted": passes[0].attempted,
            "correct_items": [p.items for p in passes],
            "over_budget": sorted(passes[0].over_budget),
        },
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_s": setup,
        "metrics": metrics,
        "problems": sorted({msg for p in checked for msg in p.problems}),
    }
    if args.trace:
        record["traced_counts"] = exact_counts(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"BENCH_{cls.name}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for msg in record["problems"][:20]:
        print(f"problem: {msg}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def self_check(env) -> int:
    """One verified pass and one traced pass per workload, at seed 0."""
    import spans
    from workloads import EXPECTED, WORKLOADS

    ok = True
    for name, cls in WORKLOADS.items():
        _refuse_oversubscription(cls)
        work = cls(env, 0)
        try:
            plain = work.run_pass()
            with spans.Tracer() as tracer:
                traced = work.inprocess_pass(tracer)
        finally:
            work.close()
        problems = plain.problems + traced.problems
        want = EXPECTED[name]
        if "over_budget" in want and sorted(plain.over_budget) != want["over_budget"]:
            problems.append(f"over-budget set changed: {sorted(plain.over_budget)}")
        counts = exact_counts(tracer)
        if counts != want["traced_counts"]:
            changed = {k: (want["traced_counts"].get(k), counts.get(k))
                       for k in sorted(set(counts) | set(want["traced_counts"]))
                       if want["traced_counts"].get(k) != counts.get(k)}
            problems.append(f"traced counts changed (expected, got): {changed}")
        status = "ok" if not problems else "FAIL"
        print(f"{name}: {status} ({plain.wall_s:.3f} s plain, {traced.wall_s:.3f} s traced)")
        for msg in problems:
            print(f"  {msg}")
        ok = ok and not problems
    print(json.dumps({"check": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["families", "sweep", "paper"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check", action="store_true", help="quick self-check of all workloads")
    args = parser.parse_args(argv)
    if not args.check and args.workload is None:
        parser.error("--workload is required unless --check is given")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        _import_program()
        from workloads import Env

        work_dir = OUT_DIR / f"work-{os.getpid()}"
        work_dir.mkdir(parents=True, exist_ok=True)
        try:
            env = Env(ROOT, work_dir)
            return self_check(env) if args.check else run_workload(args, env)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
