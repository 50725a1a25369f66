"""mimlab benchmark runner.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  The metric names and units come from ``BENCHMARK.json``
next to ``src/``.  Each workload runs in this one process: a single caller,
a closed loop, one operation at a time.

``--trace 0`` sets up several times (here and in fresh child processes,
so that imports are paid each time) and then repeats whole passes over the
workload's fixed operation list until ``--seconds`` have passed, at least
once.  It prints every end-to-end metric.

``--trace 1`` sets up once under the tracer, runs one untraced pass and
then two traced passes, checks that every deterministic count repeats
exactly, and prints every per-layer metric.

Every operation's output is checked; a failed check counts as a failed
operation.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (run environment, sample counts, every traced function) is written
to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SPEC = CHECKOUT / "BENCHMARK.json"

# Set-ups per --trace 0 run, each paying for its imports: this process's
# own, then fresh child processes for SETUP_SECONDS / 2 before the passes
# and again after them, at least one each time.  Host speed runs in
# phases of a few seconds; sampling on both sides of the passes keeps one
# phase from setting the median.
SETUP_SECONDS = 6.0
CHILD_TIMEOUT_S = 120
# Host probe: every PROBE_INTERVAL_S, enumerate the independent sets of an
# 11-vertex circulant graph (about 0.15 ms, so 0.15 % of the run);
# PROBE_REF_US is its median time at the reference host speed.
PROBE_N = 11
PROBE_ADJ = [
    1 << (v + 1) % PROBE_N | 1 << (v - 1) % PROBE_N | 1 << (v + 4) % PROBE_N
    for v in range(PROBE_N)
]
PROBE_INTERVAL_S = 0.1
PROBE_REF_US = 120.0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def set_up(name: str, seed: int, smoke: bool):
    """Import the library and build the workload; return (seconds, workload)."""
    t0 = time.perf_counter()
    mods = workloads.import_library(SRC)
    wl = workloads.make_workload(name, mods, seed, smoke, OUT)
    return time.perf_counter() - t0, wl


def child_set_ups(args) -> list[float]:
    """Set-ups in fresh child processes, one at a time, until
    SETUP_SECONDS / 2 have passed (at least one)."""
    out = []
    t0 = time.perf_counter()
    while not out or time.perf_counter() - t0 < SETUP_SECONDS / 2:
        out.append(child_set_up(args))
    return out


def child_set_up(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S, cwd=CHECKOUT)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def load_reference(name: str, seed: int) -> workloads.Reference:
    ref = json.loads(REFERENCE.read_text())[name]
    return workloads.Reference(ref["any_seed"], ref.get(f"seed{seed}"))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str | None:
    """HEAD of the checkout's .git, read as files; None outside a clone."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_record(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
    }


class HostProbe:
    """Samples host speed while passes run, without a thread.

    Host speed drifts on shared machines: on the 2-core Xeon VM this
    benchmark was written on, the same pass varied by up to 20 % either
    side of its median within minutes, with CPU time equal to wall time.
    Every PROBE_INTERVAL_S a SIGALRM handler times a fixed kernel in this
    process; the mean kernel time of a pass divided by PROBE_REF_US says
    how slow the host ran, and ``*_ref_*`` metrics are raw times divided
    by that factor: seconds at the reference host speed (``setup_s`` too,
    by the factor of the passes after it).  The mean drops
    the slowest and fastest tenth of the samples: a kernel run that the
    host deschedules reads tens of times too slow.

    The kernel is frozen benchmark code shaped like the library's hot
    loops (bitmask recursion over independent sets, neighbourhoods into a
    set), so library changes do not move it.  It tracked pass times better
    than a plain arithmetic loop, which misses part of the drift.
    """

    def __init__(self):
        self.samples_us: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        seen = set()

        def rec(start: int, banned: int, nb: int) -> None:
            seen.add(nb)
            for v in range(start, PROBE_N):
                if not banned >> v & 1:
                    rec(v + 1, banned | 1 << v | PROBE_ADJ[v], nb | PROBE_ADJ[v])

        rec(0, 0, 0)
        self.samples_us.append((time.perf_counter() - t0) * 1e6)

    def __enter__(self):
        self._sample(None, None)  # short passes get a sample on each side
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample(None, None)

    def slowdown(self) -> float:
        """Host slowdown against the reference speed (1.0 = reference)."""
        samples = sorted(self.samples_us)
        cut = len(samples) // 10
        return statistics.fmean(samples[cut:len(samples) - cut]) / PROBE_REF_US


# Units of the metrics in the report line; BENCHMARK.json bounds a subset.
REPORT_UNITS = {
    "wall_s": "s",
    "wall_ref_s": "s",
    "setup_s": "s",
    "setup_raw_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "op_p50_ms": "ms",
    "op_p50_ref_ms": "ms",
    "op_p99_ms": "ms",
}


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics.
# ---------------------------------------------------------------------------


def measure(args, spec) -> tuple[dict, dict]:
    setup_s, wl = set_up(args.workload, args.seed, args.smoke)
    setups = [setup_s] + child_set_ups(args)
    reference = load_reference(args.workload, args.seed)
    walls, ref_walls, latencies, ref_latencies = [], [], [], []
    attempted = failed = 0
    slowdowns = []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < args.seconds:
        with HostProbe() as probe:
            t0 = time.perf_counter()
            res = wl.run_pass(reference, log)
            wall = time.perf_counter() - t0
        slow = probe.slowdown()
        slowdowns.append((slow, len(probe.samples_us)))
        walls.append(wall)
        ref_walls.append(wall / slow)
        latencies += res.latencies_ms
        ref_latencies += [x / slow for x in res.latencies_ms]
        attempted += res.attempted
        failed += res.failed
        observed = res.observed
    setups += child_set_ups(args)
    # Set-ups are too short to probe during; the passes' slowdown follows
    # the drift over minutes that moves set-up medians between runs.
    run_slowdown = statistics.median(slow for slow, _ in slowdowns)
    values = {
        "wall_s": (statistics.median(walls), len(walls)),
        "wall_ref_s": (statistics.median(ref_walls), len(ref_walls)),
        "op_p50_ref_ms": (statistics.median(ref_latencies), len(ref_latencies)),
        "setup_s": (statistics.median(setups) / run_slowdown, len(setups)),
        "setup_raw_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "failed_frac": (failed / attempted, attempted),
        "op_p50_ms": (statistics.median(latencies), len(latencies)),
    }
    # A tail is reported only where a pass has enough operations for ten
    # samples beyond p99; the other workloads have under 100.
    if wl.reports_tail:
        p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
        values["op_p99_ms"] = (p99, len(latencies))
    report = {
        name: {"value": v, "unit": REPORT_UNITS[name], "samples": n}
        for name, (v, n) in values.items()
    }
    report["host_slowdown"] = [
        {"value": v, "samples": n} for v, n in slowdowns]
    report["pass_walls_s"] = walls
    report["setup_samples_s"] = setups
    report["observed"] = observed
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics.
# ---------------------------------------------------------------------------


def _stat(phases: list, fn: str, stat: str) -> float:
    """One per-layer statistic: times are the mean over ``phases``; counts
    repeat exactly across phases (checked separately), so the first is
    taken."""
    vals = []
    for ph in phases:
        st = ph.stats.get(fn) or tracing.FnStats(fn)
        if stat == "self_s":
            vals.append(st.self_s)
        elif stat == "calls":
            vals.append(st.calls)
        elif stat == "errors":
            vals.append(st.errors)
        elif stat == "sets_enumerated":
            vals.append(st.counts.get("yielded.independent_set_masks", 0))
        elif stat == "distinct_ratio":
            sets = st.counts.get("yielded.independent_set_masks", 0)
            vals.append(st.counts.get("traces_returned", 0) / sets if sets else 0.0)
        elif stat in ("level_states", "steps"):
            vals.append(st.counts.get(stat, 0))
        else:
            raise KeyError(f"unknown per-layer statistic {stat!r}")
    return statistics.fmean(vals) if stat == "self_s" else vals[0]


def per_layer_value(name: str, setup, passes, untraced_wall: float,
                    known: set[str]) -> float:
    walls = statistics.fmean(p.wall_s for p in passes)
    if name == "trace.overhead_s":
        return walls - untraced_wall
    if name == "trace.wall_s":
        return walls
    if name == "bench.self_s":
        return statistics.fmean(p.bench.self_s for p in passes)
    if name == "trace.setup_s":
        return setup.wall_s
    fn, _, stat = name.rpartition(".")
    if fn not in known:
        raise KeyError(f"{fn!r} is not a traced function")
    if stat == "setup_self_s":
        return _stat([setup], fn, "self_s")
    return _stat(passes, fn, stat)


def traced(args, spec) -> tuple[dict, dict]:
    mods = workloads.import_library(SRC)
    tr = tracing.Tracer({k: mods[k] for k in workloads.LAYERS})
    known = set(tr.function_names())
    setup, wl = tr.run("setup", lambda: workloads.make_workload(
        args.workload, mods, args.seed, args.smoke, OUT))
    reference = load_reference(args.workload, args.seed)
    with HostProbe() as probe:
        t0 = time.perf_counter()
        results = [wl.run_pass(reference, log)]
        untraced_wall = time.perf_counter() - t0
    slowdowns = [probe.slowdown()]
    passes = []
    for label in ("pass-a", "pass-b"):
        with HostProbe() as probe:
            phase, res = tr.run(label, lambda: wl.run_pass(reference, log))
        slowdowns.append(probe.slowdown())
        passes.append(phase)
        results.append(res)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = []
    a, b = (p.deterministic_counts() for p in passes)
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            problems.append(f"count {key} differs: {a.get(key)} vs {b.get(key)}")
    for phase in [setup] + passes:
        gap = phase.attributed_s() - phase.wall_s
        if abs(gap) > 1e-6 * max(1.0, phase.wall_s):
            problems.append(f"{phase.label}: self times miss the wall by {gap} s")
    for p in problems:
        log(p)
    metrics = {
        m["name"]: {"value": per_layer_value(m["name"], setup, passes,
                                             untraced_wall, known),
                    "unit": m["unit"]}
        for m in spec["per_layer"]
    }
    report = {
        "untraced_wall_s": untraced_wall,
        "traced_walls_s": [p.wall_s for p in passes],
        "host_slowdown": slowdowns,
        "traced_setup_s": setup.wall_s,
        "problems": problems,
        "functions": {
            ph.label: {
                name: {"calls": st.calls, "errors": st.errors,
                       "self_s": st.self_s, "items": st.items, **st.counts}
                for name, st in sorted(ph.stats.items())
            } | {"bench": {"self_s": ph.bench.self_s}}
            for ph in [setup] + passes
        },
    }
    stem = f"spans-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    with open(OUT / f"{stem}.csv", "w", encoding="utf-8") as fh:
        fh.write("phase,span,parent,name,start_s,end_s\n")
        for phase in [setup, passes[0]]:
            for sid, parent, name, start, end in phase.spans():
                fh.write(f"{phase.label},{sid},{parent},{name},{start:.9f},{end:.9f}\n")
    failed += len(problems)
    result = {"correct": failed == 0, "attempted": attempted + len(problems),
              "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="cut-down instance lists that run in a few seconds")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        seconds, _ = set_up(args.workload, args.seed, args.smoke)
        print(json.dumps({"setup_s": seconds}))
        return 0

    spec = json.loads(SPEC.read_text())
    OUT.mkdir(exist_ok=True)
    result, report = (traced if args.trace else measure)(args, spec)
    record = {"record": run_record(args), "report": report, "result": result}
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-smoke' if args.smoke else ''}")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"record": record["record"], "report": {
        k: v for k, v in report.items() if k not in ("functions", "observed")}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ImportError, KeyError, ValueError,
            subprocess.SubprocessError) as exc:
        log(f"benchmark cannot run: {type(exc).__name__}: {exc}")
        sys.exit(2)
