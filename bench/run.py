"""Benchmark runner for the gallai command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, one job at a time (a closed loop).  Each job is
``gallai.cli.main(argv)`` called in-process with stdout captured, so a pass
over a workload's job list pays no process start-up per job.  Passes repeat
until S seconds of passes have been measured.  Every output is checked
against an independent reference after its pass ends, outside the timing.

Set-up is one interpreter importing the CLI plus the generation of the
inputs.  It is repeated once before the first pass and once after each pass,
at least SETUP_REPEATS times, and setup_s is the median, so that it spans the
same stretch of time as the passes do.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported,
and job_p90_s and failed_frac are printed beside them: the first exists only
with ten samples above it and the second is zero on a correct run, so
neither can be a gated metric.  With ``--trace 1`` untraced and traced
passes alternate, at least two traced: the traced ones give the per-layer
metrics, and the difference in pass time is the tracing overhead.  On a
workload with count caches, one more traced pass then reads the caches the
last pass wrote (a warm pass) and must make no counts, hit on every read,
write nothing and print the same tables.  The last line of stdout is one
JSON object; the lines before it describe the machine, the samples and every
metric in words.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
# a percentile is reported only with this many samples above it
TAIL_SAMPLES = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_package():
    """Import the package from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "gallai" / "cli.py").is_file():
        raise SystemExit(f"error: no gallai package under {src}")
    sys.path.insert(0, str(src))
    from gallai import cli, containers, counting, extremal, graphs, templates
    return {"cli": cli, "containers": containers, "counting": counting,
            "extremal": extremal, "graphs": graphs, "templates": templates}


def set_up(name: str, seed: int, workloads, work_root: Path):
    """One set-up: the CLI's import time in a fresh interpreter (a process
    imports a module only once), then the inputs generated and written into
    a new directory.  Returns (seconds, workload, directory); the working
    directory is left unchanged."""
    code = ("import time; start = time.perf_counter(); import gallai.cli; "
            "print(time.perf_counter() - start)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    import_s = float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True, timeout=120).stdout)
    home = Path.cwd()
    where = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    os.chdir(where)
    try:
        start = perf_counter()
        wl = workloads.generate(name, seed)
        return import_s + perf_counter() - start, wl, where
    except BaseException:
        shutil.rmtree(where, ignore_errors=True)
        raise
    finally:
        os.chdir(home)


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu}


def execute(cli, argv) -> tuple[float, object, str]:
    """Run one CLI job; returns (seconds, exit code or exception text, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a traceback is a failed job, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    return seconds, code, out.getvalue()


@dataclass
class Pass:
    wall: float
    results: list[tuple[float, object, str]]
    bytes_written: int
    spans: list | None


def run_pass(wl, cli, tracer=None, warm: bool = False) -> Pass:
    """One pass over the job list; a cold pass first empties the caches."""
    caches = sorted({job.cache for job in wl.jobs if job.cache})
    if not warm:
        for cache in caches:
            Path(cache).write_text("")
    before = {c: Path(c).stat().st_size for c in caches}
    results = []
    if tracer:
        tracer.spans = []
        tracer.install()
    start = perf_counter()
    try:
        for idx, job in enumerate(wl.jobs):
            if tracer:
                tracer.job = idx
            results.append(execute(cli, job.argv))
    finally:
        wall = perf_counter() - start
        if tracer:
            tracer.uninstall()
    written = sum(Path(c).stat().st_size - before[c] for c in caches)
    return Pass(wall, results, written, tracer.spans if tracer else None)


class Checker:
    """Verdicts on job outputs, memoized on (job, exit code, stdout)."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.ref = reference
        self.keys = reference.ClassKeys()
        self.counts: dict = {}
        self._verdicts: dict = {}

    def problem(self, idx: int, code, stdout: str) -> str | None:
        key = (idx, code, stdout)
        if key not in self._verdicts:
            self._verdicts[key] = self._problem(self.wl.jobs[idx], code, stdout)
        return self._verdicts[key]

    def _problem(self, job, code, stdout: str) -> str | None:
        if code != 0:
            return f"exit {code}"
        try:
            out = json.loads(stdout)
        except ValueError:
            return "stdout is not one JSON object"
        if job.expect is not None:
            return None if out == job.expect else "output differs from the reference"
        n, r = job.spec["n"], job.spec["r"]
        problems = self.ref.extremal_mismatches(out, n, r, self.keys,
                                                self.counts.setdefault((n, r), {}))
        return "; ".join(problems[:3]) or None


def layer_metrics(wl, p: Pass, summarize) -> dict:
    s = summarize(p.spans)

    def get(name: str, key: str):
        return s[name][key] if name in s else 0

    def ratio(num, den):
        return num / den if den else 0

    checked = 0
    for job, (_, code, out) in zip(wl.jobs, p.results):
        if job.spec["kind"] == "verify-cover" and code == 0:
            # a malformed certificate is already a failed job; it adds nothing here
            with contextlib.suppress(ValueError, KeyError, TypeError):
                checked += json.loads(out)["coverage"]["checked"]
    cg = "counting.count_gallai"
    cgwp = "counting.count_gallai_with_palettes"
    searches = s[cgwp]["under"][cg] if cgwp in s else 0
    return {
        "cli.main.self_s": get("cli.main", "self_s"),
        "graphs.graph_from_name.s": get("graphs.graph_from_name", "s"),
        "graphs.all_graphs.s": get("graphs.all_graphs", "s"),
        "graphs.all_graphs.classes": get("graphs.all_graphs", "hits"),
        "graphs.canonical_form.calls": get("graphs.canonical_form", "calls"),
        "graphs.canonical_form.s": get("graphs.canonical_form", "s"),
        "graphs.canonical_graph.calls": get("graphs.canonical_graph", "calls"),
        "counting.count_gallai.calls": get(cg, "calls"),
        "counting.count_gallai.s": get(cg, "s"),
        "counting.count_gallai.self_s": get(cg, "self_s"),
        "counting.count_gallai_with_palettes.calls": get(cgwp, "calls"),
        "counting.count_gallai_with_palettes.s": get(cgwp, "s"),
        "counting.palette_searches_per_count": ratio(searches, get(cg, "calls")),
        "templates.template_from_text.s": get("templates.template_from_text", "s"),
        "templates.count_ga.calls": get("templates.count_ga", "calls"),
        "templates.count_ga.s": get("templates.count_ga", "s"),
        "templates.rt_count.calls": get("templates.rt_count", "calls"),
        "templates.rt_count.s": get("templates.rt_count", "s"),
        "templates.classify_triangles.s": get("templates.classify_triangles", "s"),
        "containers.verify_cover.calls": get("containers.verify_cover", "calls"),
        "containers.verify_cover.self_s": get("containers.verify_cover", "self_s"),
        "containers.coverage_checked": checked,
        "containers.coverage_checked_per_s": ratio(checked,
                                                   get("containers.verify_cover", "self_s")),
        "extremal.extremal_search.calls": get("extremal.extremal_search", "calls"),
        "extremal.extremal_search.self_s": get("extremal.extremal_search", "self_s"),
        "extremal.CountCache.get.calls": get("extremal.CountCache.get", "calls"),
        "extremal.CountCache.get.self_s": get("extremal.CountCache.get", "self_s"),
        "extremal.CountCache.put.calls": get("extremal.CountCache.put", "calls"),
        "extremal.CountCache.put.self_s": get("extremal.CountCache.put", "self_s"),
        "extremal.cache_hit_ratio": ratio(get("extremal.CountCache.get", "hits"),
                                          get("extremal.CountCache.get", "calls")),
        "extremal.cache_bytes_written": p.bytes_written,
    }


WARM = (("counting.count_gallai.calls", 0), ("extremal.cache_hit_ratio", 1),
        ("extremal.cache_bytes_written", 0))


def trace_invariants(per_pass: list[dict], timed_units: set, units: dict,
                     warm: dict | None) -> list[str]:
    """Call counts repeat exactly; cold passes never hit the cache, and the
    warm pass hits on every read, makes no counts and writes nothing."""
    broken = []
    for metric, unit in units.items():
        if unit not in timed_units and len({m[metric] for m in per_pass}) > 1:
            broken.append(f"{metric} differs between traced passes")
    if warm is not None:
        if per_pass[0]["extremal.cache_hit_ratio"] != 0:
            broken.append(f"extremal.cache_hit_ratio = "
                          f"{per_pass[0]['extremal.cache_hit_ratio']}, expected 0")
        broken += [f"warm pass: {metric} = {warm[metric]}, expected {want}"
                   for metric, want in WARM if warm[metric] != want]
    return broken


def tail_percentile(samples: list[float], pct: int) -> float | None:
    """The pct-th percentile, or None with fewer than TAIL_SAMPLES above it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=100)[pct - 1]
    return value if sum(x > value for x in samples) >= TAIL_SAMPLES else None


def measure(wl, cli, checker: Checker, seconds: float, tracer,
            between) -> tuple[list, list, list, Pass | None]:
    """Closed-loop passes until `seconds` of passes are measured, calling
    `between` after each.  With a tracer, untraced and traced passes
    alternate and at least two are traced, so call counts can be compared;
    a workload with caches then gets the warm pass.  Outputs are checked
    between passes."""
    passes: list[Pass] = []
    traced: list[Pass] = []
    failures: list[str] = []

    def check(p: Pass, what: str) -> None:
        for idx, (_, code, out) in enumerate(p.results):
            bad = checker.problem(idx, code, out)
            if bad:
                failures.append(f"{what}{' '.join(wl.jobs[idx].argv)}: {bad}")

    measured = 0.0
    while measured < seconds or (tracer and len(traced) < 2):
        use = tracer if tracer and (len(passes) > len(traced) or measured >= seconds) else None
        p = run_pass(wl, cli, use)
        measured += p.wall
        (traced if use else passes).append(p)
        check(p, "")
        between()
    warm = None
    if tracer and any(job.cache for job in wl.jobs):
        warm = run_pass(wl, cli, tracer, warm=True)
        check(warm, "warm pass: ")
        failures += [f"warm pass: {' '.join(job.argv)}: output differs from the cold pass"
                     for job, a, b in zip(wl.jobs, warm.results, p.results) if a[2] != b[2]]
    return passes, traced, failures, warm


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modules = load_package()
    import reference
    import spans
    import workloads
    if args.workload not in workloads.NAMES:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    cli = modules["cli"]
    layers = json.loads((BENCH / "layers.json").read_text())

    home = Path.cwd()
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    setups: list[float] = []

    def another_set_up():
        seconds, again, where = set_up(args.workload, args.seed, workloads, work_root)
        shutil.rmtree(where, ignore_errors=True)
        if again.digest() != wl.digest():
            raise SystemExit("error: the same seed gave two different job lists")
        setups.append(seconds)

    where = None
    try:
        seconds, wl, where = set_up(args.workload, args.seed, workloads, work_root)
        setups.append(seconds)
        os.chdir(where)

        start = perf_counter()
        checker = Checker(wl, reference)
        workloads.attach_references(wl)
        reference_s = perf_counter() - start

        tracer = spans.Tracer(modules) if args.trace else None
        passes, traced, failures, warm = measure(wl, cli, checker, args.seconds, tracer,
                                                 another_set_up)
        while len(setups) < SETUP_REPEATS:
            another_set_up()
    finally:
        os.chdir(home)
        if where:
            shutil.rmtree(where, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    setup_s = statistics.median(setups)
    problems: list[str] = []

    attempted = sum(len(p.results) for p in passes + traced + ([warm] if warm else []))
    failed = len(failures)
    latencies = [sec for p in passes for sec, _, _ in p.results]
    wall_s = statistics.median(p.wall for p in passes)

    print("env " + json.dumps({**environment(), "workload": wl.name, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "jobs": len(wl.jobs), "jobs_digest": wl.digest()}))
    print(f"set-up: {len(setups)} times, import and input generation "
          f"{[round(t, 4) for t in setups]} s; references {reference_s:.3f} s (untimed)")
    print(f"passes: {len(passes)} untraced {[round(p.wall, 4) for p in passes]} s, "
          f"{len(traced)} traced {[round(p.wall, 4) for p in traced]} s; "
          f"{len(wl.jobs)} jobs per pass; {attempted} jobs attempted, {failed} failed")

    if not args.trace:
        wanted = spec["end_to_end"]
        values = {"wall_s": wall_s,
                  "job_p50_s": statistics.median(latencies),
                  "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        notes = {"wall_s": f"median of {len(passes)} passes",
                 "job_p50_s": f"median of {len(latencies)} job samples",
                 "setup_s": f"median of {len(setups)} set-ups",
                 "peak_rss_mb": "whole process"}
        p90 = tail_percentile(latencies, 90)
        print("also job_p90_s = " + (f"{p90} s" if p90 is not None else "n/a") +
              f" ({len(latencies)} job samples; reported with >= {TAIL_SAMPLES} above it)")
        print(f"also failed_frac = {failed / attempted} ratio ({failed} of {attempted} jobs)")
    else:
        wanted = spec["per_layer"]
        units = {m["name"]: m["unit"] for m in wanted}
        timed_units = {"s", "1/s"}
        per_pass = [layer_metrics(wl, p, spans.summarize) for p in traced]
        values = {name: (statistics.median(m[name] for m in per_pass)
                         if units[name] in timed_units else per_pass[0][name])
                  for name in units}
        notes = {name: f"median of {len(traced)} traced passes" if units[name] in timed_units
                 else "per pass, equal in every traced pass" for name in units}
        for layer in layers["layers"]:
            print(f"layer {layer['layer']}: {', '.join(layer['metrics'])} should move "
                  f"{', '.join(layer['moves'])} on {layer['on']}")
        for ratio, base in layers["ratios"].items():
            print(f"ratio {ratio}: {base}")
        warm_metrics = layer_metrics(wl, warm, spans.summarize) if warm else None
        if warm_metrics:
            print(f"warm pass: {warm.wall} s; " + ", ".join(
                f"{metric} = {warm_metrics[metric]}" for metric, _ in WARM) +
                f", graphs.canonical_form.s = {warm_metrics['graphs.canonical_form.s']}")
        problems += [f"trace invariant: {msg}"
                     for msg in trace_invariants(per_pass, timed_units, units, warm_metrics)]
        traced_wall = statistics.median(p.wall for p in traced)
        print(f"trace overhead: {traced_wall - wall_s} s per pass (traced wall_s "
              f"{traced_wall} s over {len(traced)} passes minus untraced {wall_s} s "
              f"over {len(passes)})")
    for msg in (failures + problems)[:10]:
        print(f"FAILED {msg}")

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]} {m['unit']} ({notes[m['name']]})")
    print(json.dumps({"correct": not failures and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
