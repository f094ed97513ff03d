"""Benchmark of the biperiodic engine: three seeded, closed-loop workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog-sweep|deep-term|cli-table \
        --seed N --seconds S --trace 0|1

``--trace 0`` sets the workload up, then makes whole passes over its
requests while the next pass fits in S seconds (at least two), checks
every result outside the timed region, and prints the end-to-end metrics.
A request's time is its CPU seconds, calibrated: divided by the CPU time
of a fixed reference task run next to it (see ``reference.py``), so that
the machine's slow phases cancel, and the median of its passes.
``--trace 1`` ignores S: it makes one pass untraced and two with layer
tracing, checks that all three give the same outputs and the
two traced passes the same counts, and prints the per-layer metrics of the
first traced pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary. The program is imported from ``src/`` of the checkout;
without it the benchmark exits 1 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import reference

SETUP_START = reference.clock()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Span files of traced runs (ignored by git).
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: Set-ups per run, this process's and fresh ones; setup_s is their median.
SETUP_SAMPLES = 9
#: Reference runs that calibrate one set-up.
SETUP_REF_RUNS = 5
#: Problems printed per run; the rest are only counted.
MAX_PROBLEMS_SHOWN = 5
#: Requests on each side of a request whose reference runs calibrate its time.
REF_WINDOW = 1
#: Share of a request's seconds spent right after it on runs of the reference task.
REF_SHARE = 0.05


def import_program() -> None:
    """Import biperiodic from this checkout's src/, never from anywhere else."""
    package = os.path.join(SRC, "biperiodic")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"perfbench: no program at {package}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import biperiodic

    if os.path.dirname(os.path.abspath(biperiodic.__file__)) != package:
        sys.exit(f"perfbench: biperiodic was imported from {biperiodic.__file__}, not {package}")


def set_up(name: str, seed: int, tiny: bool):
    """Import, generate the inputs and warm up: everything before the first timed request."""
    import_program()
    import workloads  # imports biperiodic, so only once src/ is on the path

    workload = workloads.WORKLOADS[name](seed, tiny)
    workload.warm_up()
    return workload


def calibrated(setup_s: float) -> float:
    """``setup_s`` in calibrated seconds, against the reference task run right after it.

    Set-up is import and small-operand work, so ``reference.SMALL`` calibrates it.
    """
    refs = [reference.SMALL.seconds() for _ in range(SETUP_REF_RUNS)]
    return setup_s * reference.SMALL.quiet_seconds / statistics.median(refs)


def setup_child(args) -> float:
    """Calibrated set-up seconds of a fresh process doing this run's set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def reference_runs(task: reference.Task, budget: float) -> list[float]:
    """Seconds of runs of ``task``: at least one, and more until ``budget`` seconds have passed."""
    runs = [task.seconds()]
    while sum(runs) < budget:
        runs.append(task.seconds())
    return runs


def execute(workload, request, tracer=None):
    """Run one request, then check it untimed. Returns (result, seconds per part, problems)."""
    try:
        if tracer is not None:
            tracer.on = True
        try:
            result, times = workload.run(request)
        finally:
            if tracer is not None:
                tracer.on = False
        problems = workload.check(request, result)
    except Exception:  # the loop must go on: a request that raises is counted as failed
        return None, {}, [traceback.format_exc()]
    return result, times, problems


class Tally:
    """Requests attempted and failed, with the first few problems kept for stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: MAX_PROBLEMS_SHOWN - len(self.problems)])


#: Percentiles on each side of q that quantile() averages over.
QUANTILE_BAND = 5


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile of ``values``, as the mean of the percentiles q +- QUANTILE_BAND.

    One order statistic carries the noise of one request; the band spreads
    it over about a tenth of the requests.
    """
    if len(values) == 1:
        return values[0]
    percentiles = statistics.quantiles(values, n=100, method="inclusive")
    centre = round(q * 100)
    return statistics.fmean(percentiles[centre - QUANTILE_BAND - 1: centre + QUANTILE_BAND])


def measure(workload, seconds: float, tally: Tally, between_passes):
    """Whole passes over the requests while the next one fits in ``seconds``; at least two.

    After every request, the garbage is collected, untimed, and the
    workload's reference task runs for ``REF_SHARE`` of the request's
    seconds and at least once. A request's seconds are scaled by the task's
    quiet seconds over the median of its runs after the
    ``2 * REF_WINDOW + 1`` requests around it in the same pass, so that a
    phase in which the machine runs slower cancels out. Returns the number
    of passes, the CPU seconds of each pass, and per request the median
    over passes of each timed part in calibrated seconds.
    ``between_passes(elapsed)`` is called, untimed, after every pass.
    """
    calibrated: list[dict[str, list[float]]] = [{} for _ in workload.requests]
    gc.collect()
    start = perf_counter()
    pass_cpu = []
    while True:
        times, refs = [], []
        for request in workload.requests:
            _, t, problems = execute(workload, request)
            tally.add(problems)
            times.append(t)
            # Every request, and the reference, starts with no garbage left
            # over, so the collector's work does not depend on request order.
            gc.collect()
            refs.append(reference_runs(workload.reference, REF_SHARE * sum(t.values())))
        pass_cpu.append(sum(sum(t.values()) for t in times))
        for k, (t, samples) in enumerate(zip(times, calibrated)):
            near = [r for runs in refs[max(0, k - REF_WINDOW): k + REF_WINDOW + 1] for r in runs]
            scale = workload.reference.quiet_seconds / statistics.median(near)
            for part, s in t.items():
                samples.setdefault(part, []).append(s * scale)
        between_passes(perf_counter() - start)
        elapsed = perf_counter() - start
        passes = len(pass_cpu)
        if passes >= 2 and elapsed * (passes + 1) / passes > seconds:
            medians = [{part: statistics.median(v) for part, v in c.items()} for c in calibrated]
            return passes, pass_cpu, [m for m in medians if m]


def end_to_end(args, workload, setup_s: float, tally: Tally) -> dict[str, tuple[float, str]]:
    # Set-up samples are spread over the run, so that they do not all share
    # one moment of the machine's load.
    setup = [setup_s]

    def sample_setup(elapsed: float) -> None:
        if len(setup) < SETUP_SAMPLES and elapsed >= (len(setup) - 1) * args.seconds / (SETUP_SAMPLES - 1):
            setup.append(setup_child(args))

    sample_setup(0.0)
    passes, pass_cpu, parts = measure(workload, args.seconds, tally, sample_setup)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_child(args))
    latencies = [sum(p.values()) for p in parts]
    print(f"# {passes} passes over {len(workload.requests)} requests; "
          f"CPU seconds per pass {[round(s, 3) for s in pass_cpu]}; "
          f"set-up samples {[round(s, 4) for s in setup]}")
    for part in sorted({k for p in parts for k in p}):
        values = [p[part] for p in parts]
        print(f"# part {part}: p50 {quantile(values, 0.5):.6f} s, "
              f"p90 {quantile(values, 0.9):.6f} s (calibrated) over {len(values)} requests")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "sweep_cal_s": (sum(latencies), "s"),
        "request_cal_s.p50": (quantile(latencies, 0.5), "s"),
        "request_cal_s.p90": (quantile(latencies, 0.9), "s"),
    }


def run_pass(workload, requests, tally: Tally, tracer=None):
    """One pass over ``requests``: total request seconds and a digest of all outputs."""
    total = 0.0
    digest = hashlib.sha256()
    for k, request in enumerate(requests):
        if tracer is not None:
            tracer.request = k
        result, times, problems = execute(workload, request, tracer)
        tally.add(problems)
        total += sum(times.values())
        if result is not None:
            digest.update(workload.digest(result))
    return total, digest.hexdigest()


def _unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "bits" if name == "exact.result_bits.max" else "count"


def layer_metrics(layers, counters, overhead_s: float, format_failed: int):
    """The per-layer metrics, by name, from one traced pass."""
    from biperiodic.identities import IdentityId

    calls = {name: layer[0] for name, layer in layers.items()}
    total = {name: layer[1] for name, layer in layers.items()}
    self_s = {name: layer[2] for name, layer in layers.items()}
    c = counters
    values = {}
    for ident in IdentityId:
        values[f"identities.{ident.value}.s"] = total.get(f"identities.{ident.value}", 0.0)
        values[f"identities.{ident.value}.checks"] = c[f"identities.{ident.value}.checks"]
    values["identities.termtable.calls"] = calls.get("identities.termtable", 0)
    values["identities.termtable.self_s"] = self_s.get("identities.termtable", 0.0)
    values["genmatrix.mat_products"] = c["genmatrix.mat_products"]
    for fn in ("matrix_power", "term_fast"):
        values[f"genmatrix.{fn}.calls"] = calls.get(f"genmatrix.{fn}", 0)
        values[f"genmatrix.{fn}.self_s"] = self_s.get(f"genmatrix.{fn}", 0.0)
    for fn in ("power_closed_form", "det_power"):
        values[f"genmatrix.{fn}.self_s"] = self_s.get(f"genmatrix.{fn}", 0.0)
    for fn in ("binet_fib", "binet_lucas"):
        values[f"binet.{fn}.calls"] = calls.get(f"binet.{fn}", 0)
        values[f"binet.{fn}.self_s"] = self_s.get(f"binet.{fn}", 0.0)
    values["exact.quadext_mul.count"] = c["exact.quadext_mul.count"]
    values["exact.mat2_mul.count"] = c["exact.mat2_mul.count"]
    values["exact.result_bits.max"] = c["exact.result_bits.max"]
    values["exact.format_rational.calls"] = calls.get("exact.format_rational", 0)
    values["exact.format_rational.self_s"] = self_s.get("exact.format_rational", 0.0)
    values["exact.format_rational.failed"] = c["exact.format_rational.failed"] + format_failed
    values["sequences.term_recurrence.calls"] = calls.get("sequences.term_recurrence", 0)
    values["sequences.term_recurrence.self_s"] = self_s.get("sequences.term_recurrence", 0.0)
    values["sequences.recurrence_steps"] = c["sequences.recurrence_steps"]
    values["cli.main.s"] = total.get("cli.main", 0.0)
    values["cli.emit.self_s"] = self_s.get("cli.emit", 0.0)
    values["trace.overhead_s"] = overhead_s
    return {name: (value, _unit(name)) for name, value in values.items()}


def per_layer(args, workload, tally: Tally) -> tuple[dict[str, tuple[float, str]], bool]:
    import layertrace  # imports biperiodic, so only once src/ is on the path

    requests = workload.requests
    base_s, base_digest = run_pass(workload, requests, tally)
    tracer = layertrace.Tracer()
    tracer.install()
    runs = []
    try:
        for _ in range(2):
            tracer.reset()
            seconds, digest = run_pass(workload, requests, tally, tracer)
            runs.append((seconds, digest, tracer.layers, tracer.counters, tracer.spans))
    finally:
        tracer.uninstall()
    (s1, d1, layers1, counters1, spans1), (_, d2, layers2, counters2, _) = runs
    ok = True
    if not base_digest == d1 == d2:
        tally.problems.append("traced outputs differ from the untraced pass")
        ok = False
    calls1 = {k: v[0] for k, v in layers1.items()}
    calls2 = {k: v[0] for k, v in layers2.items()}
    if calls1 != calls2 or dict(counters1) != dict(counters2):
        tally.problems.append("counts differ between the two traced passes")
        ok = False
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    layertrace.write_spans(spans1, path)
    print(f"# {len(requests)} requests run untraced, then twice traced; "
          f"{len(spans1)} spans of the first traced pass written to {path}")
    return layer_metrics(layers1, counters1, s1 - base_s, len(workload.refused)), ok


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog-sweep", "deep-term", "cli-table"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    workload = set_up(args.workload, args.seed, args.tiny)
    setup_s = calibrated(reference.clock() - SETUP_START)
    if args.setup_only:
        print(repr(setup_s))
        return
    print(f"# perfbench {args.workload} seed {args.seed}: python {sys.version.split()[0]}, "
          f"nproc {os.cpu_count()}, "
          f"int max str digits {getattr(sys, 'get_int_max_str_digits', lambda: None)()}")
    tally = Tally()
    if args.trace:
        metrics, correct = per_layer(args, workload, tally)
    else:
        metrics, correct = end_to_end(args, workload, setup_s, tally), True
    correct = correct and tally.failed == 0
    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"# fail_ratio {tally.failed / tally.attempted:g} ({tally.failed} of {tally.attempted}); "
          f"format_rational refused {len(workload.refused)} results")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
