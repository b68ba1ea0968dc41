"""Benchmark for `kellerlab analyze`/`certify` on three workloads.

    python3 perfbench/run.py --workload {families,conjugated,certify}
                             --seed N --seconds S --trace {0,1}

Run it from the repository root.  It imports the program from ./src, writes
its generated inputs under ./.perfbench/ and removes them again, and feeds
the program only those files, through `kellerlab.cli.main` in this single
process (no threads; KELLER_LAB_THREADS is removed from the environment).

With --trace 0 it repeats passes over the workload's grid for about S
seconds (at least three) and reports the end-to-end metrics.  With
--trace 1 it runs an untraced, a traced and another untraced pass, then
the frontier probes, and reports the per-layer metrics.  Every case is
checked; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`, and the exit code is 1 when any output
was wrong.  See README.md for the workloads and what each metric is for.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASE_LIMIT_S = 30.0      # a grid case that runs longer is recorded as a timeout
FRONTIER_LIMIT_S = 3.0   # the frontier probes only ask "does it finish yet?"
SETUP_REPEATS = 7        # input generation is repeated and its median reported
IMPORT_REPEATS = 5       # fresh interpreters timing `import kellerlab.cli`
MIN_PASSES = 3
PASS_DEADLINE_S = 100.0  # start no new pass after this, whatever --seconds says
CHECK_METRICS = ("keller", "nilpotent", "quasi", "jc", "jc_plus", "jc_minus",
                 "strong_nilpotent", "star")


class CaseTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in the program eats it."""


def _on_alarm(_signum, _frame):
    raise CaseTimeout()


class Outcome:
    __slots__ = ("seconds", "status", "code", "output", "verdicts")

    def __init__(self, seconds, status, code=None, output=b"", verdicts=None):
        self.seconds = seconds
        self.status = status
        self.code = code
        self.output = output
        self.verdicts = verdicts or {}


def execute(case, limit):
    """Run one case under a main-thread interval timer; only the call is timed."""
    if case.report and os.path.exists(case.report):
        os.remove(case.report)
    out, err = io.StringIO(), io.StringIO()
    status, code, result = "ok", None, None
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if case.argv is not None:
                code = workloads.cli.main(case.argv)
            else:
                fn, *args = case.call
                result = fn(*args)
    except CaseTimeout:
        status = "timeout"
    except Exception as exc:  # noqa: BLE001 - a raising case is recorded, never fatal
        status, result = "error", f"{type(exc).__name__}: {exc}".encode()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
    if status != "ok":
        return Outcome(seconds, status, code, result or b"")
    if case.report:
        with open(case.report, "rb") as handle:
            output = handle.read()
        conditions = json.loads(output)["conditions"]
        verdicts = {c: conditions.get(c) for c in case.checks}
    elif case.argv is not None:
        output = out.getvalue().encode()
        verdicts = {"output": "holds" if (code == 0 and out.getvalue() == case.expect_stdout)
                    else "fails"}
    else:
        output = result
        verdicts = {"output": "holds"}
    return Outcome(seconds, status, code, output, verdicts)


class Gate:
    """Correctness of every case execution; see README.md, "Correctness gate"."""

    def __init__(self):
        self.first = {}      # label -> Outcome of its first successful execution
        self.attempted = 0
        self.failed = 0
        self.statuses = collections.Counter()
        self.wrong = []

    def record(self, case, outcome):
        self.attempted += 1
        self.statuses[outcome.status] += 1
        problem = None
        if outcome.status != "ok":
            problem = outcome.status
        elif case.report:
            bad = workloads.wrong_verdicts(case, outcome.verdicts)
            if bad:
                problem = "wrong verdict " + ",".join(f"{c}={outcome.verdicts[c]}" for c in bad)
        elif outcome.verdicts["output"] != "holds":
            problem = f"unexpected output (exit {outcome.code})"
        if problem is None:
            seen = self.first.setdefault(case.label, outcome)
            if seen.output != outcome.output:
                problem = "output bytes differ between repeats"
        if problem is not None:
            self.failed += 1
            if outcome.status == "ok":
                self.wrong.append(f"{case.label}: {problem}")
            else:
                print(f"# failed {case.label}: {problem} {outcome.output[:120]!r}")

    def recheck(self, cases):
        """Witness checks outside the timed region, once per invocation."""
        for case in cases:
            outcome = self.first.get(case.label)
            if outcome is None:
                continue
            if case.report and outcome.verdicts.get("jc_minus") == workloads.HOLDS:
                if not workloads.inverse_witness_holds(case, outcome.output):
                    self.wrong.append(f"{case.label}: jc_minus inverse fails F o G = x")
            if case.call is not None and not workloads.check_round_trip(case, outcome.output):
                self.wrong.append(f"{case.label}: round trip does not re-verify")


def run_pass(cases, rng, gate, times, tracer=None):
    order = list(cases)
    rng.shuffle(order)
    start = time.perf_counter()
    for case in order:
        if tracer is None:
            outcome = execute(case, CASE_LIMIT_S)
        else:
            outcome = tracer.run("case " + case.label, execute, case, CASE_LIMIT_S)
        gate.record(case, outcome)
        times.setdefault(case.label, []).append(outcome.seconds)
    return time.perf_counter() - start


def decided_fraction(cases, gate):
    decided = total = 0
    for case in cases:
        outcome = gate.first.get(case.label)
        names = case.checks if case.report else ("output",)
        total += len(names)
        if outcome is not None:
            decided += sum(outcome.verdicts.get(n) in (workloads.HOLDS, workloads.FAILS)
                           for n in names)
    return decided / total


def check_seconds(cases, times):
    """Median analyze time per check, summed over maps (one-check cases only)."""
    sums = {}
    for case in cases:
        if case.report and len(case.checks) == 1:
            key = case.checks[0]
            sums[key] = sums.get(key, 0.0) + statistics.median(times[case.label])
    return sums


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine_info(args, passes):
    return {
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "setup_repeats": SETUP_REPEATS,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def import_seconds(source):
    """Median time of `import kellerlab.cli` in fresh interpreters."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
             "import kellerlab.cli; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", probe, source], capture_output=True,
                              text=True, timeout=60, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def main(argv=None):
    global workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("KELLER_LAB_THREADS", None)
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import workloads  # imports the program
    except ImportError as exc:
        print(f"error: cannot import the program from {source}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(workloads.cli.__file__).startswith(source + os.sep):
        print("error: kellerlab was not imported from ./src", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    build, frontier = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)

    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, build, frontier, source, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, build, frontier, source, workdir):
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        with tracer:
            cases = tracer.run("setup", build, workdir, args.seed)
    else:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cases = build(workdir, args.seed)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_seconds(source) + statistics.median(setup_times)

    rng = random.Random(args.seed)
    gate = Gate()
    times = {}
    pass_times = []
    if args.trace:
        # untraced, traced, untraced: the two untraced passes bracket drift
        pass_times.append(run_pass(cases, rng, gate, times))
        traced_times = {}
        with tracer:
            run_pass(cases, rng, gate, traced_times, tracer)
        pass_times.append(run_pass(cases, rng, gate, times))
    else:
        started = time.perf_counter()
        while True:
            pass_times.append(run_pass(cases, rng, gate, times))
            elapsed = time.perf_counter() - started
            if elapsed > PASS_DEADLINE_S:
                break
            if (len(pass_times) >= MIN_PASSES
                    and elapsed + statistics.median(pass_times) > args.seconds):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gate.recheck(cases)
    wall_s = sum(statistics.median(t) for t in times.values())

    info = machine_info(args, len(pass_times))
    print("# " + json.dumps(info, sort_keys=True))
    print(f"# {len(cases)} cases x {len(pass_times)} passes; pass times "
          + ", ".join(f"{t:.3f}" for t in pass_times) + " s")
    for line in gate.wrong:
        print(f"# WRONG {line}")

    if args.trace:
        metrics, probes = _layer_metrics(args, cases, gate, times, traced_times, tracer,
                                         frontier, workdir)
        results = {"info": info, "metrics": metrics, "frontier": probes}
        tracer.dump(os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-{args.seed}.json"))
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(wall_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "decided_frac": metric(decided_fraction(cases, gate), "fraction"),
        }
        results = {"info": info, "metrics": metrics, "pass_s": pass_times,
                   "case_s": dict(sorted(times.items()))}
    with open(os.path.join(ROOT, ".perfbench",
                           f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    correct = not gate.wrong
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


# Span metrics: `<span>_calls` counts calls, `<span>_self_s` is self time and
# `<span>_s` the time of the outermost calls; `COUNTED` maps a metric to the
# span whose counter it reads (see tracing.TRACED).
SPAN_METRICS = (
    "exactfield.scalar_mul_calls", "exactfield.scalar_mul_self_s",
    "exactfield.scalar_inverse_calls",
    "multipoly.mul_calls", "multipoly.mul_self_s", "multipoly.substitute_calls",
    "multipoly.substitute_s", "multipoly.divide_exact_calls", "multipoly.divide_exact_s",
    "multipoly.pow_s", "multipoly.rename_variables_s",
    "linalg.rref_calls", "linalg.rref_s",
    "polymap.jacobian_calls", "polymap.jacobian_s", "polymap.matrix_det_calls",
    "polymap.matrix_det_s", "polymap.matmul_s", "polymap.matrix_is_nilpotent_s",
    "polymap.invert_triangular_s", "polymap.map_compose_s", "polymap.conjugate_s",
    "constructions.make_family_s", "constructions.family_certificate_s",
    "constructions.gz_verify_s",
    "properties.check_sum_condition_s", "properties.is_strongly_nilpotent_s",
    "properties.strong_nilpotence_product_s", "properties.is_quasi_translation_calls",
    "properties.certificate_failure_s", "properties.triangularization_from_certificate_s",
    "properties.certificate_from_triangularization_s",
    "identities.verify_identity_s",
    "serialize.map_from_json_s", "serialize.report_to_json_s", "serialize.dumps_s",
)
COUNTED = {
    "exactfield.scalar_mul_ext_calls": "exactfield.scalar_mul",
    "multipoly.mul_term_pairs": "multipoly.mul",
    "polymap.det_result_terms": "polymap.matrix_det",
}


def _span_metric(totals, name):
    for suffix, key, unit in (("_self_s", "self_s", "s"), ("_calls", "calls", "count"),
                              ("_s", "total_s", "s")):
        if name.endswith(suffix):
            return metric(totals.get(name[:-len(suffix)], {}).get(key, 0), unit)
    raise ValueError(name)


def _layer_metrics(args, cases, gate, times, traced_times, tracer, frontier, workdir):
    totals = tracer.totals()
    metrics = {name: _span_metric(totals, name) for name in SPAN_METRICS}
    for name, span in COUNTED.items():
        metrics[name] = metric(totals.get(span, {}).get("count", 0), "count")
    metrics["serialize.report_bytes"] = metric(
        sum(len(gate.first[c.label].output) for c in cases
            if c.report and c.label in gate.first), "bytes")

    # the frontier: cases the program cannot finish today, probed untraced
    probes = {}
    statuses = collections.Counter(gate.statuses)
    if frontier is not None:
        for case in frontier(workdir, args.seed):
            outcome = execute(case, FRONTIER_LIMIT_S)
            statuses[outcome.status] += 1
            probes[case.label] = {"status": outcome.status, "seconds": outcome.seconds,
                                  "verdicts": outcome.verdicts}
            print(f"# frontier {case.label}: {outcome.status} after {outcome.seconds:.3f} s "
                  f"{outcome.output[:100]!r}")
    unfinished = sum(p["status"] != "ok" for p in probes.values())
    metrics["cli.cases"] = metric(len(cases) + len(probes), "count")
    metrics["cli.timeouts"] = metric(statuses["timeout"], "count")
    metrics["cli.errors"] = metric(statuses["error"], "count")
    metrics["failed_frac"] = metric((gate.failed + unfinished) / (gate.attempted + len(probes)),
                                    "fraction")
    per_check = check_seconds(cases, times)
    for check in CHECK_METRICS:
        metrics[f"check_s.{check}"] = metric(per_check.get(check, 0.0), "s")
    for check in ("doublestar", "triplestar"):
        metrics[f"cli.analyze_s.{check}"] = metric(per_check.get(check, 0.0), "s")
    untraced = sum(statistics.median(t) for t in times.values())
    traced = sum(t[0] for t in traced_times.values())
    metrics["trace.untraced_wall_s"] = metric(untraced, "s")
    metrics["trace.traced_wall_s"] = metric(traced, "s")
    metrics["trace.overhead_s"] = metric(traced - untraced, "s")
    return metrics, probes


if __name__ == "__main__":
    sys.exit(main())
