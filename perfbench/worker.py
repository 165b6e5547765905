"""One workload in one fresh process; started by run.py.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1
                                [--setup-only] [--spans FILE] --workdir DIR --t0 T0

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so ``setup_s`` covers
interpreter start, imports and building the workload's inputs.  Prints
one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import envinfo  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="file for the traced spans (JSON)")
    p.add_argument("--workdir", required=True)
    p.add_argument("--t0", type=float, required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    workdir = Path(args.workdir)
    try:
        record = _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


def _run(args, workdir: Path) -> dict:
    tracer = None
    if args.trace:
        tracer = Tracer(layers.targets())
        tracer.install()
    w = workloads.make(args.workload, args.seed, workdir)
    w.setup()
    record = {"setup_s": time.monotonic() - args.t0, "setup_rss_mb": _peak_rss_mb()}
    if args.setup_only:
        return record

    if tracer is None:
        calibrate = Calibrator()
        try:
            _measure(args, w, None, calibrate, record)
        finally:
            calibrate.close()
    else:
        setup_spans = tracer.take()
        tracer.restore()
        summaries, first_spans = _measure(args, w, tracer, None, record)
        traced, passes = record["traced"], record["passes"]
        layer = layers.pass_metrics(summaries)
        layer["states.construct_s"] = summarize(setup_spans).get(
            "states.construct", {}).get("incl_s", 0.0)
        layer["cli.bytes_written"] = statistics.median(
            p.get("bytes_written", 0) for p in passes)
        layer["trace.overhead_frac"] = (statistics.median(p["pass_s"] for p in traced)
                                        / statistics.median(p["pass_s"] for p in passes) - 1.0)
        layer["trace.uncovered_frac"] = statistics.median(
            1.0 - p["covered_s"] / p["wall_s"] for p in traced)
        record["layers"] = layers.with_units(layer)
        if args.spans:
            Path(args.spans).write_text(json.dumps({"setup": setup_spans, "pass": first_spans}))
    record["env"] = envinfo.collect(ROOT, args.seed)
    return record


def _measure(args, w, tracer, calibrate, record: dict):
    """Warm-up pass, then measured passes until args.seconds have passed.

    ``peak_rss_mb`` is read after the warm-up pass and before its check,
    so the oracles' arrays and the library calls the checks make for
    reference values do not count; the measured passes repeat the warm-up
    pass's work, and their own peak is kept as ``final_rss_mb``.  Untraced runs call ``calibrate`` before the first measured pass and
    after each one; traced runs follow every untraced pass with a traced
    one.  Returns the span summaries of the traced passes and the spans of
    the first.
    """
    checks = workloads.Checks()
    steps, outputs = w.run_pass()
    record.update(warmup_s=sum(t for _, t in steps), peak_rss_mb=_peak_rss_mb())
    w.check(outputs, checks, first=True)

    passes, traced, summaries, first_spans = [], [], [], None
    calibration = [] if calibrate is None else [calibrate()]
    t_measure = time.perf_counter()
    while True:
        c0 = time.process_time()
        steps, outputs = w.run_pass()
        timings = _timings(steps)
        timings.update(w.counters(), cpu_s=time.process_time() - c0)
        passes.append(timings)
        w.check(outputs, checks, first=False)
        if calibrate is not None:
            calibration.append(calibrate())
        else:
            tracer.install()
            try:
                t0 = time.perf_counter()
                steps, outputs = w.run_pass()
                t1 = time.perf_counter()
            finally:
                tracer.restore()
            spans = tracer.take()
            first_spans = first_spans or spans
            s = summarize(spans)
            timings = _timings(steps)
            timings.update(covered_s=s["_root_s"], wall_s=t1 - t0)
            traced.append(timings)
            summaries.append(s)
            w.check(outputs, checks, first=False)
        if time.perf_counter() - t_measure >= args.seconds:
            break

    record.update(
        passes=passes,
        traced=traced,
        measure_s=time.perf_counter() - t_measure,
        final_rss_mb=_peak_rss_mb(),
        calibration_s=calibration,
        attempted=len(checks.results),
        failures=[[name, detail] for name, ok, detail in checks.results
                  if not ok and name not in workloads.KNOWN_DEFECTS],
        known_failures=[[name, detail] for name, ok, detail in checks.results
                        if not ok and name in workloads.KNOWN_DEFECTS],
    )
    record["known_defects"] = {name: workloads.KNOWN_DEFECTS[name]
                               for name, _ in record["known_failures"]}
    return summaries, first_spans


def _peak_rss_mb() -> float:
    """This process's peak resident memory (VmHWM) in MB.

    Not ``ru_maxrss``: on Linux that survives exec, so a child starts with
    its parent's peak, and whatever process runs the benchmark would set a
    floor under the figure.
    """
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^VmHWM:\s+(\d+) kB", status, re.M).group(1)) / 1024.0


def _timings(steps) -> dict:
    """Per-pass record: every call's time, the group sums and their total."""
    out = {"steps": [t for _, t in steps], "pass_s": sum(t for _, t in steps)}
    for group, t in steps:
        out[group] = out.get(group, 0.0) + t
    return out


if __name__ == "__main__":
    sys.exit(main())
