"""spatialzeno benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload unit_exact --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
Python process (perfbench/worker.py) that builds its inputs from the
seed, runs one warm-up pass, then closed-loop passes (one client, one
thread) until ``--seconds`` have passed, checking every pass against the
oracles in perfbench/oracles.py.  With ``--trace 0`` it reports the
end-to-end metrics; ``setup_s`` is the median over SETUP_RUNS fresh
processes, each scaled by the calibration kernel run just before it.  With ``--trace 1`` it alternates untraced and traced passes
and reports the per-layer metrics of perfbench/layers.py.  The last
stdout line is the JSON result; the lines before it print every metric
by name with its unit, and a fuller record (environment, quartiles,
failed checks) goes to .perfbench_out/.  A failed check named in
workloads.KNOWN_DEFECTS is printed and counted in ``fail_frac`` but not
in the result's ``failed``; any other failed check makes it incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import CAL_REF_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("unit_exact", "rd_cubes", "tables")
SETUP_RUNS = 5
# the whole run must end within this many seconds
DEADLINE_S = 170.0

# wall-time metrics a workload prints besides the reported ones, as
# (name, unit); draws_per_s is derived from sample_s
WORKLOAD_METRICS = {
    "unit_exact": [("study_s", "s")],
    "rd_cubes": [("study_s", "s")],
    "tables": [("draws_per_s", "1/s"), ("table_s", "s"), ("cli_s", "s")],
}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker(args, tag: str, deadline: float, extra=()) -> dict:
    workdir = OUT / f"work-{args.workload}-{os.getpid()}-{tag}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra,
           "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values) -> dict:
    values = list(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def _pass_s(passes, cal) -> float:
    """Sum over a pass's calls of each call's median scaled time.

    A call's time in pass i is scaled by CAL_REF_S over the mean of the
    calibrations before and after that pass.  Taking the median per call
    keeps a burst of contention that hits one call in one pass out of the
    result.
    """
    scale = [CAL_REF_S * 2.0 / (a + b) for a, b in zip(cal, cal[1:])]
    per_call = zip(*(p["steps"] for p in passes))
    return sum(statistics.median(t * f for t, f in zip(times, scale)) for times in per_call)


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "spatialzeno" / "__init__.py").is_file():
        print(f"no spatialzeno sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_file = OUT / f"spans-{tag}.json"
    # set-up times and the calibration kernel time just before each
    setup, setup_cal = [], []
    if not args.trace:
        calibrate()  # the first run in a process is slower; not used
        for i in range(SETUP_RUNS - 1):
            setup_cal.append(calibrate())
            setup.append(_worker(args, f"setup{i}", deadline, ["--setup-only"])["setup_s"])
        setup_cal.append(calibrate())
    rec = _worker(args, "main", deadline,
                  ["--spans", str(spans_file)] if args.trace else [])
    setup.append(rec["setup_s"])

    passes = rec["passes"]
    for p in passes:
        if "draws" in p:
            p["draws_per_s"] = p["draws"] / p["sample_s"]
    summary = {"setup_s": _stats(setup), "pass_s": _stats(p["pass_s"] for p in passes)}
    for name, _ in WORKLOAD_METRICS[args.workload]:
        summary[name] = _stats(p[name] for p in passes)

    speed = None
    if args.trace:
        metrics = rec["layers"]
    else:
        speed = CAL_REF_S / statistics.median(rec["calibration_s"])
        metrics = {
            "pass_s": {"value": _pass_s(passes, rec["calibration_s"]), "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(
                t * CAL_REF_S / c for t, c in zip(setup, setup_cal)), "unit": "s"},
        }
    attempted, failed = rec["attempted"], len(rec["failures"])
    known = rec["known_failures"]

    env = rec["env"]
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}: {len(passes)} passes in {rec['measure_s']:.1f} s "
          f"after a {rec['warmup_s']:.2f} s warm-up pass")
    if speed is not None:
        print(f"speed_factor = {speed:.6g} (CAL_REF_S {CAL_REF_S} s / median of "
              f"{len(rec['calibration_s'])} calibration runs)")
        print(f"pass_s = {metrics['pass_s']['value']:.6g} s in reference seconds "
              "(sum over calls of each call's median scaled time)")
        print(f"setup_s = {metrics['setup_s']['value']:.6g} s in reference seconds "
              "(median over set-ups of each one scaled by the kernel run just before it)")
    units = dict(WORKLOAD_METRICS[args.workload], setup_s="s", pass_s="s")
    for name, st in summary.items():
        print(f"{name} = {st['median']:.6g} {units[name]} measured "
              f"(median of {st['n']}, IQR {st['q1']:.6g}..{st['q3']:.6g})")
    print(f"peak_rss_mb = {rec['peak_rss_mb']:.6g} MB after the warm-up pass "
          f"({rec['setup_rss_mb']:.6g} MB after set-up, {rec['final_rss_mb']:.6g} MB "
          "at the end, checks included)")
    print(f"fail_frac = {(failed + len(known)) / attempted:.6g} ({failed + len(known)} of "
          f"{attempted} checks failed, {len(known)} of them known defects)")
    for name, detail in rec["failures"][:20]:
        print(f"FAILED {name}: {detail}")
    for name in sorted({name for name, _ in known}):
        print(f"KNOWN DEFECT {name}: failed {sum(n == name for n, _ in known)} times; "
              f"{rec['known_defects'][name]}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")

    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "env": env, "summary": summary,
         "speed_factor": speed, "calibration_s": rec["calibration_s"],
         "setup_calibration_s": setup_cal,
         "peak_rss_mb": rec["peak_rss_mb"], "attempted": attempted,
         "setup_rss_mb": rec["setup_rss_mb"], "final_rss_mb": rec["final_rss_mb"],
         "failures": rec["failures"], "known_failures": known, "passes": passes,
         "layers": rec.get("layers"), "traced": rec.get("traced")}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
