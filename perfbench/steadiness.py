"""Steadiness report: two sets of runs over ten seeds, spreads and drift against bounds.

    python3 perfbench/steadiness.py > perfbench/STEADINESS.md

Runs ``perfbench/run.py --trace 0`` for every workload of BENCHMARK.json
on seeds 1-10 with its run_seconds, then runs all of it a second time.
Prints the report as markdown on stdout and each run's metrics on
stderr.  For each set, workload and end-to-end metric the report gives
the median over the seeds and the spread, which is the distance between
the first and third quartile of the per-seed values
(``statistics.quantiles(n=4)``) as a share of their median; then the
drift of set 2's median against set 1's.  A metric whose spread in
either set or whose drift exceeds its bound is marked UNRESOLVED.  Exits
1 if a metric is unresolved or a check other than a known defect failed.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
SETS = 2


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    # values[set][(workload, metric)] = per-seed values
    values = [{} for _ in range(SETS)]
    checks = [[0, 0, 0] for _ in range(SETS)]  # attempted, failed, known-defect failures
    started = []
    for s in range(SETS):
        started.append(time.strftime("%Y-%m-%d %H:%M", time.gmtime()))
        for w in workloads:
            for seed in SEEDS:
                res = _run(w, seed, seconds)
                record = json.loads((ROOT / ".perfbench_out" /
                                     f"result-{w}-seed{seed}-trace0.json").read_text())
                checks[s][0] += res["attempted"]
                checks[s][1] += res["failed"]
                checks[s][2] += len(record["known_failures"])
                for name, m in res["metrics"].items():
                    values[s].setdefault((w, name), []).append(m["value"])
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()),
                    file=sys.stderr, flush=True)
    env = record["env"]

    unresolved = []
    worst = (0.0, "")
    set_tables = [[] for _ in range(SETS)]
    drift_rows = []
    for w in workloads:
        for metric in metrics:
            name, bound, unit = metric["name"], metric["bound"], metric["unit"]
            medians = []
            for s in range(SETS):
                vals = values[s][(w, name)]
                med, spread = statistics.median(vals), _spread(vals)
                medians.append(med)
                status = "ok" if spread <= bound else "UNRESOLVED"
                if status != "ok":
                    unresolved.append(f"{w} {name} spread in set {s + 1}")
                worst = max(worst, (spread / bound, f"{w} `{name}`, set {s + 1}"))
                set_tables[s].append(f"| {w} | {name} | {med:.5g} {unit} | {spread:.3f} | "
                                     f"{bound} | {spread / bound:.2f} | {status} |")
            # every end-to-end metric is better lower
            drift = medians[1] / medians[0] - 1.0
            status = "ok" if drift <= bound else "UNRESOLVED"
            if status != "ok":
                unresolved.append(f"{w} {name} drift")
            drift_rows.append(f"| {w} | {name} | {medians[0]:.5g} {unit} | "
                              f"{medians[1]:.5g} {unit} | {drift:+.3f} | {bound} | {status} |")

    lines = [
        "# Steadiness report", "",
        "Made with `python3 perfbench/steadiness.py > perfbench/STEADINESS.md`: two sets",
        f"of runs, one after the other, each running `perfbench/run.py --trace 0` on seeds "
        f"{SEEDS[0]}-{SEEDS[-1]}",
        f"for every workload with `run_seconds` {seconds}.  Set 1 started {started[0]} UTC, "
        f"set 2 {started[1]} UTC.",
        f"Commit {env['git_commit']}; {env['cpu_model']}, nproc {env['nproc']}; "
        f"Python {env['python']}, numpy {env['numpy']},",
        f"scipy {env['scipy']}, {env['blas']} with {env['blas_threads']} BLAS threads.", "",
        "Spread is the distance between the first and third quartile of the ten per-seed",
        "values (`statistics.quantiles(n=4)`) as a share of their median.  Drift is set 2's",
        "median over set 1's, minus 1; every metric is better lower.  A metric is UNRESOLVED",
        "when its spread in either set or its drift exceeds its bound; `setup_s` is held to",
        "its bound like the others.",
        f"Unresolved: {', '.join(unresolved) if unresolved else 'none'}.  "
        f"Largest spread: {worst[0]:.2f} of its bound ({worst[1]}).",
    ]
    for s in range(SETS):
        attempted, failed, known = checks[s]
        lines += ["", f"## Set {s + 1}", "",
                  f"Checks: {failed} of {attempted} failed, besides {known} failures of "
                  "known defects.", "",
                  "| workload | metric | median | spread | bound | spread / bound | status |",
                  "|---|---|---|---|---|---|---|", *set_tables[s]]
    lines += ["", "## Set 2 against set 1", "",
              "| workload | metric | set 1 median | set 2 median | drift | bound | status |",
              "|---|---|---|---|---|---|---|", *drift_rows]
    print("\n".join(lines))
    return 1 if unresolved or any(c[1] for c in checks) else 0


if __name__ == "__main__":
    sys.exit(main())
