"""The birthdeath benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload series-machine --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is used straight from
``src``; nothing is installed.  Steps:

1. ``--trace 0``: time ``setup_s`` in fresh interpreters that import the CLI
   and answer the workload's warm-up request (median of several).
   ``--trace 1``: read the import breakdown from ``-X importtime``.
2. Run the workload's closed loop in its own fresh, single-threaded
   process (``bdbench.worker``), collecting every answer; with
   ``--trace 0`` the same process then sends the workload's defect
   probes, untimed and outside the counts (``streams.DEFECT_PROBES``).
3. Grade each answer against the independent reference, outside the
   timed region (``bdbench.reference``).
4. Print a readable summary, write a record to ``.bench_out/``, and print
   the result as the last line of standard output.

Workloads, metrics and what each should move are in ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from bdbench import reference, streams  # noqa: E402
from bdbench.worker import answer_bytes  # noqa: E402

SETUP_REPEATS = 15
DIGEST_REQUESTS = 40
TAIL_BEYOND = 10
WORKER_SLACK_S = 90
PROBE_LIMIT_S = 30
OUT_DIR = ".bench_out"

def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(env: dict, argv: list[str]) -> float:
    """Seconds from launching a fresh interpreter to the warm-up answer."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "bdbench" / "probe.py"), *argv],
                            stdout=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(PROBE_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
    if line.split() != ["answered", "0"] or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line!r}, exit {proc.returncode}")
    return elapsed


def run_worker(env: dict, args, spans: Path | None) -> tuple[list[dict], list[dict], dict]:
    cmd = [sys.executable, "-m", "bdbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    watchdog = threading.Timer(args.seconds * 1.5 + WORKER_SLACK_S, proc.kill)
    watchdog.start()
    answers, probes, summary = [], [], None
    try:
        for line in proc.stdout:
            record = json.loads(line)
            if "summary" in record:
                summary = record["summary"]
            elif record["index"] < 0:
                probes.append(record)
            else:
                answers.append(record)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or summary is None:
        raise RuntimeError(f"workload process failed with exit status {proc.returncode}")
    return answers, probes, summary


def grade(workload: str, seed: int, answers: list[dict]):
    requests = list(itertools.islice(streams.stream(workload, seed), len(answers)))
    verdicts = []
    for req, ans in zip(requests, answers):
        if ans["index"] != req.index:
            raise RuntimeError("answers arrived out of request order")
        verdicts.append(reference.check(req.ref, req.expect, ans["status"], ans["rc"], ans["out"], ans["err"]))
    return requests, verdicts


def grade_probes(workload: str, probes: list[dict]) -> list[dict]:
    """How each defect probe ended: ``failed`` is true while the defect stands."""
    requests = {r.index: r for r in streams.DEFECT_PROBES.get(workload, ())}
    graded = []
    for ans in probes:
        req = requests[ans["index"]]
        v = reference.check(req.ref, req.expect, ans["status"], ans["rc"], ans["out"], ans["err"])
        graded.append({"family": req.family, "status": ans["status"], "rc": ans["rc"],
                       "failed": v.failed, "findings": v.findings})
    return graded


def digest(answers: list[dict]) -> str:
    h = hashlib.sha256()
    for ans in answers:
        h.update(answer_bytes(ans["status"], ans["rc"], ans["out"]))
    return h.hexdigest()


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one birthdeath benchmark workload.")
    p.add_argument("--workload", choices=streams.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "birthdeath" / "cli.py").is_file():
        print("error: run from a checkout root holding src/birthdeath", file=sys.stderr)
        return 2
    env = _env(root)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setup = []
    if not args.trace:
        setup = [measure_setup(env, streams.WARMUP[args.workload]) for _ in range(SETUP_REPEATS)]
    spans = out_dir / f"{stem}.spans.csv" if args.trace else None
    answers, probes, summary = run_worker(env, args, spans)
    requests, verdicts = grade(args.workload, args.seed, answers)
    defects = grade_probes(args.workload, probes)

    n = len(answers)
    failed = sum(v.failed for v in verdicts)
    inaccurate = sum(v.inaccurate for v in verdicts)
    inconclusive = sum(v.inconclusive for v in verdicts)
    latencies = [a["latency"] for a in answers]
    tail_s, tail_pct = tail(latencies)
    correct = not any(v.gross for v in verdicts)
    if args.trace:
        from bdbench import kernels

        correct = correct and summary["digest"] == summary["traced_digest"]
        metrics = {**summary["layers"], **kernels.import_breakdown(env)}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_s,
            "throughput_rps": n / summary["elapsed"],
            "ok_frac": 1 - failed / n,
            "accurate_frac": 1 - inaccurate / n,
            "conclusive_frac": 1 - inconclusive / n,
            "peak_rss_mb": summary["peak_rss_mb"],
        }
    spec = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")

    findings = [
        {"index": r.index, "family": r.family, "argv": " ".join(r.argv)[:200], "findings": v.findings}
        for r, v in zip(requests, verdicts) if v.findings
    ]
    breakdown = [(r.family, " ".join(r.argv)[:120], v.breakdown) for r, v in zip(requests, verdicts) if v.breakdown]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "requests": n, "failed": failed, "inaccurate": inaccurate, "inconclusive": inconclusive,
        "fail_frac": failed / n, "inaccurate_frac": inaccurate / n, "inconclusive_frac": inconclusive / n,
        "latency_tail_percentile": tail_pct, "latency_tail_beyond": TAIL_BEYOND,
        "setup_samples_s": setup,
        "answers_sha256": digest(answers[:DIGEST_REQUESTS]), "answers_digested": min(n, DIGEST_REQUESTS),
        "metrics": metrics, "defect_probes": defects, "findings": findings, "naive_breakdown": breakdown,
        "latencies": [[r.family, a["latency"]] for r, a in zip(requests, answers)],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}: {n} requests, closed loop with one client")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'latency_tail_s is p':34s} {tail_pct:14.4g}   ({TAIL_BEYOND} of {n} samples beyond)")
    for name, count in (("fail_frac", failed), ("inaccurate_frac", inaccurate),
                        ("inconclusive_frac", inconclusive)):
        print(f"  {name:34s} {count / n:14.6g} frac   ({count} of {n})")
    for probe in defects:
        outcome = "; ".join(probe["findings"]) if probe["failed"] else "passes"
        print(f"  defect probe {probe['family']} (untimed): {probe['status']}, exit {probe['rc']}: {outcome}")
    print(f"  answers_sha256 over first {record['answers_digested']}: {record['answers_sha256']}")
    for item in findings[:8]:
        print(f"  finding #{item['index']} {item['family']}: {'; '.join(item['findings'])}")
    print(f"  record: {OUT_DIR}/{stem}.json")
    print(json.dumps({
        "correct": correct, "attempted": n, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
