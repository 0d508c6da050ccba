"""ilplab benchmark: run one workload through the real CLI and report its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each pass runs in its own single-threaded
worker process, one at a time (a closed loop with one client); passes repeat
while another one fits in ``--seconds``, and at least one always runs.

With ``--trace 0`` the run first spawns the workload's set-up several times,
then times untraced passes, and reports the end-to-end metrics: ``wall_s``,
``cpu_s``, ``peak_rss_mb`` (means over the run's passes) and ``setup_s``
(median over set-ups).  With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, plus the tracing overhead.
Every pass goes through the correctness gate in ``workloads.py``.  A summary
goes to standard output, followed by one JSON result line; the result, with
the workload's identity, is also saved under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import mean, median

from spans import PER_LAYER
from workloads import ALL_WORKLOADS, DEFAULT_SEED, Workload

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"

SETUP_RUNS = 9
#: string hashing is pinned so that dict and set layouts repeat from pass to pass
WORKER_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
#: every run, set-up included, ends well inside the 180 s a run may take
RUN_BUDGET_S = 165.0

#: name, unit; the order is the order of BENCHMARK.json's end_to_end list
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def spawn(wl: Workload, seed: int, mode: str, workdir: Path, timeout: float) -> tuple[float, dict]:
    """Start one worker; returns its set-up time and its pass record (empty for set-up)."""
    cmd = [sys.executable, str(WORKER), wl.name, str(seed), mode, str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True, env=WORKER_ENV
    )
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
    if ready.strip() != "READY":
        return setup_s, {"errors": [f"{mode} worker failed before set-up ended (exit {proc.returncode})"]}
    if mode == "setup":
        return setup_s, {} if proc.returncode == 0 else {"errors": [f"exit {proc.returncode}"]}
    lines = rest.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return setup_s, {"errors": [f"{mode} worker printed no result (exit {proc.returncode})"]}
    return setup_s, record


def describe(value: float, samples: list[float]) -> str:
    return f"{value:<12.6g} min {min(samples):.6g}  max {max(samples):.6g}  n={len(samples)}"


def count_failures(records: list[dict]) -> int:
    """Passes that failed the gate, or whose output differs from the run's first pass.

    Passes of one run share their inputs, so their outputs must agree; this
    also covers seeds for which no output was recorded.
    """
    reference = next((p["output_sha256"] for p in records if p.get("output_sha256")), None)
    for p in records:
        if p.get("output_sha256") not in (None, reference):
            p["errors"].append("output differs from the run's first pass")
    return sum(1 for p in records if p["errors"])


def run(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    start = time.perf_counter()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - start)

    setups: list[float] = []
    setup_errors: list[str] = []
    if not trace:
        for _ in range(SETUP_RUNS):
            setup_s, record = spawn(wl, seed, "setup", workdir, remaining())
            setups.append(setup_s)
            setup_errors += record.get("errors", [])

    passes: list[dict] = []
    traced: list[dict] = []
    measure_start = time.perf_counter()
    longest = 0.0
    while True:
        need_more = not passes or (trace and not traced)
        # Start no pass that would end after --seconds, judged by the longest so far.
        if not need_more and time.perf_counter() - measure_start + longest > seconds:
            break
        if not need_more and remaining() < 1.5 * longest + 5:
            break  # another pass would overrun the run's time limit
        mode = "trace" if trace and len(traced) < len(passes) else "pass"
        t0 = time.perf_counter()
        _, record = spawn(wl, seed, mode, workdir, remaining())
        longest = max(longest, time.perf_counter() - t0)
        (traced if mode == "trace" else passes).append(record)

    every = passes + traced
    failed = count_failures(every)
    timed = [p for p in (traced if trace else passes) if "wall_s" in p]

    samples: dict[str, list[float]] = {}
    if trace:
        for p in timed:
            for name, value in p["layers"].items():
                samples.setdefault(name, []).append(value)
        if timed and passes:
            untraced = median(p["wall_s"] for p in passes if "wall_s" in p)
            samples["trace.overhead_s"] = [median(samples["trace.wall_s"]) - untraced]
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name] = [p[name] for p in timed]
        samples["setup_s"] = setups
        units = dict(END_TO_END)
    # Untraced per-pass figures are averaged over the run (the time per pass
    # at the run's throughput): the shared machine's speed switches between
    # two levels every few seconds, and a median of three or four passes
    # jumps between them where their mean does not.  Set-up and traced
    # figures are medians.
    def summary(name: str) -> float:
        return median(samples[name]) if trace or name == "setup_s" else mean(samples[name])

    metrics = {
        name: {"value": summary(name), "unit": unit}
        for name, unit in units.items()
        if samples.get(name)
    }
    return {
        "correct": failed == 0 and not setup_errors and len(metrics) == len(units),
        "attempted": len(every),
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "errors": setup_errors + [e for p in every for e in p["errors"]],
        "instance_sha256": next((p["instance_sha256"] for p in timed), None),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ilplab" / "cli.py").is_file():
        print("error: run from the root of an ilplab checkout (src/ilplab is missing)", file=sys.stderr)
        return 2
    wl = ALL_WORKLOADS[args.workload]
    workdir = root / ".bench_build" / "perfbench" / wl.name
    workdir.mkdir(parents=True, exist_ok=True)

    result = run(wl, args.seed, args.seconds, bool(args.trace), workdir)
    samples, errors = result.pop("samples"), result.pop("errors")
    identity = wl.identity(result.pop("instance_sha256"), args.seed)

    print(f"workload {wl.name}: {wl.why}")
    print(f"identity {json.dumps(identity, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['unit']:<8} {describe(m['value'], samples[name])}")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<40} {'ratio':<8} {fail_ratio:.6g} ({result['failed']}/{result['attempted']})")
    for err in errors[:20]:
        print(f"  FAILED: {err}")

    saved = workdir / f"result-seed{args.seed}-trace{args.trace}.json"
    record = {"identity": identity, "trace": args.trace, **result, "samples": samples, "errors": errors}
    saved.write_text(json.dumps(record, indent=2) + "\n")
    print(f"saved {saved.relative_to(root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
