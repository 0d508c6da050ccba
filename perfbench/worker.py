"""One benchmark process: set up a workload, then run at most one pass of it.

    python3 perfbench/worker.py WORKLOAD SEED MODE WORKDIR

MODE is ``setup`` (set up and exit), ``pass`` (one untraced pass) or
``trace`` (one pass with every layer wrapped by the span tracer).  Set-up is
interpreter start, ``import ilplab`` and ``ilplab gen`` of the workload's
instance file into WORKDIR; the worker prints ``READY`` when it is done, so
the parent can time set-up from spawn to that line.  A pass then prints one
JSON line with its timings, peak memory and correctness verdict.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import ilplab.cli  # noqa: E402  (the package under test comes from the checkout's src/)

from workloads import ALL_WORKLOADS, Workload, check_pass, digest, load_expected  # noqa: E402


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``ilplab.cli.main`` in-process and capture what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            # Looked up at call time, so a traced run calls the wrapped main.
            code = ilplab.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def setup(wl: Workload, workdir: Path) -> tuple[Path | None, str | None]:
    """Generate the workload's instance file; returns its path and sha256."""
    if wl.gen is None:
        return None, None
    family, delta, d = wl.gen
    path = workdir / "instance.json"
    code, _, err = run_cli(["gen", family, "--delta", str(delta), "--d", str(d), "--out", str(path)])
    if code != 0:
        raise RuntimeError(f"ilplab gen exited with {code}: {err.strip()}")
    return path, hashlib.sha256(path.read_bytes()).hexdigest()


def timed_pass(
    wl: Workload, expected: dict, seed: int, instance: Path | None, instance_sha256: str | None
) -> tuple[dict, dict | None]:
    """One pass from ``main(argv)`` to the verified output; returns the record and output."""
    argv = wl.command(instance, seed)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        code, out, err = run_cli(argv)
    except Exception:  # a crash is a failed pass, reported with its traceback
        code, out, err = -1, "", traceback.format_exc()
    errors, doc = check_pass(wl, expected, seed, code, out, instance_sha256)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if code != 0 and err:
        errors.append(f"stderr: {err.strip()[-500:]}")
    record = {
        "errors": errors,
        "wall_s": wall,
        "cpu_s": cpu,
        "output_sha256": digest(doc) if doc is not None else None,
        "instance_sha256": instance_sha256,
    }
    return record, doc


def main(argv: list[str]) -> int:
    name, seed, mode, workdir = argv[0], int(argv[1]), argv[2], Path(argv[3])
    wl = ALL_WORKLOADS[name]
    instance, instance_sha256 = setup(wl, workdir)
    print("READY", flush=True)
    if mode == "setup":
        return 0
    expected = load_expected(name)
    if mode == "pass":
        record, _ = timed_pass(wl, expected, seed, instance, instance_sha256)
    else:
        from spans import Tracer, cross_check, layer_metrics

        tracer = Tracer()
        with tracer.installed():
            record, doc = timed_pass(wl, expected, seed, instance, instance_sha256)
        layers = layer_metrics(tracer, doc)
        layers["trace.wall_s"] = record["wall_s"]
        record["errors"] += cross_check(layers, doc)
        record["layers"] = layers
        tracer.dump(workdir / f"spans-seed{seed}.json.gz")
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
