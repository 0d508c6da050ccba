"""Record the outputs the correctness gate compares every pass against.

    python3 perfbench/record.py WORKLOAD [SEED ...]

Run from the root of a checkout whose outputs are known to be right.  It runs
the workload once per seed (once in all for a workload that ignores the seed)
through the same set-up and CLI call as a pass, refuses to record an output
that fails the workload's paper checks, and merges the canonical outputs and
the instance document's sha256 into ``perfbench/expected/WORKLOAD.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from worker import run_cli, setup
from workloads import ALL_WORKLOADS, EXPECTED_DIR, canonical


def main(argv: list[str]) -> int:
    wl = ALL_WORKLOADS[argv[0]]
    seeds = [int(s) for s in argv[1:]] if wl.seeded else [0]
    path = EXPECTED_DIR / f"{wl.name}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"outputs": {}}
    workdir = Path(".bench_build") / "perfbench" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    instance, doc["instance_sha256"] = setup(wl, workdir)
    for seed in seeds:
        code, out, err = run_cli(wl.command(instance, seed))
        if code != 0:
            print(f"{wl.name} seed {seed}: exit {code}: {err.strip()}", file=sys.stderr)
            return 1
        output = canonical(out)
        problems = wl.paper_check(output)
        if problems:
            print(f"{wl.name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        doc["outputs"][str(seed) if wl.seeded else "any"] = output
        print(f"recorded {wl.name} seed {seed}", flush=True)
    doc["outputs"] = dict(sorted(doc["outputs"].items(), key=lambda kv: (len(kv[0]), kv[0])))
    path.write_text(json.dumps(doc, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
