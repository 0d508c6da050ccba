"""Compare two saved results of one workload, metric by metric.

    python3 perfbench/compare.py BEFORE.json AFTER.json

The files are the results ``run.py`` saves under ``.bench_build/perfbench/``.
Two results are comparable only when their identity (workload, command,
generated instance's sha256, seed where the workload uses it, trial count) and
their trace mode are equal; otherwise the comparison is refused with exit 2.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def comparable(before: dict, after: dict) -> list[str]:
    """Why the two results may not be compared; empty when they may."""
    reasons = []
    for key in sorted(set(before["identity"]) | set(after["identity"])):
        old, new = before["identity"].get(key), after["identity"].get(key)
        if old != new:
            reasons.append(f"identity {key}: {old!r} != {new!r}")
    if before["trace"] != after["trace"]:
        reasons.append(f"trace mode {before['trace']} != {after['trace']}")
    return reasons


def main(argv: list[str]) -> int:
    before, after = (json.loads(Path(p).read_text()) for p in argv)
    reasons = comparable(before, after)
    if reasons:
        print("refusing to compare results of different workloads:", file=sys.stderr)
        for r in reasons:
            print(f"  {r}", file=sys.stderr)
        return 2
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            print(f"{name:<40} {old['value']:>14.6g}  (missing after)")
            continue
        change = f"{new['value'] / old['value'] - 1:+.2%}" if old["value"] else ""
        print(f"{name:<40} {old['value']:>14.6g} {new['value']:>14.6g} {old['unit']:<8} {change}")
    for side, res in (("before", before), ("after", after)):
        print(f"{side}: correct={res['correct']} failed {res['failed']}/{res['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
