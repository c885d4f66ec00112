"""Compare two benchmark records written by ``perfbench/run.py --out``.

Usage (from the root of a checkout)::

    python3 perfbench/compare.py BASE.json NEW.json

For each end-to-end metric of ``BENCHMARK.json`` present in both records it
prints the relative change and whether the change stays within the metric's
bound in its worse direction; for each per-layer metric it prints the
change.  It also says whether the two answers digests match, which they
must whenever both commits claim bit-identical plans.  Exits 1 when an
end-to-end metric is worse than its bound, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _delta(base: float, new: float) -> float:
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    return (new - base) / abs(base)


def compare(base: dict, new: dict, spec: dict) -> tuple:
    """(report lines, number of end-to-end metrics worse than bound)."""
    lines = [f"workload  {base.get('workload')} -> {new.get('workload')}"]
    for side, rec in (("base", base), ("new", new)):
        env = rec.get("environment", {})
        lines.append(f"{side:9s} commit {env.get('commit')} seed "
                     f"{env.get('seed')} nproc {env.get('nproc')} python "
                     f"{env.get('python')} numpy {env.get('numpy')}")
    same = base.get("answers_digest") == new.get("answers_digest")
    lines.append(f"answers   digest {'equal' if same else 'DIFFERS'}")
    bm, nm = base.get("metrics", {}), new.get("metrics", {})
    regressions = 0
    for m in spec["end_to_end"]:
        name = m["name"]
        if name not in bm or name not in nm:
            continue
        b, n = bm[name]["value"], nm[name]["value"]
        d = _delta(b, n)
        worse = d if m["better"] == "lower" else -d
        bad = worse > m["bound"]
        regressions += bad
        lines.append(f"{name:30s} {b:14.6g} -> {n:14.6g} {m['unit']:6s} "
                     f"{100 * d:+8.2f}%  bound {100 * m['bound']:.0f}% "
                     f"{'WORSE THAN BOUND' if bad else 'ok'}")
    for m in spec["per_layer"]:
        name = m["name"]
        if name not in bm or name not in nm:
            continue
        b, n = bm[name]["value"], nm[name]["value"]
        lines.append(f"{name:40s} {b:14.6g} -> {n:14.6g} {m['unit']:6s} "
                     f"{100 * _delta(b, n):+8.2f}%")
    return lines, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    lines, regressions = compare(base, new, spec)
    print("\n".join(lines))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
