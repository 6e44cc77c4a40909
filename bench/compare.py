"""Compare two result files written by ``bench/run.py --out``.

Procedure a change that claims a gain must follow (choosing-metrics
guide, section 8): with the *same* ``bench/`` on both sides, run at
least ten pairs, alternating which side goes first, a different seed
per pair and the same seed within a pair::

    for s in 0 1 2 3 4 5 6 7 8 9; do
      (cd parent && python bench/run.py --seed $s --trace 0 --out ../A.json)
      (cd change && python bench/run.py --seed $s --trace 0 --out ../B.json)
      # next pair: change first, then parent
    done
    python bench/run.py compare A.json B.json

Per workload and end-to-end metric this prints both medians, the ratio
B/A (base: A), each side's spread (distance between first and third
quartile as a share of the median), the bound from ``BENCHMARK.json``
and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``worse``       it is;
``unresolved``  a side's spread is wider than the bound, so the medians
                cannot settle it -- unless every B run reads better
                than every A run (``ok``) or worse than every A run
                (``worse``).

More failed operations on B than on A is ``worse`` whatever the times.
Exit status 1 if any verdict is ``worse``.
"""

import json
import statistics
import sys


def spread(values):
    """(Q3 - Q1) / median; 0 for fewer than two runs."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a, b, bound, lower_is_better=True):
    wide = max(spread(a), spread(b)) > bound
    sign = 1.0 if lower_is_better else -1.0
    a = [sign * v for v in a]
    b = [sign * v for v in b]
    if wide:
        if max(b) < min(a):
            return "ok"
        if min(b) > max(a):
            return "worse"
        return "unresolved"
    med_a, med_b = statistics.median(a), statistics.median(b)
    return "worse" if med_b - med_a > bound * abs(med_a) else "ok"


def _load(path):
    """{workload: ({metric: [values]}, attempted, failed)} over every
    untraced run in the file."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    out = {}
    for run in runs:
        for workload, row in run["workloads"].items():
            record = row.get("trace0")
            if record is None:
                continue
            values, attempted, failed = out.get(workload, ({}, 0, 0))
            for metric, entry in record["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            out[workload] = (
                values, attempted + record["attempted"],
                failed + record["failed"],
            )
    return out


def main(argv, contract):
    if len(argv) != 2:
        sys.exit(__doc__)
    side_a, side_b = _load(argv[0]), _load(argv[1])
    any_worse = False
    print(f"{'workload':<13} {'metric':<18} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for spec in contract["workloads"]:
        name = spec["name"]
        if name not in side_a or name not in side_b:
            continue
        values_a, attempted_a, failed_a = side_a[name]
        values_b, attempted_b, failed_b = side_b[name]
        for metric in contract["end_to_end"]:
            a, b = values_a[metric["name"]], values_b[metric["name"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            result = verdict(
                a, b, metric["bound"], metric["better"] == "lower"
            )
            any_worse |= result == "worse"
            print(f"{name:<13} {metric['name']:<18} {med_a:>12.6g} "
                  f"{med_b:>12.6g} {med_b / med_a:>7.3f} {spread(a):>9.4f} "
                  f"{spread(b):>9.4f} {metric['bound']:>6}  {result} "
                  f"(n={len(a)}/{len(b)})")
        result = "worse" if failed_b > failed_a else "ok"
        any_worse |= result == "worse"
        print(f"{name:<13} {'failed_ops':<18} {failed_a:>6}/{attempted_a:<5} "
              f"{failed_b:>6}/{attempted_b:<5} {'':>7} {'':>9} {'':>9} "
              f"{0:>6}  {result}")
    return 1 if any_worse else 0
