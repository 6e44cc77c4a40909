#!/usr/bin/env python3
"""The repository's benchmark: text -> validated arrays, five workloads.

    python bench/run.py --workload W --seed S --seconds N --trace 0|1
        measure one workload and print, as the last line of standard
        output, one JSON object {"correct", "attempted", "failed",
        "metrics"}: the end-to-end metrics with --trace 0, the
        per-layer metrics with --trace 1.

    python bench/run.py [--seed S] [--quick] [--trace 0|1] [--out FILE]
        run every workload, one at a time; print every metric by name
        with its unit and append the rows to FILE (default
        bench/out/results.json).

All measuring happens in fresh child processes, never two at once.

    python bench/run.py compare A.json B.json
        compare two such files (see bench/compare.py).

See bench/README.md.
"""

import argparse
import importlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import rows  # noqa: E402  (needs HERE on the path)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def measure_part(args):
    """Hidden child mode (``--part K``): measure in this process and
    print the part record as the last line of standard output."""
    started = time.perf_counter()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    workload = importlib.import_module(f"workloads.{args.workload}")
    import harness

    part = harness.measure(
        workload, args.seed, args.seconds, bool(args.trace),
        args.part == 0, started, OUT_DIR,
    )
    print(json.dumps(part))


def run_workload(name, seed, seconds, trace, quick, contract):
    """Measure one workload in fresh processes, one after the other,
    and return its combined record (also written to bench/out/)."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("bench/run.py: src/repro not found; nothing to measure")
    count = 1 if trace or quick else rows.PARTS
    # a traced run keeps 40 % of the window for untraced rounds: the
    # traced rounds and the layer probes need the rest
    window = 0.0 if quick else seconds * 0.4 if trace else seconds / count
    parts = []
    for index in range(count):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", name, "--seed", str(seed),
             "--seconds", repr(window), "--trace", str(int(trace)),
             "--part", str(index)],
            stdout=subprocess.PIPE, text=True,
        )
        if done.returncode != 0:
            sys.exit(f"{name}: measuring process exited {done.returncode}")
        parts.append(json.loads(done.stdout.strip().splitlines()[-1]))
    record = rows.combine(name, seed, trace, parts)

    declared = contract["per_layer" if trace else "end_to_end"]
    unknown = set(record["metrics"]) - {m["name"] for m in declared}
    if unknown:
        sys.exit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # a layer off this workload's path did no work: report it as 0
    record["metrics"] = {
        m["name"]: {
            "value": record["metrics"].get(m["name"], 0.0),
            "unit": m["unit"],
        }
        for m in declared
    }
    with open(os.path.join(
        OUT_DIR, f"detail-{name}-seed{seed}-trace{int(trace)}.json"
    ), "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"{name} seed={seed}: {record['ops_per_round']} ops a round, "
          f"{count} process(es), one warm-up round each")
    for program, row in record["programs"].items():
        print(f"  {program:<16} fastest {row['min_s']:.6f} s/op, median "
              f"{row['median_s']:.6f}, slowest {row['max_s']:.6f} over "
              f"{row['rounds']} rounds")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:<40} {entry['value']:.6g} {entry['unit']}")
    for span, row in record.get("spans", {}).items():
        print(f"  span {span:<28} incl {row['incl_s']:.4f} s  self "
              f"{row['self_s']:.4f} s  calls {row['calls']}")
    return record


def run_one(args, contract):
    """Single-workload mode: the driver's contract."""
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        args.quick, contract,
    )
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def run_all(args, contract):
    """Every workload, one at a time, untraced then traced."""
    traces = [0, 1] if args.trace is None else [args.trace]
    table = {
        spec["name"]: {
            f"trace{trace}": run_workload(
                spec["name"], args.seed, args.seconds, bool(trace),
                args.quick, contract,
            )
            for trace in traces
        }
        for spec in contract["workloads"]
    }
    out = args.out or os.path.join(OUT_DIR, "results.json")
    runs = []
    if os.path.exists(out):
        with open(out) as handle:
            runs = json.load(handle)["runs"]
    runs.append({"seed": args.seed, "quick": args.quick, "workloads": table})
    with open(out, "w") as handle:
        json.dump({"runs": runs}, handle, indent=1)
    failed = sum(
        record["failed"] for row in table.values() for record in row.values()
    )
    print(f"wrote {out} ({len(runs)} run(s)); failed ops: {failed}")
    return 1 if failed else 0


def main(argv):
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:], load_contract())
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in contract["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=contract["run_seconds"],
        help="timed window per workload",
    )
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    parser.add_argument(
        "--quick", action="store_true",
        help="one timed round and one set-up, same shapes (smoke use)",
    )
    parser.add_argument("--out", help="results file to append to")
    parser.add_argument("--part", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.part is not None:
        return measure_part(args)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload:
        return run_one(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
