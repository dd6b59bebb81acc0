"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload {tcp-serve,gateway-sim,dual-ssd} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints every ``end_to_end`` metric of ``BENCHMARK.json``;
``--trace 1`` runs the traced variant, prints the per-layer table, and
reports every ``per_layer`` metric.  Each workload module lists in
``PER_LAYER`` the metrics of the layers it exercises: one of those that
was not measured is a problem, and only the others read 0.  The last
stdout line is the result object; problems go to stderr.  Exit status:
0 when every output was correct, 1 on a correctness failure, 2 when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("tcp-serve", "gateway-sim", "dual-ssd")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import dual_ssd
    import gateway_sim
    import tcp_serve

    module = {"tcp-serve": tcp_serve, "gateway-sim": gateway_sim,
              "dual-ssd": dual_ssd}[args.workload]
    run = module.trace if args.trace else module.measure
    result = run(str(ROOT), args.seed, args.seconds)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    problems = list(result.problems)
    extra = sorted(set(result.metrics) - {m["name"] for m in declared})
    if extra:
        problems.append(f"metrics missing from BENCHMARK.json: {extra}")
    if args.trace:
        unlisted = sorted(set(result.metrics) - module.PER_LAYER)
        if unlisted:
            problems.append(f"{args.workload} measured per-layer metrics it "
                            f"does not list in PER_LAYER: {unlisted}")
    for entry in declared:
        name = entry["name"]
        if name in result.metrics:
            value = result.metrics[name]
        elif args.trace and name not in module.PER_LAYER:
            value = 0.0
        else:
            problems.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": entry["unit"]}
    if result.table:
        print(result.table)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = not problems and result.failed == 0
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
