"""Determinism self-check: same seed, two processes, identical figures.

Every ``sim_*`` metric and every deterministic work count (``*_per_op``
counts, ``ftl.*``, ``db.lsm.*``, ``gateway.cmds_per_barrier``, the sim-clock
histogram percentiles...) of each workload must repeat exactly when the
workload runs twice with the same seed.  Each run happens in its own
interpreter with a different ``PYTHONHASHSEED``, so hash-order
dependence is caught too.  For ``tcp-serve`` the figures are those of its
sim-clock twin; its real-socket numbers are wall-clock and excluded.

Usage, from the repository root::

    python3 perfbench/selfcheck.py [--seed N] [--workload W ...]

Exits 0 when every workload repeats exactly with no failed request and
no problem, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tcp-serve", "gateway-sim", "dual-ssd")


def _figures(workload: str, seed: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import dual_ssd
    import gateway_sim
    import tcp_serve

    module = {"tcp-serve": tcp_serve, "gateway-sim": gateway_sim,
              "dual-ssd": dual_ssd}[workload]
    return module.deterministic(str(ROOT), seed)


def _run_child(workload: str, seed: int, hash_seed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, str(HERE / "selfcheck.py"), "--child", workload,
         "--seed", str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(_figures(args.child, args.seed)))
        return 0
    status = 0
    for workload in args.workload or WORKLOADS:
        first = _run_child(workload, args.seed, hash_seed=1)
        second = _run_child(workload, args.seed, hash_seed=2)
        differ = sorted(key for key in first if first[key] != second.get(key))
        failed = first["failed"] + second["failed"]
        problems = first["problems"] + second["problems"]
        verdict = ("identical" if not (differ or failed or problems)
                   else "MISMATCH")
        print(f"{workload}: {len(first)} figures {verdict}"
              + (f"; differ: {differ}" if differ else "")
              + (f"; {failed} failed requests" if failed else "")
              + (f"; {problems} problems" if problems else ""))
        if differ or failed or problems:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
