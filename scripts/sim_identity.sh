#!/usr/bin/env bash
# Sim-identity check: the working tree must reproduce <rev>'s simulated
# figures exactly.
#
#   scripts/sim_identity.sh <rev> [seed ...]     # seeds default to 1 2
#
# Exports <rev> with `git archive` into a temporary directory and runs
# `perfbench/selfcheck.py --child W` for every workload, in that tree and
# in the working tree.  Fails when any sim_* figure or any work count
# outside the kernel's own (sim.events_per_op, sim.processes_per_op)
# differs, or a run fails a request.  Prints the kernel work-count deltas,
# which a change to how the simulator runs is allowed to move.

set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    echo "usage: $0 <rev> [seed ...]" >&2
    exit 2
fi
rev=$1
shift
[ $# -gt 0 ] || set -- 1 2
seeds=("$@")

base=$(mktemp -d)
trap 'rm -rf "$base"' EXIT
git archive "$rev" | tar -x -C "$base"
unset PYTHONPATH

status=0
for seed in "${seeds[@]}"; do
    for workload in tcp-serve gateway-sim dual-ssd; do
        before=$(python3 "$base/perfbench/selfcheck.py" --child "$workload" --seed "$seed" | tail -n 1)
        after=$(python3 perfbench/selfcheck.py --child "$workload" --seed "$seed" | tail -n 1)
        python3 - "$workload" "$seed" "$before" "$after" <<'EOF' || status=1
import json
import sys

workload, seed, before, after = sys.argv[1], sys.argv[2], *map(json.loads, sys.argv[3:])
kernel = ("sim.events_per_op", "sim.processes_per_op")
differ = sorted(key for key in set(before) | set(after)
                if key not in kernel and before.get(key) != after.get(key))
deltas = ", ".join(
    f"{key} {before[key]:.2f} -> {after[key]:.2f} "
    f"({(after[key] - before[key]) / before[key]:+.0%})"
    for key in kernel if key in before and key in after)
failed = after.get("failed", 0) + after.get("problems", 0)
verdict = "identical" if not (differ or failed) else "MISMATCH"
print(f"{workload} seed {seed}: {verdict}; {deltas}")
for key in differ:
    print(f"    {key}: {before.get(key)} -> {after.get(key)}")
if failed:
    print(f"    {failed} failed requests or problems")
sys.exit(1 if differ or failed else 0)
EOF
    done
done
exit $status
