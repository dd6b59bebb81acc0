"""``repro serve`` with the benchmark's host clock running in its process.

Usage, from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/clocked_serve.py [repro serve arguments]

Runs ``repro.cli.main(["serve", ...])`` unchanged while
:data:`harness.CLOCK` times a reference slice every
:data:`harness.TICK_S` inside this process.  On ``SIGUSR1`` it prints one
line ``clock <wall> <slice seconds> <slices>`` to stdout, so the
``tcp-serve`` client can convert the server's spans to reference-host
seconds.
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


def report(_signum, _frame) -> None:
    wall, slice_s, slices = harness.CLOCK.read()
    print(f"clock {wall!r} {slice_s!r} {slices}", flush=True)


def main() -> int:
    from repro.cli import main as repro_main

    signal.signal(signal.SIGUSR1, report)
    with harness.CLOCK.running():
        return repro_main(["serve", *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
