#!/usr/bin/env python
"""Thin wrapper over the ``repro bench`` subcommand — the perf harness.

Run named perf scenarios and emit canonical ``BENCH_<scenario>.json``
records (schema ``repro-bench/1``) under ``benchmarks/out/``::

    PYTHONPATH=src python benchmarks/harness.py --quick
    PYTHONPATH=src python benchmarks/harness.py --scenario refinement,sweep
    PYTHONPATH=src python benchmarks/harness.py --check benchmarks/out

Equivalent to the installed ``repro bench`` subcommand.
"""

from __future__ import annotations

import sys

if __name__ == "__main__":
    from repro.cli import main

    sys.exit(main(["bench", *sys.argv[1:]]))
