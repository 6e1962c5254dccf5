"""Start ``repro serve`` traced: the benchmark's wrappers installed, under
``repro profile``.

    python3 perfbench/serve_launcher.py TRACE_JSON serve --shards 1 ...

The wrappers go in before the service forks its shard workers, so the
workers inherit them; ``repro profile`` records every span (the workers'
arrive over the shard pipe) and writes the trace to TRACE_JSON when the
server stops.
"""

from __future__ import annotations

import sys

from common import use_program_source


def main() -> int:
    trace_json, argv = sys.argv[1], sys.argv[2:]
    use_program_source()
    from tracing import install

    install()
    from repro.cli import main as repro_main

    return repro_main(["profile", "--trace-json", trace_json, *argv])


if __name__ == "__main__":
    sys.exit(main())
