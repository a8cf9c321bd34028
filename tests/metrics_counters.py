#!/usr/bin/env python3
"""Prints the telemetry counters rtoffload_cli writes for scenario documents.

Usage: metrics_counters.py RTOFFLOAD_CLI DOC.json [DOC.json ...]

Runs `RTOFFLOAD_CLI --spec DOC --metrics-out <tmp>.json` for each document
and prints one JSON object mapping each document's file stem to the
`counters` object of its snapshot, in the snapshot's own key order. Gauges
and histograms are left out: they hold wall-clock values. Exits 1 when a
run exits non-zero. With golden.py this is the counters golden file; from
the repository root, with the build in build/:

  python3 tests/metrics_counters.py build/tools/rtoffload_cli \\
      examples/specs/fig3.json examples/specs/adaptive_outage.json \\
      examples/specs/montecarlo.json > tests/golden/cli_counters.txt
"""
import json
import pathlib
import subprocess
import sys
import tempfile


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    cli, docs = sys.argv[1], sys.argv[2:]
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for doc in docs:
            snapshot = pathlib.Path(tmp) / "metrics.json"
            run = subprocess.run(
                [cli, "--spec", doc, "--metrics-out", str(snapshot)],
                stdout=subprocess.DEVNULL)
            if run.returncode != 0:
                print(f"{cli} --spec {doc} exited {run.returncode}",
                      file=sys.stderr)
                return 1
            out[pathlib.Path(doc).stem] = json.loads(
                snapshot.read_text())["counters"]
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
