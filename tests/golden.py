#!/usr/bin/env python3
"""Runs a command and compares its stdout with a golden file.

Usage: golden.py GOLDEN_FILE COMMAND [ARG...]

Passes when COMMAND exits 0 and its stdout equals GOLDEN_FILE byte for
byte. Otherwise prints a unified diff naming the file, or the exit code,
and exits 1. There is no update mode: a change that legitimately moves a
row regenerates the file with a shell redirect and says why in
CHANGES.md. From the repository root, with the build in build/:

  (cd build/bench && ./bench_table1) > tests/golden/bench_table1.txt
  ./build/tools/rtoffload_cli --spec examples/specs/fig3.json \\
      > tests/golden/cli_fig3.txt
"""
import difflib
import pathlib
import subprocess
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    golden = pathlib.Path(sys.argv[1])
    run = subprocess.run(sys.argv[2:], stdout=subprocess.PIPE)
    want = golden.read_bytes()
    ok = True
    if run.stdout != want:
        ok = False
        sys.stdout.writelines(difflib.unified_diff(
            want.decode(errors="replace").splitlines(keepends=True),
            run.stdout.decode(errors="replace").splitlines(keepends=True),
            fromfile=str(golden), tofile="stdout"))
        print(f"\n{golden}: stdout differs")
    if run.returncode != 0:
        ok = False
        print(f"{golden}: {sys.argv[2]} exited {run.returncode}, expected 0")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
