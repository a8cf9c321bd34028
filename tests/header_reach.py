#!/usr/bin/env python3
"""Fails when a header under src/ is reached only by tests.

A header counts as reached when some file in src/, tools/, examples/ or
bench/ other than its own .cpp includes it. Code that only its own test
uses belongs in tests/support/ (an oracle for other code) or nowhere.

Usage: header_reach.py [REPO_ROOT]   (default: the parent of this file's
directory). Prints each unreached header and exits 1 if there is one.
"""
import pathlib
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)
CLIENT_DIRS = ("src", "tools", "examples", "bench")


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                        else pathlib.Path(__file__).resolve().parent.parent)
    src = root / "src"
    includers: dict[str, set[pathlib.Path]] = {}
    for d in CLIENT_DIRS:
        for f in (root / d).rglob("*"):
            if f.suffix in (".cpp", ".hpp"):
                for name in INCLUDE.findall(f.read_text(errors="replace")):
                    includers.setdefault(name, set()).add(f)
    unreached = []
    for header in sorted(src.rglob("*.hpp")):
        own_cpp = header.with_suffix(".cpp")
        users = includers.get(header.relative_to(src).as_posix(), set())
        if not users - {header, own_cpp}:
            unreached.append(header.relative_to(root).as_posix())
    for h in unreached:
        print(f"{h}: included by no file in {', '.join(CLIENT_DIRS)} "
              "but its own .cpp")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
