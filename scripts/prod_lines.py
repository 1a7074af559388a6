#!/usr/bin/env python3
"""Prints production Rust lines per crate, then the total.

Counts every `.rs` file under `crates/*/src` and `src/` (the offline shims
live under `crates/compat/*/src`, so they are not counted). Each file is cut
at its unit-test module: the first `#[cfg(test)]` line whose next non-blank
line opens `mod tests`. Other `#[cfg(test)]` items (test-only fields,
helpers) count as production, since they sit in production files.

Run from the repository root: `python3 scripts/prod_lines.py`.
"""

import glob
import os
import re

TEST_MOD = re.compile(r"\s*(pub(\([^)]*\))?\s+)?mod\s+tests\b")


def production_lines(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if line.strip() != "#[cfg(test)]":
            continue
        rest = (l for l in lines[i + 1 :] if l.strip())
        if TEST_MOD.match(next(rest, "")):
            return i
    return len(lines)


def main():
    roots = sorted(glob.glob("crates/*/src")) + ["src"]
    total = 0
    for root in roots:
        count = sum(
            production_lines(os.path.join(d, name))
            for d, _, names in os.walk(root)
            for name in names
            if name.endswith(".rs")
        )
        total += count
        print(f"{count:7} {root}")
    print(f"{total:7} total")


if __name__ == "__main__":
    main()
