#!/usr/bin/env python3
"""Net ``src/`` line delta of the working tree against a git ref.

Usage::

    python scripts/src_delta.py [BASE]      # BASE defaults to HEAD

Prints, per changed file under ``src/`` and in total, the lines added,
removed and net — once counting every line (what ``git diff --numstat``
reports) and once counting code lines only.  A code line is a line holding
at least one token that is not a comment and not part of a docstring;
blank lines never count.  Docstrings are detected with :mod:`tokenize`: a
logical line made only of string literals that opens a module or follows a
line ending in ``:`` (a ``def`` / ``class`` / block header).

Untracked files under ``src/`` count as wholly added.  The script diffs
the checkout it lives in, so it runs from any directory.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

_HUNK = re.compile(r"^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@")
_LAYOUT = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)


def code_lines(source: str) -> set[int]:
    """1-based numbers of the lines of ``source`` that hold code."""
    lines: set[int] = set()
    logical: list[tokenize.TokenInfo] = []
    opens_block = True  # the module start may hold a docstring too
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        if token.type != tokenize.NEWLINE:
            logical.append(token)
            continue
        if not logical:
            continue
        docstring = opens_block and all(t.type == tokenize.STRING for t in logical)
        if not docstring:
            for t in logical:
                lines.update(range(t.start[0], t.end[0] + 1))
        opens_block = logical[-1].string == ":"
        logical = []
    return lines


def _classify(path: str, source: str) -> set[int]:
    if path.endswith(".py"):
        return code_lines(source)
    return {i for i, line in enumerate(source.splitlines(), 1) if line.strip()}


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def _changed_ranges(base: str) -> dict[str, tuple[list[int], list[int]]]:
    """Per path: (removed old line numbers, added new line numbers)."""
    diff = _git("diff", "-U0", "--no-color", "--no-renames", base, "--", "src")
    ranges: dict[str, tuple[list[int], list[int]]] = {}
    path = None
    for line in diff.splitlines():
        if line.startswith("diff --git "):
            path = line.split(" b/", 1)[1]
            ranges[path] = ([], [])
            continue
        match = _HUNK.match(line)
        if match and path is not None:
            old_start, old_len, new_start, new_len = match.groups()
            old_len = 1 if old_len is None else int(old_len)
            new_len = 1 if new_len is None else int(new_len)
            removed, added = ranges[path]
            removed.extend(range(int(old_start), int(old_start) + old_len))
            added.extend(range(int(new_start), int(new_start) + new_len))
    for path in _git("ls-files", "--others", "--exclude-standard", "--", "src").split():
        count = len(Path(path).read_text().splitlines())
        ranges[path] = ([], list(range(1, count + 1)))
    return ranges


def delta(base: str) -> list[tuple[str, int, int, int, int]]:
    """Rows ``(path, added, removed, code_added, code_removed)``."""
    rows = []
    for path, (removed, added) in sorted(_changed_ranges(base).items()):
        old = _git("show", f"{base}:{path}") if removed else ""
        new = Path(path).read_text() if added else ""
        old_code = _classify(path, old)
        new_code = _classify(path, new)
        rows.append(
            (
                path,
                len(added),
                len(removed),
                sum(1 for i in added if i in new_code),
                sum(1 for i in removed if i in old_code),
            )
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", default="HEAD", help="git ref (default HEAD)")
    args = parser.parse_args(argv)
    os.chdir(Path(__file__).resolve().parent.parent)
    rows = delta(args.base)
    print(
        f"{'file':<48} {'+all':>6} {'-all':>6} {'net':>6}  "
        f"{'+code':>6} {'-code':>6} {'net':>6}"
    )
    totals = [0, 0, 0, 0]
    for path, added, removed, code_added, code_removed in rows:
        print(
            f"{path:<48} {added:>6} {removed:>6} {added - removed:>+6}  "
            f"{code_added:>6} {code_removed:>6} {code_added - code_removed:>+6}"
        )
        for i, value in enumerate((added, removed, code_added, code_removed)):
            totals[i] += value
    added, removed, code_added, code_removed = totals
    print(
        f"{'total':<48} {added:>6} {removed:>6} {added - removed:>+6}  "
        f"{code_added:>6} {code_removed:>6} {code_added - code_removed:>+6}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
