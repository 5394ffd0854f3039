"""Compare two directories of JSON reports, value by value.

    python3 tools/compare_reports.py A B

``A`` and ``B`` are directories written by ``cstarenv verify-all --json-out``
(or any two trees of ``.json`` files).  The tool prints every file that one
side has and the other lacks, and every difference that is not between two
floats (a changed string, integer, boolean or null, a missing key, a list of
another length, a value of another type), each with its JSON path.  For
every file both sides have it prints the largest relative difference
``|a - b| / max(|a|, |b|)`` over the floats at the same path.

The last line of standard output is one JSON object: the number of files
compared, the files only in ``A`` and only in ``B``, the number of
non-float differences, and the largest relative float difference overall.
The exit code is 1 when a file is missing on one side or a non-float value
differs, and 0 otherwise, whatever the floats do.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def report_files(root: Path) -> set[str]:
    """The ``.json`` files under ``root``, as POSIX paths relative to it."""
    return {p.relative_to(root).as_posix() for p in root.rglob("*.json") if p.is_file()}


def compare(a, b, path: str = "$") -> tuple[list[str], float]:
    """``(differences, largest relative float difference)`` of two JSON
    values; each difference names its JSON path."""
    if type(a) is float and type(b) is float:
        scale = max(abs(a), abs(b))
        return [], 0.0 if scale == 0.0 else abs(a - b) / scale
    if isinstance(a, dict) and isinstance(b, dict):
        diffs, worst = [], 0.0
        for key in [*a, *(k for k in b if k not in a)]:
            if key not in b:
                diffs.append(f"{path}.{key}: only in A")
            elif key not in a:
                diffs.append(f"{path}.{key}: only in B")
            else:
                d, w = compare(a[key], b[key], f"{path}.{key}")
                diffs += d
                worst = max(worst, w)
        return diffs, worst
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} vs {len(b)}"], 0.0
        diffs, worst = [], 0.0
        for i, (x, y) in enumerate(zip(a, b)):
            d, w = compare(x, y, f"{path}[{i}]")
            diffs += d
            worst = max(worst, w)
        return diffs, worst
    if type(a) is not type(b) or a != b:
        return [f"{path}: {json.dumps(a)} vs {json.dumps(b)}"], 0.0
    return [], 0.0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_reports.py A B", file=sys.stderr)
        return 2
    a_root, b_root = Path(args[0]), Path(args[1])
    a_files, b_files = report_files(a_root), report_files(b_root)
    only_a, only_b = sorted(a_files - b_files), sorted(b_files - a_files)
    for name in only_a:
        print(f"only in A: {name}")
    for name in only_b:
        print(f"only in B: {name}")
    common = sorted(a_files & b_files)
    differences, worst = 0, 0.0
    for name in common:
        a = json.loads((a_root / name).read_text())
        b = json.loads((b_root / name).read_text())
        diffs, file_worst = compare(a, b)
        for d in diffs:
            print(f"{name}: {d}")
        print(f"{name}: largest relative float difference {file_worst:.3e}")
        differences += len(diffs)
        worst = max(worst, file_worst)
    summary = {
        "files": len(common),
        "only_a": only_a,
        "only_b": only_b,
        "differences": differences,
        "max_rel_float": worst,
    }
    print(json.dumps(summary))
    return 1 if only_a or only_b or differences else 0


if __name__ == "__main__":
    sys.exit(main())
