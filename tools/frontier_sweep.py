"""Run the tensor-pair checks on every ordered pair of a corpus, one line each.

    python3 tools/frontier_sweep.py CORPUS_DIR [--max-product N]

``CORPUS_DIR`` is a directory written by ``cstarenv corpus``.  The sweep
covers every ordered pair of its systems (a system with itself included)
whose ambient dimensions are both at least 2 and whose product is at most
``N`` (default 12).  It runs in one process on one BLAS thread, as
``cstarenv verify-all`` does, and analyzes each factor once.  The package is
imported from the ``src`` directory next to this file, so a checkout sweeps
with its own code.

Each pair prints one line: the pair, its status, the killed pair blocks of
the product's Šilov ideal and the seconds ``analyze_pair`` took.  The status
is ``verified``, ``failed`` (a check did not hold), ``inconclusive``
(:class:`InconclusiveError`), or the class name of any other error, raised
by the pair or by a factor's analysis.  The last line of standard output is
one JSON object: the number of pairs, how many verified, how many were
inconclusive, how many ended otherwise, and the total seconds, factor
analyses included.  The exit code is 0 when every pair verifies and 1
otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cstarenv.analysis import AnalysisConfig, analyze_pair, analyze_system  # noqa: E402
from cstarenv.cli import _set_blas_threads  # noqa: E402
from cstarenv.corpus import load_manifest  # noqa: E402
from cstarenv.errors import InconclusiveError  # noqa: E402
from cstarenv.specio import load_system, opsys_of  # noqa: E402


def status_of(exc: Exception) -> str:
    return "inconclusive" if isinstance(exc, InconclusiveError) else type(exc).__name__


def sweep(corpus_dir: Path, max_product: int) -> dict:
    """Print one line per pair and return the summary."""
    start = time.perf_counter()
    config = AnalysisConfig()
    specs = [load_system(corpus_dir / e["file"]) for e in load_manifest(corpus_dir)["systems"]]
    specs = [s for s in specs if s.ambient_dim >= 2]
    factors = {}

    def factor(spec):
        if spec.name not in factors:
            try:
                factors[spec.name] = analyze_system(opsys_of(spec, config.tol), config)
            except Exception as exc:  # noqa: BLE001 - reported as the pairs' status
                factors[spec.name] = exc
        return factors[spec.name]

    counts = {"verified": 0, "inconclusive": 0, "other": 0}
    for left in specs:
        for right in specs:
            if left.ambient_dim * right.ambient_dim > max_product:
                continue
            killed, seconds = "-", 0.0
            a, b = factor(left), factor(right)
            if isinstance(a, Exception) or isinstance(b, Exception):
                status = status_of(a if isinstance(a, Exception) else b)
            else:
                t0 = time.perf_counter()
                try:
                    pa = analyze_pair(a, b, config)
                except Exception as exc:  # noqa: BLE001 - reported as the status
                    status = status_of(exc)
                else:
                    status = "verified" if pa.verified else "failed"
                    killed = str(sorted(pa.factorization.product_killed_pairs))
                seconds = time.perf_counter() - t0
            counts[status if status in counts else "other"] += 1
            print(f"{left.name} (x) {right.name}  {status}  killed {killed}  {seconds:.3f}s")
    return {
        "pairs": sum(counts.values()),
        **counts,
        "total_s": round(time.perf_counter() - start, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus_dir", type=Path)
    parser.add_argument("--max-product", type=int, default=12)
    args = parser.parse_args(argv)
    previous = _set_blas_threads(1)
    try:
        summary = sweep(args.corpus_dir, args.max_product)
    finally:
        if previous is not None:
            _set_blas_threads(previous)
    print(json.dumps(summary))
    return 0 if summary["verified"] == summary["pairs"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
