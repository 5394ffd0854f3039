"""Batch front end.

Four subcommands: ``analyze`` runs the single-system pipeline on one input
document, ``tensor`` runs the four pair checks on two documents, ``corpus``
writes the standard example corpus, and ``verify-all`` sweeps a corpus
directory and aggregates.  Exit codes are stable API: 0 success, 1 input
problem, 2 failed theorem check or certificate, 3 inconclusive numerics.
Each subcommand takes only the flags it reads.

Reports are deterministic bytes for a fixed input, seed, flag set, and
package version; wall-clock chatter goes to stderr only.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import os
import sys
import time
from concurrent import futures
from pathlib import Path

import numpy as np

from .analysis import AnalysisConfig, PairAnalysis, SystemAnalysis, analyze_pair, analyze_system
from .corpus import MAX_COUNT, load_manifest, pair_report_name, write_corpus
from .errors import (
    DecompositionError,
    InconclusiveError,
    InputError,
    StructuralError,
    VerificationError,
)
from .linalg import DEFAULT_TOL
from .specio import (
    SCHEMA,
    VERSION,
    SystemSpec,
    _flags_dict,
    _tol_dict,
    analysis_report,
    atomic_write_text,
    dump_report,
    load_system,
    opsys_of,
    pair_report,
    spec_digest,
)

_TOL_FLAGS = ("tol_rank", "tol_psd", "tol_norm")

# the one map from exceptions to a verify-all row status, an exit code and
# the prefix of the message on stderr
_FAILURES = (VerificationError, StructuralError, DecompositionError)
_ERRORS = (
    ((InputError, OSError), "input", 1, "error"),
    (_FAILURES, "failed", 2, "failure"),
    ((InconclusiveError,), "inconclusive", 3, "inconclusive"),
)
_HANDLED = tuple(t for types, *_ in _ERRORS for t in types)
# verify-all pads its status column to the longest status plus one space
_STATUS_WIDTH = max(len(s) for s in ("ok", "skipped", *(e[1] for e in _ERRORS))) + 1


def _classify(exc: Exception) -> tuple[str, int, str]:
    """``(status, exit code, message prefix)`` of a handled exception."""
    for types, status, code, prefix in _ERRORS:
        if isinstance(exc, types):
            return status, code, prefix
    raise exc


class _Parser(argparse.ArgumentParser):
    """Argument errors map to the input exit code instead of argparse's 2."""

    def error(self, message):
        raise InputError(message)


def _add_seed_quiet(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed",
        type=int,
        default=1,
        help="seed of the corpus generator and of the block decomposition's "
        "splitting elements; the probes use a fixed seed (default 1)",
    )
    p.add_argument("--quiet", action="store_true", help="suppress the human summary")


def _add_analysis(p: argparse.ArgumentParser) -> None:
    """The flags of the subcommands that analyze systems."""
    _add_seed_quiet(p)
    p.add_argument("--tol-rank", type=float, default=None, help="rank/membership tolerance")
    p.add_argument("--tol-psd", type=float, default=None, help="positivity tolerance")
    p.add_argument("--tol-norm", type=float, default=None, help="norm-drop threshold")
    p.add_argument(
        "--max-ambient-product",
        type=int,
        default=36,
        help="refuse systems whose ambient dimension, and pairs whose product "
        "ambient, exceeds this (default 36)",
    )
    p.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="write the report here (a directory for verify-all)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cstarenv",
        description="Minimal C*-extensions of finite-dimensional operator systems: "
        "block structure, boundary ideals, tensor-pair and propagation checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    a = sub.add_parser("analyze", help="full single-system pipeline on one document")
    a.add_argument("path", help="system document (JSON)")
    _add_analysis(a)
    a.set_defaults(func=cmd_analyze)

    t = sub.add_parser("tensor", help="the four pair checks on two documents")
    t.add_argument("left", help="left system document")
    t.add_argument("right", help="right system document")
    _add_analysis(t)
    t.set_defaults(func=cmd_tensor)

    c = sub.add_parser("corpus", help="write the standard example corpus")
    c.add_argument("out_dir", help="target directory")
    c.add_argument(
        "--count",
        type=int,
        default=20,
        help=f"number of systems, at most {MAX_COUNT} (default 20)",
    )
    _add_seed_quiet(c)
    c.set_defaults(func=cmd_corpus)

    v = sub.add_parser("verify-all", help="analyze every system and pair in a corpus")
    v.add_argument("corpus_dir", help="directory containing manifest.json")
    _add_analysis(v)
    v.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    v.set_defaults(func=cmd_verify_all)

    return parser


def _check_seed(args) -> None:
    if args.seed < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")


def _config_from(args) -> AnalysisConfig:
    overrides = {key: getattr(args, key) for key in _TOL_FLAGS if getattr(args, key) is not None}
    tol = DEFAULT_TOL.replace(**overrides) if overrides else DEFAULT_TOL
    _check_seed(args)
    if args.max_ambient_product < 1:
        raise InputError("--max-ambient-product must be positive")
    return AnalysisConfig(
        seed=args.seed,
        tol=tol,
        max_ambient_product=args.max_ambient_product,
    )


def _fmt_blocks(blocks) -> str:
    return " ".join(f"({d},{m})" for d, m in blocks)


def _print_analysis(report: dict) -> None:
    agree = report["silov_killed"]["agreement"]
    print(
        f"{report['name']}: ambient {report['ambient_dim']}, "
        f"system dim {report['system_dim']}, algebra dim {report['algebra_dim']}"
    )
    print(f"  blocks: {_fmt_blocks(report['blocks'])}")
    print(f"  boundary reps: {report['boundary_reps']}")
    print(
        f"  silov killed: dk {report['silov_killed']['dk']} "
        f"lattice {report['silov_killed']['lattice']} "
        f"({'agree' if agree else 'DISAGREE'})"
    )
    prop = report["propagation"]
    print(
        f"  envelope blocks: {_fmt_blocks(report['envelope_blocks'])}; "
        f"propagation {prop['value']} chain {tuple(prop['chain'])}"
    )


def _load(path, config: AnalysisConfig) -> SystemSpec:
    """Read one system document, refusing one whose ``ambient_dim`` exceeds
    ``max_ambient_product`` before anything is built: the commutant's
    Sylvester stack alone holds n⁴ complex entries per basis element."""
    spec = load_system(path)
    if spec.ambient_dim > config.max_ambient_product:
        raise InputError(
            f"{path}: ambient_dim {spec.ambient_dim} exceeds the cap "
            f"{config.max_ambient_product} (--max-ambient-product)"
        )
    return spec


def _analyze(spec: SystemSpec, config: AnalysisConfig) -> SystemAnalysis:
    return analyze_system(
        opsys_of(spec, config.tol), config, name=spec.name, digest=spec_digest(spec)
    )


def cmd_analyze(args) -> int:
    config = _config_from(args)
    t0 = time.perf_counter()
    sa = _analyze(_load(args.path, config), config)
    report = analysis_report(sa)
    if args.json_out:
        atomic_write_text(args.json_out, dump_report(report))
    if not args.quiet:
        _print_analysis(report)
        print(f"analyzed in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return 0


_CHECK_ORDER = (
    "envelope_tensor_factorization",
    "boundary_pair_closure",
    "power_compatibility",
    "propagation_max",
)


def _print_pair(report: dict) -> None:
    print(f"{report['left']['name']} (x) {report['right']['name']}:")
    fac = report["checks"]["envelope_tensor_factorization"]
    print(
        f"  product blocks: {_fmt_blocks(report['product_blocks'])}; "
        f"killed pairs {fac['product_killed_pairs']}"
    )
    pm = report["checks"]["propagation_max"]
    print(
        f"  propagation: left {pm['left']}, right {pm['right']}, "
        f"product {pm['product']} (expected {pm['expected']})"
    )
    for check in _CHECK_ORDER:
        verdict = "PASS" if report["checks"][check]["verified"] else "FAIL"
        print(f"  {check}: {verdict}")


def cmd_tensor(args) -> int:
    config = _config_from(args)
    t0 = time.perf_counter()
    specs = [_load(path, config) for path in (args.left, args.right)]
    left, right = (_analyze(spec, config) for spec in specs)
    pa = analyze_pair(left, right, config)
    report = pair_report(pa)
    if args.json_out:
        atomic_write_text(args.json_out, dump_report(report))
    if not args.quiet:
        _print_pair(report)
        print(f"verified in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return 0 if pa.verified else 2


def cmd_corpus(args) -> int:
    _check_seed(args)
    manifest = write_corpus(args.out_dir, seed=args.seed, count=args.count)
    if not args.quiet:
        print(
            f"wrote {len(manifest['systems'])} systems and manifest.json "
            f"to {args.out_dir}"
        )
    return 0


# verify-all workers return tagged outcomes instead of raising, so that the
# same code path works inline and through a process pool


def _safe_analyze(path_str: str, config: AnalysisConfig):
    try:
        sa = _analyze(_load(path_str, config), config)
    except _HANDLED as exc:
        return (_classify(exc)[0], str(exc))
    return ("ok", sa)


def _safe_pair(left: SystemAnalysis, right: SystemAnalysis, config: AnalysisConfig):
    try:
        pa = analyze_pair(left, right, config)
    except _HANDLED as exc:
        return (_classify(exc)[0], str(exc))
    return ("failed", pa) if not pa.verified else ("ok", pa)


def _set_blas_threads(n: int) -> int | None:
    """Run numpy's OpenBLAS on ``n`` threads; returns the previous count, or
    None when numpy bundles no OpenBLAS."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib_path in glob.glob(pattern):
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                previous = get()
                put(n)
                return previous
    return None


def _run_tasks(fn, tasks, jobs: int):
    """Run ``fn`` over ``tasks`` inline, or on ``jobs`` worker processes that
    each run on one BLAS thread, as :func:`main` does: ``jobs`` workers on
    more threads would oversubscribe the cores."""
    if jobs > 1 and len(tasks) > 1:
        with futures.ProcessPoolExecutor(
            max_workers=jobs, initializer=_set_blas_threads, initargs=(1,)
        ) as pool:
            return list(pool.map(fn, *zip(*tasks)))
    return [fn(*task) for task in tasks]


def cmd_verify_all(args) -> int:
    config = _config_from(args)
    if args.jobs < 1:
        raise InputError(f"--jobs must be positive, got {args.jobs}")
    t0 = time.perf_counter()
    corpus_dir = Path(args.corpus_dir)
    manifest = load_manifest(corpus_dir)
    out_dir = Path(args.json_out) if args.json_out else None

    sys_rows = []
    analyses: dict[str, SystemAnalysis] = {}
    entries = manifest["systems"]
    outcomes = _run_tasks(
        _safe_analyze,
        [(str(corpus_dir / e["file"]), config) for e in entries],
        args.jobs,
    )
    for entry, (status, payload) in zip(entries, outcomes):
        row = {"name": entry["name"], "file": entry["file"], "status": status}
        if isinstance(payload, SystemAnalysis):
            analyses[entry["name"]] = payload
            report = analysis_report(payload)
            row["silov_killed"] = report["silov_killed"]
            row["propagation"] = payload.prop.value
            if out_dir is not None:
                atomic_write_text(
                    out_dir / f"{entry['name']}.analysis.json", dump_report(report)
                )
        else:
            row["detail"] = payload
        sys_rows.append(row)

    pair_rows = []
    pair_tasks = []
    pair_meta = []
    for left_name, right_name in manifest["pairs"]:
        row = {"left": left_name, "right": right_name}
        left = analyses.get(left_name)
        right = analyses.get(right_name)
        if left is None or right is None:
            row["status"] = "skipped"
            row["detail"] = "factor analysis unavailable"
            pair_rows.append(row)
            continue
        pair_meta.append(row)
        pair_tasks.append((left, right, config))
        pair_rows.append(row)
    pair_outcomes = _run_tasks(_safe_pair, pair_tasks, args.jobs)
    for row, (status, payload) in zip(pair_meta, pair_outcomes):
        row["status"] = status
        if isinstance(payload, PairAnalysis):
            report = pair_report(payload)
            row["passed"] = payload.verified
            row["checks"] = {c: report["checks"][c]["verified"] for c in _CHECK_ORDER}
            if out_dir is not None:
                atomic_write_text(
                    out_dir / pair_report_name(row["left"], row["right"]),
                    dump_report(report),
                )
        else:
            row["detail"] = payload

    statuses = [r["status"] for r in sys_rows] + [r["status"] for r in pair_rows]
    counts = {
        "input": statuses.count("input"),
        "failed": statuses.count("failed"),
        "skipped": statuses.count("skipped"),
        "inconclusive": statuses.count("inconclusive"),
    }
    summary = {
        "schema": SCHEMA,
        "kind": "summary",
        "version": VERSION,
        "seed": config.seed,
        "tolerances": _tol_dict(config.tol),
        "flags": _flags_dict(config),
        "systems": sys_rows,
        "pairs": pair_rows,
        "failures": counts,
    }
    if out_dir is not None:
        atomic_write_text(out_dir / "summary.json", dump_report(summary))

    if not args.quiet:
        width = max((len(r["name"]) for r in sys_rows), default=4) + 2
        sw = _STATUS_WIDTH
        print(f"{'SYSTEM':<{width}}{'STATUS':<{sw}}SILOV      PROP")
        for r in sys_rows:
            silov = r.get("silov_killed", {}).get("lattice", "-")
            prop = r.get("propagation", "-")
            print(f"{r['name']:<{width}}{r['status']:<{sw}}{str(silov):<11}{prop}")
            if "detail" in r:
                print(f"{'':<{width}}  {r['detail']}")
        pw = max((len(r["left"] + r["right"]) for r in pair_rows), default=8) + 7
        print(f"\n{'PAIR':<{pw}}{'STATUS':<{sw}}CHECKS")
        for r in pair_rows:
            label = f"{r['left']} (x) {r['right']}"
            checks = r.get("checks")
            summary_str = (
                "-" if checks is None else f"{sum(checks.values())}/{len(checks)}"
            )
            print(f"{label:<{pw}}{r['status']:<{sw}}{summary_str}")
            if "detail" in r:
                print(f"{'':<{pw}}  {r['detail']}")
        print(f"verified corpus in {time.perf_counter() - t0:.1f}s", file=sys.stderr)

    if counts["input"]:
        return 1
    if counts["failed"] or counts["skipped"]:
        return 2
    if counts["inconclusive"]:
        return 3
    return 0


def main(argv=None) -> int:
    """Every subcommand runs on one BLAS thread: the matrices are too small to
    gain from more, and a report's bytes must not depend on the pool size.
    The caller's thread count is restored on return."""
    previous = _set_blas_threads(1)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except _HANDLED as exc:
        _, code, prefix = _classify(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code
    finally:
        if previous is not None:
            _set_blas_threads(previous)


if __name__ == "__main__":
    raise SystemExit(main())
