"""The cstarenv benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload systems|pairs|blocks --seed N --seconds S --trace 0|1

Set-up imports the package from ``src/``, generates the workload's inputs
from the seed, and runs one warm-up analysis (plus, for ``pairs``, the
factor analyses its pairs reuse).  It is measured three times, here and in
two child processes (``--setup-only``) run one after the other, because only
a fresh interpreter pays the import and lazy LAPACK costs a command-line run
pays; ``setup_s`` is the median.

``--trace 0`` repeats untraced sweeps over the workload's items, at least
three and more while the run, set-up included, fits in ``--seconds``, and
prints the end-to-end metrics: ``setup_s``; ``wall_s``, the sum over items
of each item's median seconds across sweeps (a median-filtered sweep,
robust to a stall on a shared machine); and ``peak_rss_mb``.
``item_p50_s``, the median of those item medians, is printed and recorded
beside the item count but not gated: it moves with ``wall_s``, and on a
shared two-core host its run-to-run spread is wider.  ``--trace 1`` runs
one untraced and one traced sweep and prints the per-layer metrics of the
traced one (see ``tracing.LAYER_METRICS``); ``trace.overhead_s`` is the
difference of the two sweeps.

Every item's answer is checked (see ``workloads``), and every report's bytes
are hashed: the digests must agree between sweeps, between the untraced and
the traced sweep, and with earlier runs of the same workload, seed and
sources kept in ``perfbench/results/``.  A wrong answer or a digest mismatch
sets ``correct`` to false and the exit code to 1.  Items ending in a package
error are counted in ``failed``.  The last line of standard output is the
result as one JSON object; the full record goes to
``perfbench/results/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("systems", "pairs", "blocks")
SETUP_SAMPLES = 3
MIN_SWEEPS = 3
CHILD_TIMEOUT_S = 150
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cap_blas_threads() -> None:
    """No more BLAS threads than cores; must run before numpy is imported."""
    for var in _BLAS_ENV:
        raw = os.environ.get(var, "")
        if raw.isdigit() and int(raw) > _nproc():
            os.environ[var] = str(_nproc())


def _import_package():
    """Import ``cstarenv`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "cstarenv" / "__init__.py").is_file():
        raise ImportError(f"no cstarenv package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cstarenv

    if Path(cstarenv.__file__).resolve().parent != SRC / "cstarenv":
        raise ImportError(f"cstarenv imported from {cstarenv.__file__}, not {SRC}")
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def _setup(workload: str, seed: int, where: Path):
    """Import, generate the inputs, warm up; returns (items, seconds)."""
    t0 = time.perf_counter()
    wl = _import_package()
    wl.warm_up(where)
    items = wl.build(workload, seed, where)
    return items, time.perf_counter() - t0


def _child_setup_s(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter (waited for, never left running)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sweep(items) -> dict:
    """Run every item once; times, report digests and outcomes."""
    from cstarenv import errors
    from workloads import WrongAnswer

    package_errors = (
        errors.VerificationError,
        errors.StructuralError,
        errors.DecompositionError,
        errors.RouteDisagreementError,
        errors.InputError,
    )
    times, digests, outcomes, problems = [], {}, Counter(), []
    for item in items:
        s = time.perf_counter()
        try:
            digests[item.name] = _digest(item.run())
            outcomes["ok"] += 1
        except WrongAnswer as exc:
            outcomes["wrong"] += 1
            problems.append(f"wrong: {exc}")
        except errors.InconclusiveError as exc:
            outcomes["inconclusive"] += 1
            problems.append(f"inconclusive: {item.name}: {exc}")
        except package_errors as exc:
            outcomes["failed"] += 1
            problems.append(f"failed: {item.name}: {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - s)
    return {
        "wall_s": sum(times),
        "item_s": times,
        "digests": digests,
        "outcomes": outcomes,
        "problems": problems,
    }


def _source_fingerprint() -> str:
    """Hash of the package and benchmark sources; stored digests compare only under it."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("cstarenv/**/*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _digest_mismatches(digests: dict, others: list[dict]) -> list[str]:
    return sorted(
        name
        for other in others
        for name, d in other.items()
        if name in digests and digests[name] != d
    )


def _stored_digests(results_dir: Path, workload: str, seed: int, fingerprint: str) -> list[dict]:
    """Report digests of earlier runs with the same workload, seed and sources."""
    found = []
    for path in results_dir.glob(f"{workload}-seed{seed}-trace*.json"):
        try:
            rec = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if rec.get("source_fingerprint") == fingerprint:
            found.append(rec.get("digests", {}))
    return found


def _blas_threads():
    """Threads of the OpenBLAS numpy loaded, read from the library itself."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib_path in glob.glob(pattern):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in _BLAS_ENV},
        "platform": platform.platform(),
    }


def bench(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    results_dir: Path | None = None,
    started: float | None = None,
) -> dict:
    """Run one benchmark invocation; returns the full record (``result`` is the printed line).

    ``started`` is the ``perf_counter`` time the budget of ``seconds`` counts
    from (the start of the command; now if not given).
    """
    started = time.perf_counter() if started is None else started
    results_dir = RESULTS if results_dir is None else results_dir
    results_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=results_dir) as tmp:
        items, own_setup = _setup(workload, seed, Path(tmp))
    setup = [own_setup] + [_child_setup_s(workload, seed) for _ in range(SETUP_SAMPLES - 1)]

    import tracing

    sweeps = [sweep(items)]
    if trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            sweeps.append(sweep(items))
        left_bound = tracing.bound_wrappers()
        if left_bound:
            raise RuntimeError(f"trace wrappers still bound: {left_bound}")
        overhead = sweeps[1]["wall_s"] - sweeps[0]["wall_s"]
        layers = tracing.layer_values(tracer, overhead)
        spans = sum(1 for s in tracer.spans if s is not None)
    else:
        while len(sweeps) < MIN_SWEEPS or (
            time.perf_counter() - started + statistics.median(s["wall_s"] for s in sweeps)
            <= seconds
        ):
            sweeps.append(sweep(items))

    item_medians = [statistics.median(ts) for ts in zip(*(s["item_s"] for s in sweeps))]
    outcomes = sum((s["outcomes"] for s in sweeps), Counter())
    attempted = sum(outcomes.values())
    digests = sweeps[0]["digests"]
    fingerprint = _source_fingerprint()
    mismatches = _digest_mismatches(digests, [s["digests"] for s in sweeps[1:]])
    stored_mismatches = _digest_mismatches(
        digests, _stored_digests(results_dir, workload, seed, fingerprint)
    )
    fractions = {
        "failed_frac": outcomes["failed"] / attempted,
        "inconclusive_frac": outcomes["inconclusive"] / attempted,
        "wrong_frac": outcomes["wrong"] / attempted,
    }
    if trace:
        metrics = {
            m.name: {"value": layers[m.name], "unit": m.unit} for m in tracing.LAYER_METRICS
        }
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(item_medians),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    correct = outcomes["wrong"] == 0 and not mismatches and not stored_mismatches
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "items": [item.name for item in items],
        "item_count": len(items),
        "item_p50_s": statistics.median(item_medians),
        "elapsed_s": time.perf_counter() - started,
        "sweeps": len(sweeps),
        "sweep_wall_s": [s["wall_s"] for s in sweeps],
        "sweep_item_s": [s["item_s"] for s in sweeps],
        "setup_samples_s": setup,
        "fractions": fractions,
        "outcomes": dict(outcomes),
        "problems": sorted({p for s in sweeps for p in s["problems"]}),
        "digest_mismatches": mismatches,
        "stored_digest_mismatches": stored_mismatches,
        "report_digest": _digest(json.dumps(digests, sort_keys=True)),
        "digests": digests,
        "source_fingerprint": fingerprint,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": outcomes["failed"] + outcomes["inconclusive"],
            "metrics": metrics,
        },
    }
    if trace:
        record["span_count"] = spans
        record["layer_moves"] = {m.name: m.moves for m in tracing.LAYER_METRICS}
    path = results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def _print_summary(record: dict) -> None:
    m = record["machine"]
    print(
        f"# {record['workload']} seed {record['seed']}: {record['item_count']} items x "
        f"{record['sweeps']} sweeps; nproc {m['nproc']}, python {m['python']}, "
        f"numpy {m['numpy']}, {m['blas']} {m['blas_version']} ({m['blas_threads']} threads)"
    )
    for name, frac in record["fractions"].items():
        print(f"{name} {frac:.4f} ratio")
    print(f"item_p50_s {record['item_p50_s']:.6g} s over {record['item_count']} items")
    for name, metric in record["result"]["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"! {problem}")
    for name in record["digest_mismatches"] + record["stored_digest_mismatches"]:
        print(f"! report bytes differ between runs: {name}")


def main(argv=None) -> int:
    started = time.perf_counter()
    _cap_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="time one set-up and print it as JSON"
    )
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            RESULTS.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
                _, setup_s = _setup(args.workload, args.seed, Path(tmp))
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = bench(args.workload, args.seed, args.seconds, bool(args.trace), started=started)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_summary(record)
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
