"""Alternated parent/change runs of the benchmark, summarized per side.

    python3 tools/alternate_bench.py --parent DIR --change DIR \
        --workload pairs --seed 11 --pairs 10 [--seconds 40]

``DIR`` is a checkout of the repository (for example one made with
``git archive``).  Each pair runs ``perfbench/run.py --trace 0`` once in
each checkout, one after the other: odd pairs run the parent first, even
pairs the change first, so a drift in the machine's load falls on both
sides alike.  Every run must read ``correct: true`` and ``failed: 0``.

The last line of standard output is one JSON object laid out as a ``runs``
entry of a ``BENCH_*.json`` file: the seed, the number of pairs, each side's
values of every end-to-end metric named in the change's ``BENCHMARK.json``
(in run order, rounded to 4 decimals) and, beside them under ``sweeps``,
each run's sweep count, each side's quartiles
``[q1, median, q3]`` (``statistics.quantiles``, exclusive method), and
``change_wins_<metric>``, the number of pairs in which the change's value is
better than the parent's, and the two verdicts of :func:`verdicts`,
``no_regression_<metric>`` and ``claim_<metric>``.  The sweep count is read
from the record the run leaves in its checkout,
``perfbench/results/<workload>-seed<seed>-trace0.json``: a run's peak RSS
grows with its sweeps, so the counts tell a faster change's extra sweeps
from a memory change.  A readable summary with
the verdicts goes to standard error.  The exit code is 1 when a run fails
or reads incorrect, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def end_to_end(checkout: Path) -> list[dict]:
    """The end-to-end metrics a checkout's ``BENCHMARK.json`` declares."""
    return json.loads((checkout / "BENCHMARK.json").read_text())["end_to_end"]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: the result object its last line prints."""
    cmd = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: no output (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def sweep_count(checkout: Path, workload: str, seed: int) -> int:
    """The sweep count of the last untraced run in ``checkout``, read from
    the record ``perfbench/run.py`` wrote there."""
    path = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())["sweeps"]


def quartiles(values: list[float]) -> list[float]:
    """``[q1, median, q3]``; with one value, that value three times."""
    if len(values) < 2:
        return [round(values[0], 4)] * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 4), round(med, 4), round(q3, 4)]


def is_better(metric: dict, change: float, parent: float) -> bool:
    return change < parent if metric["better"] == "lower" else change > parent


def verdicts(metric: dict, parent: list[float], change: list[float]) -> tuple[str, str]:
    """``(no_regression, claim)`` for one end-to-end metric over paired runs.

    Both compare medians and measure spread as the parent's interquartile
    range (IQR), taken relative to the parent's median for the bound.

    * no regression: ``"unresolved"`` when that IQR is wider than the
      metric's ``bound``, unless every change run is better than every
      parent run (then ``"ok"``); otherwise ``"regression"`` when the
      change's median is worse than the parent's by more than ``bound``,
      and ``"ok"`` when it is not.
    * claim: ``"gain"`` when the change wins at least nine tenths of the
      pairs, ties counting for neither, and its median is better than the
      parent's by more than the parent's IQR; ``"no gain"`` otherwise.
    """
    q1, med_p, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3)
    med_c = statistics.median(change)
    iqr = q3 - q1
    sign = 1.0 if metric["better"] == "lower" else -1.0
    gain = sign * (med_p - med_c)  # positive when the change's median is better
    if iqr > metric["bound"] * abs(med_p) and not all(
        is_better(metric, c, p) for c in change for p in parent
    ):
        no_regression = "unresolved"
    elif -gain > metric["bound"] * abs(med_p):
        no_regression = "regression"
    else:
        no_regression = "ok"
    wins = sum(is_better(metric, c, p) for c, p in zip(change, parent))
    claim = "gain" if 10 * wins >= 9 * len(parent) and gain > iqr else "no gain"
    return no_regression, claim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    metrics = end_to_end(args.change)
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    sweeps = {side: [] for side in sides}
    ok = True
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, args.seed, args.seconds)
            if not result["correct"] or result["failed"]:
                ok = False
            for m in metrics:
                values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
            sweeps[side].append(sweep_count(sides[side], args.workload, args.seed))
            print(
                f"pair {pair} {side}: correct {result['correct']}, failed {result['failed']}, "
                + ", ".join(f"{m['name']} {values[side][m['name']][-1]:.4g}" for m in metrics)
                + f", {sweeps[side][-1]} sweeps",
                file=sys.stderr,
            )

    block = {"seed": args.seed, "runs": args.pairs}
    for side in sides:
        block[side] = {name: [round(v, 4) for v in vals] for name, vals in values[side].items()}
        block[side]["sweeps"] = sweeps[side]
    for side in sides:
        block[f"{side}_quartiles"] = {
            name: quartiles(vals) for name, vals in values[side].items()
        }
    for m in metrics:
        name = m["name"]
        block[f"change_wins_{name}"] = sum(
            is_better(m, c, p) for c, p in zip(values["change"][name], values["parent"][name])
        )
    for m in metrics:
        name = m["name"]
        no_regression, claim = verdicts(m, values["parent"][name], values["change"][name])
        block[f"no_regression_{name}"] = no_regression
        block[f"claim_{name}"] = claim
        print(
            f"{name}: parent {block['parent_quartiles'][name]}, change "
            f"{block['change_quartiles'][name]}, change better in "
            f"{block[f'change_wins_{name}']}/{args.pairs}; no regression: "
            f"{no_regression} (bound {m['bound']:.0%}); claim: {claim}",
            file=sys.stderr,
        )
    print(json.dumps(block))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
