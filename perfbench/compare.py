"""Compare a parent checkout with a change by paired benchmark runs.

Usage::

    python3 perfbench/compare.py --parent ../parent --change . \
        [--workload agents-lockstep ...] [--out FILE]

Both sides run this file's own ``run.py`` for ``BENCHMARK.json``'s
``run_seconds``, the length its bounds were fitted to; only the program under
``src/`` differs. Pair ``i`` of ``PAIRS`` uses seed ``SEED_BASE + i`` on both
sides and alternates which side runs first. Each
end-to-end metric then gets a verdict from ``benchstats.pair_verdict``:
a gain needs wins in at least 9 of 10 pairs and a median difference wider
than the parent's interquartile distance; a metric whose run-to-run spread is
wider than its bound is "unresolved", not "unchanged". A gain is void when
the change failed more operations than the parent or failed a correctness
check in any run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchstats

HERE = Path(__file__).resolve().parent
DEFINITION = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_TIMEOUT_S = 900
PAIRS = benchstats.MIN_PAIRS
SEED_BASE = 1000


def run_once(root: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(DEFINITION["run_seconds"]), "--trace", "0",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    # Exit 1 still prints a result: a correctness check failed on that side.
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(
            f"{root} {workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def compare_workload(parent: Path, change: Path, workload: str) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            root = parent if side == "parent" else change
            runs[side].append(run_once(root, workload, SEED_BASE + i))
            print(f"  pair {i + 1}/{PAIRS}: {side} done", file=sys.stderr)
    failed = {side: sum(r["failed"] for r in results) for side, results in runs.items()}
    incorrect = {side: sum(not r["correct"] for r in results) for side, results in runs.items()}
    verdicts = {}
    for metric in DEFINITION["end_to_end"]:
        name = metric["name"]
        verdict = benchstats.pair_verdict(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["change"]],
            metric["better"],
            metric["bound"],
        )
        if verdict["verdict"] == "gain" and failed["change"] > failed["parent"]:
            verdict["verdict"] = "void gain (more failed operations)"
        elif verdict["verdict"] == "gain" and incorrect["change"]:
            verdict["verdict"] = "void gain (incorrect runs)"
        verdict["unit"] = metric["unit"]
        verdicts[name] = verdict
    return {"failed": failed, "incorrect_runs": incorrect, "verdicts": verdicts, "runs": runs}


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in DEFINITION["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout root")
    parser.add_argument("--change", type=Path, required=True, help="change checkout root")
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", type=Path, help="write verdicts and raw runs as JSON")
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workload or names:
        print(f"{workload}:", file=sys.stderr)
        result = compare_workload(args.parent.resolve(), args.change.resolve(), workload)
        report[workload] = result
        print(f"# {workload}: failed ops parent {result['failed']['parent']}, "
              f"change {result['failed']['change']}; incorrect runs {result['incorrect_runs']}")
        for name, v in result["verdicts"].items():
            print(
                f"{workload:16s} {name:22s} {v['verdict']:12s} "
                f"parent {v['parent']['median']:.6g} [{v['parent']['q1']:.6g}, {v['parent']['q3']:.6g}] "
                f"change {v['change']['median']:.6g} [{v['change']['q1']:.6g}, {v['change']['q3']:.6g}] "
                f"{v['unit']}  wins {v['wins']}/{v['pairs']}  spread {v['spread']:.3f} (bound {v['bound']})"
            )
    if args.out:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
