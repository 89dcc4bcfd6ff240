"""The repository's benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload agents-lockstep --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same window untraced and then traced, and prints every
per-layer metric (layers the workload bypasses read 0). Human-readable lines
and a machine header come first; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. The run exits 1 when a
correctness check fails and 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFINITION = HERE.parent / "BENCHMARK.json"


def load_definition() -> dict:
    return json.loads(DEFINITION.read_text(encoding="utf-8"))


def git_sha(root: Path) -> str | None:
    """The checkout's commit, or ``None`` when it is not a git checkout."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources, which identifies the code measured
    even where there is no git metadata."""
    digest = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_header(args: argparse.Namespace, root: Path, passes: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": passes,
    }


def parse_args(definition: dict, argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in definition["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    definition = load_definition()
    args = parse_args(definition, argv)
    # A terminated run still stops the servers it spawned and removes its work.
    signal.signal(signal.SIGTERM, _terminate)
    root = Path.cwd().resolve()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    )
    import repro
    from common import WORKLOAD_MODULES, Context

    if Path(repro.__file__).resolve().parent != root / "src" / "repro":
        print(f"error: imported repro from {repro.__file__}, not {root}", file=sys.stderr)
        return 2

    wanted = definition["per_layer" if args.trace else "end_to_end"]
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        ctx = Context(
            root=root,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            workdir=workdir,
        )
        out = importlib.import_module(WORKLOAD_MODULES[args.workload]).run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = [m["name"] for m in wanted if m["name"] not in out.metrics]
    if not args.trace and missing:
        raise RuntimeError(f"workload reported no value for {missing}")
    metrics = {
        m["name"]: {"value": float(out.metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    from benchstats import failed_ratio

    print(f"# {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'failed_ratio':40s} {failed_ratio(out.failed, out.attempted):>16.6g} ratio")
    if args.trace and missing:
        print(f"# bypassed by this workload (reported as 0): {', '.join(missing)}")
    for note in out.notes:
        print(f"# {note}")
    out.check(
        "every attempted operation succeeded",
        out.failed == 0,
        f"{out.failed} of {out.attempted} failed" if out.failed else "",
    )
    correct = all(ok for _, ok, _ in out.checks)
    for name, ok, detail in out.checks:
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    print(json.dumps({"header": machine_header(args, root, out.passes)}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": out.attempted,
                "failed": out.failed,
                "metrics": metrics,
            }
        )
    )
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
