"""service-mixed: ``repro serve`` in a subprocess under two closed-loop clients.

Each client repeats a cycle of two ``repro submit --wait --out`` calls, made
with the requests that command sends:

* a fresh FET run (n = 1e3, a seed never used before, ``engine="auto"`` as a
  user's submission has): ``POST /runs``, status GETs until the job is done,
  then one ``result?format=csv`` GET;
* a repeat of the same command for a run already done, picked by a seeded
  draw: ``POST /runs`` (deduplicated), one status GET (done at once), one
  CSV GET.

The one-repeat-per-fresh-run share is an assumption of this benchmark, not
traffic the repository defines; the per-route figures of ``--trace 1`` do
not depend on it. The loop is closed because ``repro submit --wait`` callers
block on their reply. Every server starts from an empty store and an empty
queue journal.
"""

from __future__ import annotations

import csv
import io
import random
import re
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from urllib.request import urlopen

from repro.config import RunSpec
from repro.service import RunServiceClient, ServiceError
from repro.sweep import run_sweep

import benchstats
from common import Context, Outcome, Slice, end_to_end, window_done

CLIENTS = 2
FRESH_N = 1_000
FRESH_TRIALS = 32
ROUTES = ("submit_new", "submit_dedup", "status", "result_csv")
TERMINAL = ("done", "failed", "cancelled")

#: Servers spawned per run to time set-up; the last one serves the window.
SETUP_SPAWNS = 3

#: Seconds between status polls while a fresh run is followed to done. The
#: CLI polls every 0.2 s, which would round every faster job up to one poll;
#: 10 ms lets submit->done show the job's own time. These polls are part of
#: the submit->done latency, not request samples.
POLL_S = 0.01

#: Fresh runs a window must complete, so the submit->done tail has samples.
MIN_FRESH = 60

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


def fresh_spec(seed: int, client: int, index: int) -> dict:
    """A run submission whose seed no other submission of the run shares."""
    return RunSpec(
        protocol={"name": "fet"},
        n=FRESH_N,
        initializer={"name": "bernoulli", "p": 0.5},
        trials=FRESH_TRIALS,
        engine="auto",
        seed=seed * 10_000_000 + client * 100_000 + index,
    ).to_dict()


class Server:
    """One ``repro serve --port 0`` subprocess with its own empty store."""

    def __init__(self, ctx: Context, name: str) -> None:
        self.dir = ctx.workdir / name
        self.dir.mkdir()
        self.store = self.dir / "store.jsonl"
        self.journal = Path(f"{self.store}.queue.jsonl")
        self.root = ctx.root
        self.proc: subprocess.Popen | None = None
        self.client: RunServiceClient | None = None
        self.url = ""

    def start(self) -> float:
        """Spawn the server; seconds from spawn to the first good ``GET /runs``."""
        start = time.perf_counter()
        log = (self.dir / "server.log").open("w")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", str(self.store)],
                cwd=self.root,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        finally:
            log.close()
        deadline = start + READY_TIMEOUT_S
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        match = re.search(r"http://([\d.]+):(\d+)/", line)
        if match is None:
            raise RuntimeError(f"server did not announce its port: {line!r}")
        self.url = f"http://{match.group(1)}:{match.group(2)}"
        self.client = RunServiceClient(self.url, timeout=30.0)
        while True:
            try:
                self.client.jobs()
                return time.perf_counter() - start
            except ServiceError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """The server's peak resident set size (``VmHWM``), in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Job:
    """A fresh run followed to done: its final status body and CSV."""

    job_id: str
    spec: dict
    latency: float
    end: float
    status: dict
    csv: bytes


class Recorder:
    """One client's samples; merged after the clients are joined."""

    def __init__(self) -> None:
        self.routes: dict[str, list[float]] = {name: [] for name in ROUTES}
        self.jobs: list[Job] = []
        #: perf_counter stamps of completed requests.
        self.request_ends: list[float] = []
        self.cycles: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []


def _timed(rec: Recorder, route: str, call):
    rec.attempted += 1
    start = time.perf_counter()
    result = call()
    end = time.perf_counter()
    rec.routes[route].append(end - start)
    if route != "submit_new":
        rec.request_ends.append(end)
    return result


def _fresh(client: RunServiceClient, rec: Recorder, spec: dict) -> None:
    """``repro submit --wait --out`` of a spec no one submitted before."""
    start = time.perf_counter()
    status = _timed(rec, "submit_new", lambda: client.submit({"run": spec}))
    job_id = status["job_id"]
    if status["deduplicated"]:
        raise RuntimeError(f"fresh run {job_id[:12]} was deduplicated")
    while status["state"] not in TERMINAL:
        time.sleep(POLL_S)
        status = client.job(job_id)
    if status["state"] != "done":
        raise RuntimeError(f"job {job_id[:12]} ended {status['state']}")
    end = time.perf_counter()
    body = _timed(rec, "result_csv", lambda: client.result_csv(job_id))
    rec.jobs.append(Job(job_id, spec, end - start, end, status, body))


def _repeat(client: RunServiceClient, rec: Recorder, job: Job) -> None:
    """``repro submit --wait --out`` of a spec whose run is already done."""
    status = _timed(rec, "submit_dedup", lambda: client.submit({"run": job.spec}))
    if not status["deduplicated"] or status["job_id"] != job.job_id:
        raise RuntimeError(f"resubmit of {job.job_id[:12]} was not deduplicated")
    status = _timed(rec, "status", lambda: client.job(job.job_id))
    if status["state"] != "done":
        raise RuntimeError(f"done job {job.job_id[:12]} reads {status['state']}")
    body = _timed(rec, "result_csv", lambda: client.result_csv(job.job_id))
    if body != job.csv:
        raise RuntimeError(f"CSV of {job.job_id[:12]} changed between fetches")


def _client_loop(ctx: Context, server: Server, index: int, rec: Recorder, start: float) -> None:
    client = RunServiceClient(server.url, timeout=30.0)
    rng = random.Random(f"{ctx.seed}-{index}")
    fresh = 0
    while not window_done(start, ctx.seconds, fresh, MIN_FRESH // CLIENTS):
        cycle_start = time.perf_counter()
        spec = fresh_spec(ctx.seed, index, fresh)
        fresh += 1
        try:
            _fresh(client, rec, spec)
        except (ServiceError, OSError, RuntimeError) as exc:
            rec.failures.append(f"fresh run: {exc}")
        if rec.jobs:
            try:
                _repeat(client, rec, rng.choice(rec.jobs))
            except (ServiceError, OSError, RuntimeError) as exc:
                rec.failures.append(f"repeat: {exc}")
        rec.cycles.append(time.perf_counter() - cycle_start)


def _direct_csv(spec: dict, path: Path) -> bytes:
    """A direct ``run_sweep(...).write_csv`` of the same run spec."""

    class OneRun:
        name = "perfbench-direct"

        def __init__(self, cell: RunSpec) -> None:
            self.cell = cell

        def expand(self) -> list[RunSpec]:
            return [self.cell]

    run_sweep(OneRun(RunSpec.from_dict(spec))).write_csv(path)
    return path.read_bytes()


def _window(ctx: Context, server: Server) -> dict:
    """Drive the clients for one window, then collect what the metrics need."""
    recorders = [Recorder() for _ in range(CLIENTS)]
    start = time.perf_counter()
    threads = [
        threading.Thread(target=_client_loop, args=(ctx, server, i, rec, start))
        for i, rec in enumerate(recorders)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples = {
        "window_s": time.perf_counter() - start,
        "start": start,
        "routes": {route: [t for rec in recorders for t in rec.routes[route]] for route in ROUTES},
        "jobs": [job for rec in recorders for job in rec.jobs],
        "cycles": [c for rec in recorders for c in rec.cycles],
        "attempted": sum(rec.attempted for rec in recorders),
        "failures": [f for rec in recorders for f in rec.failures],
        "request_ends": [t for rec in recorders for t in rec.request_ends],
    }
    with urlopen(f"{server.url}/metrics", timeout=30.0) as reply:
        samples["metrics_text"] = reply.read().decode("utf-8")
    samples["journal_bytes"] = server.journal.stat().st_size
    samples["rss_mb"] = server.peak_rss_mb()
    return samples


def _outcome(ctx: Context, samples: dict) -> Outcome:
    out = Outcome(
        attempted=samples["attempted"],
        failed=len(samples["failures"]),
        passes=len(samples["cycles"]),
    )
    out.notes.extend(samples["failures"][:3])
    direct = ctx.workdir / "direct.csv"
    mismatched = [job.job_id[:12] for job in samples["jobs"] if job.csv != _direct_csv(job.spec, direct)]
    out.check(
        "every service job's CSV equals a direct run_sweep write_csv of its spec",
        not mismatched and samples["jobs"],
        f"{len(mismatched)} of {len(samples['jobs'])} differ: {mismatched[:3]}" if mismatched else "",
    )
    return out


def _agent_rounds(csv_bytes: bytes) -> float:
    rows = csv.DictReader(io.StringIO(csv_bytes.decode("utf-8")))
    return sum(int(row["n"]) * float(row["mean"]) * int(row["successes"]) for row in rows)


def _metric(text: str, name: str) -> float:
    """Sum of every labelled series of one counter in a ``/metrics`` scrape."""
    pattern = rf"^{name}(?:\{{[^}}]*\}})? (\S+)$"
    return sum(float(value) for value in re.findall(pattern, text, re.MULTILINE))


def _slices(samples: dict) -> list[Slice]:
    """One slice per whole second of the window: the clients overlap, so the
    runs and requests completed in each second give its rates."""
    start = samples["start"]
    finished = [(job.end, _agent_rounds(job.csv)) for job in samples["jobs"]]
    slices = []
    for second in range(int(samples["window_s"])):
        lo, hi = start + second, start + second + 1
        rounds = [r for end, r in finished if lo <= end < hi]
        slices.append(
            Slice(
                job_seconds=1.0,
                jobs=len(rounds),
                trials=FRESH_TRIALS * len(rounds),
                agent_rounds=sum(rounds),
                seconds=1.0,
                requests=sum(1 for end in samples["request_ends"] if lo <= end < hi),
            )
        )
    return slices


def run(ctx: Context) -> Outcome:
    servers: list[Server] = []
    try:
        setup = []
        for spawn in range(SETUP_SPAWNS):
            if servers:
                servers[-1].stop()
            servers.append(Server(ctx, f"server-{spawn}"))
            setup.append(servers[-1].start())
        samples = _window(ctx, servers[-1])
    finally:
        for server in servers:
            server.stop()
    out = _outcome(ctx, samples)
    if ctx.trace:
        return _layers(samples, out)
    requests = [
        t for route, times in samples["routes"].items() if route != "submit_new" for t in times
    ]
    metrics, notes = end_to_end(
        setup_s=benchstats.median(setup),
        pass_walls=samples["cycles"],
        rss_mb=samples["rss_mb"],
        job_latencies=[job.latency for job in samples["jobs"]],
        request_latencies=requests,
        slices=_slices(samples),
    )
    out.metrics.update(metrics)
    out.notes.extend(notes)
    for route, times in samples["routes"].items():
        out.notes.append(
            f"{route}: {len(times)} requests, p50 {1e3 * benchstats.median(times):.2f} ms, "
            f"{len(times) / samples['window_s']:.0f} req/s"
        )
    return out


def _layers(samples: dict, out: Outcome) -> Outcome:
    """Per-layer figures from the same window: the client-side route timings,
    status timestamps and ``/metrics`` scrape need no extra instrumentation."""
    m = out.metrics
    for route, times in samples["routes"].items():
        value, pct = benchstats.tail(times)
        m[f"service.http.{route}.p50_ms"] = 1e3 * benchstats.median(times)
        m[f"service.http.{route}.tail_ms"] = 1e3 * value
        out.notes.append(f"service.http.{route}.tail_ms is p{pct:.1f} of {len(times)}")
    statuses = [job.status for job in samples["jobs"]]
    waits = [s["started_ts"] - s["created_ts"] for s in statuses]
    busy = [s["finished_ts"] - s["started_ts"] for s in statuses]
    m["service.queue.wait_ms"] = 1e3 * benchstats.median(waits)
    m["service.worker.busy_ms"] = 1e3 * benchstats.median(busy)
    m["service.dedup_hits"] = _metric(samples["metrics_text"], "repro_service_dedup_hits_total")
    m["service.jobs_submitted"] = _metric(samples["metrics_text"], "repro_service_jobs_submitted_total")
    m["service.queue.journal_bytes"] = samples["journal_bytes"]
    latencies = [job.latency for job in samples["jobs"]]
    covered = sum(waits) + sum(busy)
    m["trace.residual_s"] = benchstats.median(
        [latency - w - b for latency, w, b in zip(latencies, waits, busy)]
    )
    m["trace.coverage_ratio"] = covered / sum(latencies)
    m["telemetry.trace_overhead_ratio"] = 1.0
    out.notes.append(
        "telemetry.trace_overhead_ratio is 1 by construction: the per-layer figures "
        "come from the untraced window itself"
    )
    out.notes.append(
        f"queue wait plus worker busy time cover {100 * covered / sum(latencies):.1f}% "
        "of fresh-run submit->done latency"
    )
    return out
