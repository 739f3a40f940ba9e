"""ddse benchmark: socket + WAL workloads, end-to-end and per-layer metrics.

    python3 ddsebench/run.py --workload ingest --seed 1 --seconds 15 --trace 0
    python3 ddsebench/run.py --workload all --seed 1 --seconds 15

One client process drives the public ``ddse`` API over one connection
to a ``ddse.server`` child process backed by a ``PersistentStore``
(fsync after every mutation).  Each run:

1. sets up SETUP_REPEATS times (server spawn, store open, client or
   query registry set-up, HELLO, preload) and keeps the last instance;
   ``setup_s`` is the median;
2. runs the workload closed-loop, checking every search against a
   plaintext oracle.  The amount of work is fixed: the units (cycles,
   rounds, statements) that take about ``--seconds`` on the reference
   machine, so that two runs of one seed end in the same state;
3. restarts the server RESTARTS times on the same store, evenly spread
   over the work with the last one after it, timing from the order to
   open the store to the HELLO reply (``recovery_s``, the mean;
   interpreter start-up is left out).  After the last restart it
   searches every keyword against the oracle (the durability check) and
   runs a negative control whose corrupted result must be counted.

Set-up time likewise starts once the server interpreter has booted.

With ``--trace 1`` the run is two legs of identical work: an untraced
leg, then a traced leg replaying the same units with spans on both
sides of the wire.  It prints the per-layer metrics and the tracing
overhead (untraced over traced ops/s).

The report goes to standard output; its last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans of a traced run are written under ``.ddsebench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

WORK = ROOT / ".ddsebench"
SETUP_REPEATS = 7
RESTARTS = 12
RUN_LIMIT_S = 175      # a single-workload run must end within 180 s
STOP_FACTOR = 2.5      # a timed phase stops early past this many --seconds
# printed in the report but left out of the last line and BENCHMARK.json;
# NOTES.md says why for each
REPORT_ONLY = ("update_ops_per_s", "update_p90_ms", "update_p99_ms",
               "recovery_s", "join_p50_ms", "failed_ops_ratio")


class Runner:
    """Owns the run's scratch directory and every server it starts."""

    def __init__(self):
        self.dir = WORK / f"run-{os.getpid()}"
        self.dir.mkdir(parents=True)
        self.servers = []
        self._n = 0

    def fresh_store(self) -> Path:
        self._n += 1
        return self.dir / f"store{self._n}"

    def spawn(self, spans: Path | None = None):
        """A booted server process, not yet serving any store."""
        from harness import ServerProcess
        self._n += 1
        server = ServerProcess(self.dir / f"server{self._n}.stats", spans)
        self.servers.append(server)
        return server

    def stop(self, server) -> dict:
        self.servers.remove(server)
        try:
            return server.stop()
        finally:
            server.kill()

    def close(self) -> None:
        for server in self.servers:
            server.kill()
        self.servers.clear()
        shutil.rmtree(self.dir, ignore_errors=True)


def leg(runner: Runner, cls, seed: int, units: int, *, setup_repeats: int = 1,
        restarts: int = 0, traced: bool = False,
        limit_s: float = float("inf")) -> dict:
    """Set-up, a timed phase of ``units`` units of work and, with
    ``restarts``, recovery and the durability check.

    Restarts are spread evenly over the work, the last one after it, so
    recovery is sampled across the run as the other timings are; on a
    shared machine speed drifts over seconds.  Time spent making inputs
    or restarting is not counted.  The phase stops early only if it runs
    past ``limit_s`` of active time.
    """
    from ddse.netclient import RemoteEdb
    from harness import Recorder, clock, tree_bytes
    from tracing import Patches, Tracer, instrument_client
    from workloads import DropFirstRetrieval

    setup_s = []
    tracer = patches = spans_path = None
    for i in range(setup_repeats):
        last = i == setup_repeats - 1
        workload = cls(seed)
        store = runner.fresh_store()
        if traced and last:
            tracer = Tracer()
            patches = Patches(tracer)
            instrument_client(patches)
            spans_path = store.with_name(store.name + ".spans")
        server = runner.spawn(spans_path)
        t0 = clock()
        edb = RemoteEdb("127.0.0.1", server.open(store))
        workload.setup(edb)
        setup_s.append(clock() - t0)
        if not last:
            edb.close()
            runner.stop(server)
            shutil.rmtree(store)

    out = {"workload": workload, "setup_s": setup_s, "recovery_s": [],
           "tally": Counter(), "server_peak_rss_mb": 0.0, "check": None,
           "control_detected": None}

    def stop():
        stats = runner.stop(server)
        out["tally"].update(stats["tally"])
        out["server_peak_rss_mb"] = max(out["server_peak_rss_mb"],
                                        stats["peak_rss_mb"])
        return stats

    def restart():
        nonlocal server, edb
        edb.close()
        stop()
        server = runner.spawn()
        t0 = clock()
        edb = RemoteEdb("127.0.0.1", server.open(store))
        out["recovery_s"].append(clock() - t0)

    restart_at = [round(units * j / restarts) for j in range(1, restarts + 1)]
    from_request = tracer.request + 1 if tracer is not None else 0
    store_bytes = tree_bytes(store)
    rec = Recorder()
    done = 0
    paused = 0.0
    start = clock()
    try:
        while done < units and clock() - start - paused < limit_s:
            t = clock()
            unit = workload.inputs()
            paused += clock() - t
            workload.run(unit, edb, rec)
            done += 1
            t = clock()
            while restart_at and restart_at[0] <= done < units:
                restart_at.pop(0)
                restart()
            paused += clock() - t
        wall = clock() - start - paused
    finally:
        if patches is not None:
            patches.undo()
    edb.close()
    stats = stop()
    out.update(rec=rec, units=done, wall_s=wall,
               log_bytes=tree_bytes(store) - store_bytes)
    if tracer is not None:
        out["trace"] = {"client": tracer.dump(), "server": stats.pop("trace"),
                        "from_request": from_request}
    if not restart_at:
        return out

    for j in range(len(restart_at)):
        server = runner.spawn()
        t0 = clock()
        edb = RemoteEdb("127.0.0.1", server.open(store))
        out["recovery_s"].append(clock() - t0)
        if j < len(restart_at) - 1:
            edb.close()
            runner.stop(server)
    check, control = Recorder(), Recorder()
    for fn, expected in workload.checks(edb):
        check.op("search", fn, expected)
    for fn, expected in workload.checks(DropFirstRetrieval(edb)):
        if expected:
            control.op("search", fn, expected)
            break
    edb.close()
    out["restart_stats"] = runner.stop(server)
    out["check"] = check
    out["control_detected"] = control.attempted == 1 == control.failed
    return out


def quota(cls, seconds: int) -> int:
    """Units of work in a run: what the reference machine does in
    ``seconds``.  Fixed work, not a deadline, so that a run's end state
    (epoch and cache sizes, log length) never depends on speed."""
    return max(1, round(seconds * cls.UNITS_PER_SECOND))


def _median(values):
    return statistics.median(values) if values else None


def _mean(values):
    return statistics.fmean(values) if values else None


def end_to_end(result: dict) -> dict:
    """Every end-to-end metric: name -> (value, unit, samples)."""
    from harness import ms, peak_rss_mb, percentile
    rec, tally = result["rec"], result["tally"]
    updates = rec.latency["update"]
    searches = rec.latency["search"] + rec.latency["join"]
    joins = rec.latency["join"]
    completed = rec.attempted - rec.failed
    metrics = {
        "ops_per_s": (completed / result["wall_s"], "1/s",
                      f"{completed} ops in {result['wall_s']:.2f} s"),
        "update_ops_per_s": (len(updates) / sum(updates) if updates else None,
                             "1/s", f"{len(updates)} updates"),
        "update_p50_ms": (ms(percentile(updates, 50)), "ms", len(updates)),
        "update_p90_ms": (ms(percentile(updates, 90)), "ms", len(updates)),
        "update_p99_ms": (ms(percentile(updates, 99)), "ms", len(updates)),
        "search_p50_ms": (ms(percentile(searches, 50)), "ms", len(searches)),
        "search_p90_ms": (ms(percentile(searches, 90)), "ms", len(searches)),
        "search_request_bytes": (
            tally.get("search_request_bytes", 0)
            / max(tally.get("search_frames", 0), 1), "B",
            f"{tally.get('search_frames', 0)} SEARCH frames"),
        "search_response_bytes": (
            tally.get("search_response_bytes", 0)
            / max(tally.get("result_frames", 0), 1), "B",
            f"{tally.get('result_frames', 0)} search RESULT frames"),
        "wal_bytes_per_user_byte": (
            result["log_bytes"] / rec.user_bytes if rec.user_bytes else None,
            "ratio", f"{result['log_bytes']} store bytes / "
                     f"{rec.user_bytes} keyword+value bytes added"),
        "setup_s": (_median(result["setup_s"]), "s",
                    f"median of {len(result['setup_s'])} set-ups"),
        "recovery_s": (_mean(result["recovery_s"]), "s",
                       f"mean of {len(result['recovery_s'])} restarts "
                       "spread over the run"),
        "client_peak_rss_mb": (peak_rss_mb(), "MB", "whole client process"),
        "server_peak_rss_mb": (result["server_peak_rss_mb"], "MB",
                               "servers of the timed phase"),
    }
    if joins:
        metrics["join_p50_ms"] = (ms(percentile(joins, 50)), "ms", len(joins))
    check = result["check"]
    attempted = rec.attempted + (check.attempted if check else 0)
    failed = rec.failed + (check.failed if check else 0)
    metrics["failed_ops_ratio"] = (failed / attempted, "ratio",
                                   f"{failed} of {attempted} ops")
    return metrics


def run_untraced(runner: Runner, name: str, seed: int, seconds: int) -> dict:
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    result = leg(runner, cls, seed, quota(cls, seconds),
                 setup_repeats=SETUP_REPEATS, restarts=RESTARTS,
                 limit_s=STOP_FACTOR * seconds)
    return {"legs": [result], "metrics": end_to_end(result)}


def run_traced(runner: Runner, name: str, seed: int, seconds: int) -> dict:
    """An untraced leg, then a traced leg replaying the same units."""
    from layers import per_layer
    from workloads import WORKLOADS
    cls = WORKLOADS[name]
    plain = leg(runner, cls, seed, quota(cls, seconds),
                limit_s=STOP_FACTOR * seconds)
    traced = leg(runner, cls, seed, plain["units"], restarts=1, traced=True,
                 limit_s=2 * STOP_FACTOR * seconds)
    return {"legs": [plain, traced], "metrics": per_layer(plain, traced)}


def summary(outcome: dict) -> tuple[int, int, bool]:
    attempted = failed = 0
    correct = True
    for result in outcome["legs"]:
        for rec in (result["rec"], result["check"]):
            if rec is not None:
                attempted += rec.attempted
                failed += rec.failed
        if result["control_detected"] is False:
            correct = False
    return attempted, failed, correct and failed == 0


def report(name: str, seed: int, seconds: int, trace: bool,
           outcome: dict, env: dict) -> None:
    last = outcome["legs"][-1]
    print(f"== ddse benchmark: workload {name}, seed {seed}, "
          f"{seconds} s, {'traced' if trace else 'untraced'} ==")
    print("environment: " + json.dumps(env))
    print("config: " + json.dumps(last["workload"].config()))
    print(f"{'metric':34} {'value':>14}  {'unit':6} samples")
    for metric, (value, unit, samples) in outcome["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{metric:34} {shown:>14}  {unit:6} {samples}")
    attempted, failed, correct = summary(outcome)
    errors = [e for r in outcome["legs"] for e in r["rec"].errors
              + (r["check"].errors if r["check"] else [])]
    print(f"ops attempted {attempted}, failed {failed}; negative control "
          f"counted: {last['control_detected']}"
          + (f"; first errors: {errors[:3]}" if errors else ""))


def contract_line(outcomes: dict) -> str:
    """The last line: correctness totals and every metric, by name."""
    attempted = failed = 0
    correct = True
    metrics = {}
    prefix = len(outcomes) > 1
    for name, outcome in outcomes.items():
        a, f, c = summary(outcome)
        attempted, failed, correct = attempted + a, failed + f, correct and c
        for metric, (value, unit, _) in outcome["metrics"].items():
            if metric in REPORT_ONLY:
                continue
            key = f"{name}.{metric}" if prefix else metric
            metrics[key] = {"value": value, "unit": unit}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "search_revoked", "mixed_sql", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")
    if not (ROOT / "src" / "ddse" / "__init__.py").is_file():
        print(f"ddse sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from harness import environment
    from tracing import write_spans

    names = (["ingest", "search_revoked", "mixed_sql"]
             if args.workload == "all" else [args.workload])
    if len(names) == 1:
        signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(RUN_LIMIT_S)
    runner = Runner()
    try:
        env = {**environment(runner.dir), "seed": args.seed,
               "seconds": args.seconds, "setup_repeats": SETUP_REPEATS,
               "restarts": RESTARTS}
        outcomes = {}
        for name in names:
            run = run_traced if args.trace else run_untraced
            outcome = run(runner, name, args.seed, args.seconds)
            outcomes[name] = outcome
            report(name, args.seed, args.seconds, bool(args.trace), outcome,
                   env)
            traced = outcome["legs"][-1].get("trace")
            if traced is not None:
                out = WORK / "traces" / f"{name}-seed{args.seed}.jsonl.gz"
                out.parent.mkdir(parents=True, exist_ok=True)
                write_spans(str(out), {
                    "client": traced["client"]["spans"],
                    "server": traced["server"]["spans"]})
                print(f"spans written to {out.relative_to(ROOT)}")
    finally:
        signal.alarm(0)
        runner.close()
    print(contract_line(outcomes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
