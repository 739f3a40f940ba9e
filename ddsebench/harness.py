"""Process, timing and accounting pieces shared by the workloads."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
SERVE = HERE / "serve.py"

clock = time.perf_counter


class ServerProcess:
    """``serve.py`` in a child process.

    The constructor waits until the interpreter has booted; ``open``
    then has it open a store and returns once it listens.
    """

    def __init__(self, stats: Path, spans: Path | None = None):
        self.stats_path = stats
        self.spans_path = spans
        cmd = [sys.executable, str(SERVE), "--stats", str(stats)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        self._expect("ready")
        self.port = None

    def _expect(self, word: str) -> str:
        line = self.proc.stdout.readline()
        if not line.startswith(word):
            self.kill()
            raise RuntimeError(f"server did not say {word!r}: {line!r}")
        return line

    def open(self, store_dir: Path) -> int:
        self.proc.stdin.write(f"{store_dir}\n")
        self.proc.stdin.flush()
        self.port = int(self._expect("port ").split()[1])
        return self.port

    def stop(self) -> dict:
        """Close stdin, wait for a clean exit, return the server's stats."""
        self.proc.stdin.close()
        code = self.proc.wait(timeout=60)
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"server exited with {code}")
        with open(self.stats_path, encoding="utf-8") as fh:
            stats = json.load(fh)
        if self.spans_path is not None:
            with open(self.spans_path, encoding="utf-8") as fh:
                stats["trace"] = json.load(fh)
        return stats

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


class Recorder:
    """Latencies per op kind and failure accounting for one timed phase.

    Every op counts as attempted.  An op that raises, or whose result the
    check rejects, counts as failed; it is never retried or skipped.
    """

    KINDS = ("update", "search", "join")

    def __init__(self):
        self.latency = {k: [] for k in self.KINDS}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.user_bytes = 0
        self.join_fanout: list[int] = []

    def op(self, kind: str, fn, expected=None, check=True):
        """Run ``fn()``; with ``check``, its result must equal ``expected``.

        Returns whether the op succeeded.
        """
        self.attempted += 1
        t0 = clock()
        try:
            result = fn()
        except Exception as exc:  # every failure is counted, none retried
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            return False
        elapsed = clock() - t0
        self.latency[kind].append(elapsed)
        if check and result != expected:
            self._fail(f"{kind}: wrong answer")
            return False
        return True

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


def percentile(values, q: int):
    """q-th percentile (1..99) of ``values``; None with fewer than two."""
    if len(values) < 2:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ms(seconds):
    return None if seconds is None else seconds * 1e3


def tree_bytes(path: Path) -> int:
    """Total size of the regular files under ``path``."""
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def filesystem_of(path: Path) -> str:
    try:
        out = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment(store_dir: Path) -> dict:
    try:
        crypto = metadata.version("cryptography")
    except metadata.PackageNotFoundError:
        crypto = "unknown"
    return {
        "python": platform.python_version(),
        "cryptography": crypto,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "store_filesystem": filesystem_of(store_dir),
        "fsync_policy": "fsync after every mutation (store default)",
        "transport": "socket + WAL, one client process, one connection, "
                     "server in a second process",
        "loop": "closed, one client",
    }
