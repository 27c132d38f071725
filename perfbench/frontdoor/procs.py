"""Start ``repro serve`` as a user would, time it to ready, stop it cleanly."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

from .env import BENCH, ROOT, SetupError, child_env
from .loadgen import HttpClient, HttpError

READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
_URL = re.compile(r"serving on http://([\d.]+):(\d+)")


class ServerProcess:
    """One ``repro serve`` process tree (the frontend plus any shards).

    ``setup_s`` is the time from spawning the command to ``GET
    /healthz`` answering 200, which the cluster frontend does only once
    every shard is up.
    """

    def __init__(self, serve_args: List[str], spans_dir: Optional[Path] = None):
        env = child_env()
        if spans_dir is None:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            argv = [sys.executable, str(BENCH / "frontdoor" / "traced_serve.py"), *serve_args]
            env["FRONTDOOR_SPANS"] = str(spans_dir)
        self.output: List[str] = []
        started = time.monotonic()
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, start_new_session=True,
        )
        try:
            self.host, self.port = self._await_url()
            self._await_health()
        except SetupError:
            self.stop()
            raise
        self.setup_s = time.monotonic() - started

    def _await_url(self):
        deadline = time.monotonic() + READY_TIMEOUT_S
        for line in self.process.stdout:
            self.output.append(line)
            match = _URL.search(line)
            if match:
                # keep draining so a chatty server never blocks on its pipe
                threading.Thread(target=self._drain, daemon=True).start()
                return match.group(1), int(match.group(2))
            if time.monotonic() > deadline:
                break
        raise SetupError("repro serve did not come up:\n" + "".join(self.output[-40:]))

    def _drain(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)

    def _await_health(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        client = HttpClient(self.host, self.port, timeout=10.0)
        try:
            while time.monotonic() < deadline:
                try:
                    status, _, _, _ = client.request("GET", "/healthz")
                    if status == 200:
                        return
                except HttpError:
                    pass
                if self.process.poll() is not None:
                    break
                time.sleep(0.005)
        finally:
            client.close()
        raise SetupError("repro serve never became healthy:\n" + "".join(self.output[-40:]))

    def get(self, path: str) -> bytes:
        client = HttpClient(self.host, self.port)
        try:
            status, body, _, _ = client.request("GET", path)
        finally:
            client.close()
        if status != 200:
            raise SetupError(f"GET {path} answered {status}")
        return body

    def pids(self) -> List[int]:
        """The frontend and every descendant process (the shards)."""
        found, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            try:
                for task in os.listdir(f"/proc/{pid}/task"):
                    with open(f"/proc/{pid}/task/{task}/children") as handle:
                        frontier.extend(int(c) for c in handle.read().split())
            except OSError:
                continue
        return found

    def peak_rss_mb(self) -> float:
        """Summed peak resident set (VmHWM) of the whole process tree."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> int:
        """SIGINT (the CLI's graceful drain and final snapshot); kill on timeout."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait(STOP_TIMEOUT_S)
        # shards exit on the frontend's shutdown op; kill any straggler
        # and wait until the whole process group is gone
        for sig in (None, signal.SIGKILL):
            if sig is not None:
                os.killpg(self.process.pid, sig)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.killpg(self.process.pid, 0)
                except ProcessLookupError:
                    return self.process.returncode
                time.sleep(0.05)
        raise SetupError(f"process group {self.process.pid} survived SIGKILL")

    def metrics_text(self) -> str:
        return self.get("/metrics").decode("utf-8")


def serve_args(checkpoint: Path, persist: Optional[Path] = None) -> List[str]:
    """CLI defaults throughout; only the checkpoint, an ephemeral port and,
    for the cluster, two shards over a fresh persistence directory."""
    args = ["--checkpoint", str(checkpoint), "--port", "0"]
    if persist is not None:
        args += ["--cluster", "2", "--persist", str(persist)]
    return args
