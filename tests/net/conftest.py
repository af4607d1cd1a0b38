"""Fixtures for the networked suite: spawning, readiness, guaranteed teardown.

Two tiers share this directory:

* unmarked tests (codec, WAL, in-process loopback runs) execute in tier-1;
* tests marked ``net`` spawn real ``repro client`` subprocesses and real
  SIGKILLs — select them with ``pytest -m net``.

Whatever happens, subprocesses never outlive their test: the
``client_spawner`` fixture SIGKILLs and reaps every process it spawned at
teardown, and ``net_run_dir`` copies the run's artifacts (WALs, logs,
delivery log) into ``net_artifacts/<test name>/`` when the test fails, so
CI uploads carry the post-mortem.
"""

from __future__ import annotations

import os
import shutil
import socket
import subprocess
import sys
import time

import pytest

import repro


def ephemeral_port() -> int:
    """An OS-assigned free TCP port (racy by nature; fine for tests)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    # Stash each phase's report on the item so fixtures can ask "did the
    # test body fail?" during teardown (the standard pytest recipe).
    outcome = yield
    report = outcome.get_result()
    setattr(item, f"rep_{report.when}", report)


@pytest.fixture
def net_run_dir(tmp_path, request):
    """A run directory whose artifacts survive to ``net_artifacts/`` on failure."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    yield str(run_dir)
    report = getattr(request.node, "rep_call", None)
    if report is not None and report.failed and run_dir.exists():
        destination = os.path.join("net_artifacts", request.node.name)
        shutil.rmtree(destination, ignore_errors=True)
        shutil.copytree(run_dir, destination)


class ClientSpawner:
    """Spawn ``repro client`` node subprocesses; kill + reap them all at exit."""

    def __init__(self, log_dir: str) -> None:
        self.log_dir = log_dir
        self.procs: list[subprocess.Popen] = []

    def spawn(
        self,
        spec_path: str,
        party: str,
        port: int,
        wal_path: str,
        *,
        deadline: float | None = None,
        host: str = "127.0.0.1",
    ) -> subprocess.Popen:
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "client",
            spec_path,
            "--party",
            party,
            "--host",
            host,
            "--port",
            str(port),
            "--wal",
            wal_path,
        ]
        if deadline is not None:
            argv += ["--deadline", str(deadline)]
        os.makedirs(self.log_dir, exist_ok=True)
        with open(os.path.join(self.log_dir, f"{party}.log"), "ab") as log:
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        self.procs.append(proc)
        return proc

    @staticmethod
    def wait_ready(wal_path: str, timeout: float = 20.0) -> None:
        """Block until the node has durably started.

        A node's very first WAL write (its endowment record, or the replay
        that precedes reconnection) happens before it dials the proxy, so a
        non-empty WAL is the earliest durable readiness signal.
        """
        give_up = time.monotonic() + timeout
        while time.monotonic() < give_up:
            if os.path.exists(wal_path) and os.path.getsize(wal_path) > 0:
                return
            time.sleep(0.05)
        raise TimeoutError(f"node never became ready: {wal_path}")

    def reap(self) -> None:
        """SIGKILL anything still running, then collect every exit status."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - last resort
                pass


@pytest.fixture
def client_spawner(tmp_path):
    spawner = ClientSpawner(str(tmp_path / "logs"))
    yield spawner
    spawner.reap()
