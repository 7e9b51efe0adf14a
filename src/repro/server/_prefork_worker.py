"""The prefork worker program, spawned by
:class:`repro.server.prefork.PreforkServer` as::

    python -m repro.server._prefork_worker --listen-fd L --control-fd C \\
        --worker-id i --config JSON

It inherits the pool's shared listening socket ``L`` and its end ``C``
of a socket pair to the dispatcher at spawn. It warm-starts a
read-only :class:`~repro.service.QueryService` over the snapshot named
in ``--config``, writes one ``ready`` line on ``C``, then serves HTTP
and answers the dispatcher's control messages until ``shutdown`` or
EOF — so a dying dispatcher never leaves orphans.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import socket
import sys
import time

from repro.obs.logging import JsonLogger
from repro.server.app import HTTPQueryServer
from repro.service.query_service import QueryService
from repro.storage.generations import generation_token


def _rss_bytes() -> "int | None":
    """Resident set size of this process, or ``None`` off-Linux."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


class _WorkerRuntime:
    """Mutable per-worker state shared by the HTTP and control tasks."""

    def __init__(self, worker_id: int, config: dict):
        self.worker_id = worker_id
        self.config = config
        self.service = self.build_service()
        self.server: "HTTPQueryServer | None" = None
        self.reloads = 0
        self.started_at = time.time()

    def build_service(self) -> QueryService:
        """Open a fresh service over the configured snapshot (no WAL:
        only the pool's owner writes)."""
        config = self.config
        return QueryService.from_snapshot(
            config["snapshot"],
            backend=config.get("backend"),
            max_workers=config.get("threads"),
            **(config.get("service_options") or {}),
        )

    @property
    def generation(self) -> "int | None":
        """The snapshot generation this worker's service answers from."""
        return self.service.source["generation"]

    def worker_gauges(self) -> dict:
        """The per-worker block merged into ``/v1/stats`` (and the pool)."""
        return {
            "id": self.worker_id,
            "pid": os.getpid(),
            "generation": self.generation,
            "snapshot_path": self.service.source["path"],
            "rss_bytes": _rss_bytes(),
            "reloads": self.reloads,
            "uptime_seconds": time.time() - self.started_at,
        }


async def _worker_reload(runtime: _WorkerRuntime) -> dict:
    """Hot-swap to the latest installed generation without dropping work.

    The new service is built off the event loop (snapshot verify can
    take real time), swapped in between requests, and the old one is
    closed only after :meth:`HTTPQueryServer.drain_service` reports its
    last leased response fully serialized.
    """
    loop = asyncio.get_running_loop()
    server = runtime.server
    new_service = await loop.run_in_executor(None, runtime.build_service)
    old_service = server.swap_service(new_service)
    runtime.service = new_service
    await server.drain_service(old_service)
    await loop.run_in_executor(None, old_service.close)
    runtime.reloads += 1
    return {
        "type": "reloaded",
        "worker": runtime.worker_id,
        "generation": runtime.generation,
    }


async def _worker_serve(
    conn: socket.socket, listen_sock: socket.socket, runtime: _WorkerRuntime
) -> None:
    """The worker's asyncio main: HTTP serving + the control loop."""
    config = runtime.config
    logger = None
    if config.get("log_json"):
        logger = JsonLogger().bind(
            worker=runtime.worker_id, pid=os.getpid()
        )
    server = HTTPQueryServer(
        runtime.service,
        extra_stats=lambda: {"worker": runtime.worker_gauges()},
        logger=logger,
        **(config.get("server_options") or {}),
    )
    runtime.server = server
    await server.start(sock=listen_sock)
    if logger is not None:
        logger.log(
            "worker_ready",
            generation=runtime.generation,
        )
    conn.setblocking(False)
    reader, writer = await asyncio.open_unix_connection(sock=conn)

    def reply(message: dict) -> None:
        writer.write(json.dumps(message).encode("utf-8") + b"\n")

    reply(
        {
            "type": "ready",
            "worker": runtime.worker_id,
            "pid": os.getpid(),
            "generation": runtime.generation,
        }
    )
    await writer.drain()
    try:
        while True:
            line = await reader.readline()
            if not line:
                # Parent died (EOF): exit rather than serve orphaned.
                return
            try:
                message = json.loads(line)
            except ValueError:
                message = None
            if not isinstance(message, dict):
                # A truncated or garbled control frame must not take a
                # healthy worker down: report it and keep serving.
                reply({"type": "error",
                       "message": f"undecodable control frame: {line!r}"})
                await writer.drain()
                continue
            kind = message.get("type")
            if kind == "shutdown":
                if logger is not None:
                    logger.log("worker_shutdown")
                return
            if kind == "ping":
                # The watchdog's liveness probe. Answering *here* is the
                # point: this coroutine runs on the worker's event loop,
                # so a pong proves the loop still schedules work.
                reply(
                    {
                        "type": "pong",
                        "worker": runtime.worker_id,
                        "pid": os.getpid(),
                    }
                )
            elif kind == "reload":
                try:
                    outcome = await _worker_reload(runtime)
                except Exception as exc:  # noqa: BLE001 — keep serving old gen
                    # The new generation would not open (corrupt install,
                    # checksum mismatch, mmap failure). The old service
                    # was never swapped out, so this worker still
                    # answers queries — tell the dispatcher which token
                    # failed so it can quarantine it.
                    token = None
                    try:
                        token = generation_token(config["snapshot"])
                    except OSError:
                        pass
                    outcome = {
                        "type": "reload_failed",
                        "worker": runtime.worker_id,
                        "error": f"{type(exc).__name__}: {exc}",
                        "token": token,
                        "generation": runtime.generation,
                    }
                    if logger is not None:
                        logger.log(
                            "worker_reload_failed",
                            error=outcome["error"],
                            token=token,
                        )
                else:
                    if logger is not None:
                        logger.log(
                            "worker_reloaded",
                            generation=outcome.get("generation"),
                            reloads=runtime.reloads,
                        )
                reply(outcome)
            elif kind == "stats":
                reply(
                    {
                        "type": "stats",
                        "worker": runtime.worker_id,
                        "data": {
                            "worker": runtime.worker_gauges(),
                            "http": server.http_stats(),
                            # JSON-able registry dumps: the dispatcher
                            # aggregates these across workers for its
                            # own /metrics listener.
                            "metrics": (
                                server.metrics.dump()
                                + server.service.metrics.dump()
                            ),
                        },
                    }
                )
            else:
                reply({"type": "error", "message": f"unknown {kind!r}"})
            await writer.drain()
    finally:
        await server.shutdown()


def worker_main(argv: "list[str] | None" = None) -> int:
    """Run one worker: adopt the inherited sockets, warm-start the
    service, and serve until told to shut down (or the control socket
    closes)."""
    parser = argparse.ArgumentParser(prog="repro.server._prefork_worker")
    parser.add_argument("--listen-fd", type=int, required=True,
                        help="inherited shared listening socket")
    parser.add_argument("--control-fd", type=int, required=True,
                        help="inherited control socket to the dispatcher")
    parser.add_argument("--worker-id", type=int, required=True,
                        help="slot index assigned by the dispatcher")
    parser.add_argument("--config", type=json.loads, required=True,
                        help="snapshot path and service/server options, "
                             "as JSON")
    args = parser.parse_args(argv)

    listen_sock = socket.socket(fileno=args.listen_fd)
    conn = socket.socket(fileno=args.control_fd)
    runtime = _WorkerRuntime(args.worker_id, args.config)
    try:
        asyncio.run(_worker_serve(conn, listen_sock, runtime))
    finally:
        runtime.service.close()
    return 0


if __name__ == "__main__":
    sys.exit(worker_main())
