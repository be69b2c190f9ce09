"""CLI verbs for the service: ``mao serve`` and ``mao remote``.

``mao serve`` runs a :class:`~repro.server.app.MaoServer` in the
foreground until SIGTERM/SIGINT, then drains gracefully and exits 0.  On
startup it prints one machine-parseable line::

    pymao-server listening on 127.0.0.1:8423

which is how scripts discover an ephemeral ``--port 0`` binding (the
lifecycle tests and the bench harness both parse it).

``mao remote`` is the thin client-side mirror of the single-file driver:
``mao remote --port P --mao=SPEC in.s -o out.s`` optimizes over the wire
(``--health`` / ``--metrics`` query the observability endpoints
instead), retrying through :class:`repro.server.client.Client`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional

from repro import obs
from repro.server.app import MaoServer, ServerConfig
from repro.server.client import Client, DEFAULT_PORT, ServerError


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mao serve",
        description="run the PyMAO optimization service")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help="listen port (0 = ephemeral; the bound port "
                             "is printed on startup)")
    parser.add_argument("--parallel-backend", choices=("thread", "process"),
                        default="thread",
                        help="worker pool kind for request execution "
                             "(default: thread)")
    parser.add_argument("--max-inflight", type=int, default=4, metavar="N",
                        help="concurrently executing requests, and the "
                             "worker pool size (default: 4)")
    parser.add_argument("--max-queue", type=int, default=16, metavar="N",
                        help="admitted-but-waiting bound; beyond "
                             "max-inflight+max-queue requests get 503 + "
                             "Retry-After (default: 16)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        metavar="SECONDS",
                        help="per-request admission-to-response bound "
                             "(default: 120)")
    parser.add_argument("--max-body-bytes", type=int,
                        default=8 * 1024 * 1024, metavar="BYTES",
                        help="request body size cap (default: 8 MiB)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="artifact-cache directory (default: "
                             "$PYMAO_CACHE_DIR, else ~/.cache/pymao)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the shared artifact cache")
    parser.add_argument("--cache-salt", default=None,
                        help=argparse.SUPPRESS)   # test/fleet isolation
    parser.add_argument("--profile-dir", default=None, metavar="DIR",
                        help="PGO profile-store directory served at "
                             "/v1/profile (default: $PYMAO_PROFILE_DIR, "
                             "else ~/.cache/pymao-profiles)")
    parser.add_argument("--test-delay-s", type=float, default=0.0,
                        help=argparse.SUPPRESS)   # deterministic slot-holding
    parser.add_argument("--trace-out", default=None, metavar="FILE.jsonl",
                        help="write request spans as pymao.trace/1 JSONL "
                             "on drain")
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    args = build_serve_parser().parse_args(argv)
    config = ServerConfig(host=args.host, port=args.port,
                          parallel_backend=args.parallel_backend,
                          max_inflight=args.max_inflight,
                          max_queue=args.max_queue,
                          request_timeout_s=args.timeout,
                          max_body_bytes=args.max_body_bytes,
                          cache=not args.no_cache,
                          cache_dir=args.cache_dir,
                          cache_salt=args.cache_salt,
                          profile_dir=args.profile_dir,
                          test_delay_s=args.test_delay_s,
                          trace_out=args.trace_out)
    if config.trace_out:
        obs.set_enabled(True)

    def ready(server: MaoServer) -> None:
        print("pymao-server listening on %s:%d"
              % (config.host, server.port), flush=True)

    try:
        asyncio.run(MaoServer(config).run(ready=ready))
    except ValueError as exc:
        print("mao serve: %s" % exc, file=sys.stderr)
        return 2
    return 0


def build_fleet_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mao fleet",
        description="run the sharded PyMAO optimization fleet: one "
                    "front door routing to N worker processes with "
                    "cache-affinity consistent hashing")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help="front-door listen port (0 = ephemeral; the "
                             "bound port is printed on startup)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker process count (default: 2)")
    parser.add_argument("--worker-backend", choices=("thread", "process"),
                        default="thread",
                        help="each worker's pool kind (default: thread)")
    parser.add_argument("--worker-inflight", type=int, default=1,
                        metavar="N",
                        help="execution slots per worker (default: 1)")
    parser.add_argument("--worker-queue", type=int, default=64, metavar="N",
                        help="per-worker admitted-waiting bound "
                             "(default: 64)")
    parser.add_argument("--max-queue", type=int, default=64, metavar="N",
                        help="front-door queue on top of the fleet's "
                             "execution slots (default: 64)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        metavar="SECONDS",
                        help="per-request admission-to-response bound "
                             "(default: 120)")
    parser.add_argument("--max-body-bytes", type=int,
                        default=8 * 1024 * 1024, metavar="BYTES",
                        help="request body size cap (default: 8 MiB)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="shared artifact-cache directory all workers "
                             "open (default: $PYMAO_CACHE_DIR, else "
                             "~/.cache/pymao)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the shared artifact cache")
    parser.add_argument("--cache-salt", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--profile-dir", default=None, metavar="DIR",
                        help="shared PGO profile-store directory all "
                             "workers serve at /v1/profile (default: "
                             "$PYMAO_PROFILE_DIR, else "
                             "~/.cache/pymao-profiles)")
    parser.add_argument("--test-delay-s", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    return parser


def fleet_main(argv: Optional[List[str]] = None) -> int:
    from repro.server.fleet import FleetConfig, FleetServer

    args = build_fleet_parser().parse_args(argv)
    config = FleetConfig(host=args.host, port=args.port,
                         workers=args.workers,
                         worker_backend=args.worker_backend,
                         worker_inflight=args.worker_inflight,
                         worker_queue=args.worker_queue,
                         max_queue=args.max_queue,
                         request_timeout_s=args.timeout,
                         max_body_bytes=args.max_body_bytes,
                         cache=not args.no_cache,
                         cache_dir=args.cache_dir,
                         cache_salt=args.cache_salt,
                         profile_dir=args.profile_dir,
                         worker_test_delay_s=args.test_delay_s)

    def ready(fleet: FleetServer) -> None:
        print("pymao-fleet listening on %s:%d (%d workers)"
              % (config.host, fleet.port, config.workers), flush=True)

    try:
        asyncio.run(FleetServer(config).run(ready=ready))
    except (ValueError, RuntimeError) as exc:
        print("mao fleet: %s" % exc, file=sys.stderr)
        return 2
    return 0


def build_remote_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mao remote",
        description="talk to a running PyMAO service")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--retries", type=int, default=5,
                        help="retry budget for 503/connection failures "
                             "(default: 5)")
    parser.add_argument("--mao", action="append", default=[],
                        metavar="SPEC", help="pass spec (as in plain mao)")
    parser.add_argument("--health", action="store_true",
                        help="print the /healthz payload and exit")
    parser.add_argument("--metrics", action="store_true",
                        help="print the /metrics payload and exit")
    parser.add_argument("-o", dest="output", default=None,
                        help="write the optimized assembly here "
                             "(default: stdout)")
    parser.add_argument("input", nargs="?",
                        help="input assembly file to optimize remotely")
    return parser


def remote_main(argv: Optional[List[str]] = None) -> int:
    parser = build_remote_parser()
    args = parser.parse_args(argv)
    client = Client(args.host, args.port, timeout=args.timeout,
                    retries=args.retries)
    try:
        if args.health or args.metrics:
            payload = client.healthz() if args.health else client.metrics()
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if not args.input:
            parser.error("no input file (or use --health/--metrics)")
        with open(args.input, "r", encoding="utf-8") as handle:
            source = handle.read()
        spec = ":".join(args.mao) if args.mao else None
        result = client.optimize(source, spec, filename=args.input)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(result["asm"])
        else:
            sys.stdout.write(result["asm"])
        sys.stderr.write("mao remote: %s cache=%s request-id=%s\n"
                         % (args.input, result.get("cache"),
                            result.get("request_id")))
        return 0
    except ServerError as exc:
        print("mao remote: %s" % exc, file=sys.stderr)
        return 1
    finally:
        client.close()
