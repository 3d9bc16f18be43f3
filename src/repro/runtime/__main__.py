"""Command-line entry points for real lease servers and clients.

Server (runs until interrupted)::

    python -m repro.runtime server --port 7400 --term 10 \
        --file /etc/motd=hello --file /bin/tool=v1

Client, one-shot operations::

    python -m repro.runtime client --port 7400 read /etc/motd
    python -m repro.runtime client --port 7400 write /etc/motd "new text"
    python -m repro.runtime client --port 7400 ls /
    python -m repro.runtime client --port 7400 create /notes "first"
    python -m repro.runtime client --port 7400 mv /notes /notes.txt

Client, interactive shell::

    python -m repro.runtime client --port 7400 shell

Both TCP (default) and UDP transports are supported via ``--transport``.
TCP clients reconnect automatically with capped exponential backoff when
the server dies (``--no-reconnect`` restores single-shot behaviour), and
``--chaos-loss/--chaos-delay/--chaos-dup/--chaos-disconnect`` wrap the
client transport in :class:`repro.runtime.chaos.ChaosTransport` to
exercise the §5 fault model over real sockets.  ``--trace FILE`` exports
the run's obs events (``conn.*``, ``transport.drop``, ``net.*``, …) as
JSON Lines on exit.
"""

from __future__ import annotations

import argparse
import asyncio

from repro.lease.policy import AdaptiveTermPolicy, FixedTermPolicy
from repro.analytic.params import V_PARAMS
from repro.obs.bus import TraceBus
from repro.protocol.client import ClientConfig
from repro.protocol.server import ServerConfig
from repro.runtime import pathapi
from repro.runtime.chaos import ChaosTransport
from repro.runtime.node import LeaseClientNode, LeaseServerNode
from repro.runtime.tcp import TcpClientTransport, TcpServerTransport
from repro.runtime.udp import UdpClientTransport, UdpServerTransport
from repro.storage.store import FileStore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.runtime", description="Run a lease file server or client."
    )
    sub = parser.add_subparsers(dest="role", required=True)

    server = sub.add_parser("server", help="run a lease file server")
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument("--port", type=int, default=7400)
    server.add_argument("--transport", choices=("tcp", "udp"), default="tcp")
    server.add_argument(
        "--name",
        default="server",
        help="this server's host name — run shard k of a sharded "
        "deployment as --name s<k> (clients address shards by name)",
    )
    server.add_argument(
        "--term", type=float, default=10.0, help="lease term in seconds"
    )
    server.add_argument(
        "--adaptive", action="store_true", help="pick terms from the analytic model"
    )
    server.add_argument(
        "--epsilon", type=float, default=0.1, help="clock-uncertainty allowance"
    )
    server.add_argument(
        "--file",
        action="append",
        default=[],
        metavar="PATH=CONTENT",
        help="seed a file (repeatable)",
    )
    server.add_argument(
        "--stats-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="print a status line periodically (0 = off)",
    )
    server.add_argument(
        "--recovery-delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help=(
            "defer writes this long after startup — set to the maximum "
            "term the previous incarnation may have granted when "
            "restarting a crashed server (paper section 2)"
        ),
    )

    client = sub.add_parser("client", help="talk to a lease file server")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=7400)
    client.add_argument("--transport", choices=("tcp", "udp"), default="tcp")
    client.add_argument("--name", default="cli-client")
    client.add_argument(
        "--server-name",
        default="server",
        help="host name of the server to address (a shard server started "
        "with --name s<k> is addressed as s<k>)",
    )
    client.add_argument("--epsilon", type=float, default=0.1)
    client.add_argument(
        "--no-reconnect",
        action="store_true",
        help="disable automatic TCP reconnection (single-shot connection)",
    )
    client.add_argument(
        "--chaos-loss", type=float, default=0.0, metavar="RATE",
        help="inject message loss at this per-leg probability",
    )
    client.add_argument(
        "--chaos-delay", type=float, default=0.0, metavar="SECONDS",
        help="inject up to this much extra latency per message",
    )
    client.add_argument(
        "--chaos-dup", type=float, default=0.0, metavar="RATE",
        help="duplicate messages at this per-leg probability",
    )
    client.add_argument(
        "--chaos-disconnect", type=float, default=0.0, metavar="SECONDS",
        help="force a disconnect on average every SECONDS (TCP only)",
    )
    client.add_argument(
        "--chaos-seed", type=int, default=0, help="chaos RNG seed"
    )
    client.add_argument(
        "command",
        choices=("read", "write", "ls", "create", "mkdir", "rm", "mv", "shell"),
    )
    client.add_argument("args", nargs="*")
    for role_parser in (server, client):
        role_parser.add_argument(
            "--trace",
            metavar="FILE",
            default=None,
            help="export the run's obs events as JSON Lines on exit",
        )
    return parser


def _seed_store(specs: list[str]) -> FileStore:
    store = FileStore()
    for spec in specs:
        path, _, content = spec.partition("=")
        store.namespace.makedirs(path.rsplit("/", 1)[0] or "/")
        store.create_file(path, content.encode("utf-8"))
    return store


def _trace_bus(args: argparse.Namespace) -> TraceBus | None:
    return TraceBus(capacity=None) if args.trace else None


def _export_trace(args: argparse.Namespace, bus: TraceBus | None) -> None:
    if bus is not None and args.trace:
        count = bus.export_jsonl(args.trace)
        print(f"trace: wrote {count} events to {args.trace}", flush=True)


async def run_server(args: argparse.Namespace) -> int:
    store = _seed_store(args.file)
    bus = _trace_bus(args)
    if args.transport == "tcp":
        transport = TcpServerTransport(args.name, obs=bus)
        await transport.start(host=args.host, port=args.port)
    else:
        transport = UdpServerTransport(args.name, obs=bus)
        await transport.start(host=args.host, port=args.port)
    policy = (
        AdaptiveTermPolicy(V_PARAMS, default_term=args.term)
        if args.adaptive
        else FixedTermPolicy(args.term)
    )
    server = LeaseServerNode(
        transport,
        store,
        policy,
        config=ServerConfig(
            epsilon=args.epsilon, recovery_delay=args.recovery_delay
        ),
        obs=bus,
    )
    print(
        f"lease server on {args.transport}://{args.host}:{transport.port} "
        f"(term={'adaptive' if args.adaptive else args.term}, "
        f"files={store.file_count()}); Ctrl-C to stop",
        flush=True,
    )
    try:
        if args.stats_interval > 0:
            while True:
                await asyncio.sleep(args.stats_interval)
                status = server.engine.status(server.clock.now())
                line = " ".join(
                    f"{key}={value}" for key, value in sorted(status.items())
                    if key != "now"
                )
                print(f"stats: {line}", flush=True)
        else:
            await asyncio.Event().wait()
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        await server.close()
        _export_trace(args, bus)
    return 0


async def _execute(client: LeaseClientNode, command: str, args: list[str]) -> int:
    if command == "read":
        version, payload = await pathapi.read_file(client, args[0])
        text = payload.decode("utf-8", "replace") if isinstance(payload, bytes) else payload
        print(f"v{version}: {text}")
    elif command == "write":
        version = await pathapi.write_file(client, args[0], args[1].encode("utf-8"))
        print(f"committed v{version}")
    elif command == "ls":
        for name, _target, is_dir, mode in await pathapi.list_dir(client, args[0] if args else "/"):
            print(f"{'d' if is_dir else '-'}{mode or '--'}  {name}")
    elif command == "create":
        file_id = await pathapi.create_file(
            client, args[0], args[1].encode("utf-8") if len(args) > 1 else b""
        )
        print(f"created {file_id}")
    elif command == "mkdir":
        print(f"created {await pathapi.mkdir(client, args[0])}")
    elif command == "rm":
        await pathapi.unlink(client, args[0])
        print("removed")
    elif command == "mv":
        await pathapi.rename(client, args[0], args[1])
        print("renamed")
    else:
        raise ValueError(command)
    return 0


async def _shell(client: LeaseClientNode) -> int:
    loop = asyncio.get_running_loop()
    print("lease shell — commands: read write ls create mkdir rm mv quit")
    while True:
        try:
            line = await loop.run_in_executor(None, input, "lease> ")
        except (EOFError, KeyboardInterrupt):
            break
        words = line.split()
        if not words:
            continue
        if words[0] in ("quit", "exit"):
            break
        try:
            await _execute(client, words[0], words[1:])
        except Exception as exc:
            print(f"error: {exc}")
    return 0


async def run_client(args: argparse.Namespace) -> int:
    bus = _trace_bus(args)
    if args.transport == "tcp":
        transport = TcpClientTransport(
            args.name,
            server_name=args.server_name,
            reconnect=not args.no_reconnect,
            obs=bus,
        )
    else:
        transport = UdpClientTransport(args.name, server_name=args.server_name, obs=bus)
    if any((args.chaos_loss, args.chaos_delay, args.chaos_dup, args.chaos_disconnect)):
        transport = ChaosTransport(
            transport,
            loss=args.chaos_loss,
            delay=args.chaos_delay,
            dup=args.chaos_dup,
            disconnect_period=args.chaos_disconnect,
            seed=args.chaos_seed,
            obs=bus,
        )
    await transport.connect(host=args.host, port=args.port)
    client = LeaseClientNode(
        transport,
        args.server_name,
        config=ClientConfig(epsilon=args.epsilon),
        obs=bus,
    )
    try:
        if args.command == "shell":
            return await _shell(client)
        return await _execute(client, args.command, args.args)
    finally:
        await client.close()
        _export_trace(args, bus)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    runner = run_server if args.role == "server" else run_client
    try:
        return asyncio.run(runner(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
