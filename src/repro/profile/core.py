"""Two pinned, deterministic storms for the simulator's hot path.

* :func:`timer_storm` — lease-renewal timer churn (arm, cancel, re-arm),
  spent almost entirely in the kernel's heap and its compaction.
* :func:`ping_storm` — request/response ping-pong through the simulated
  network under the paper's full timing model.

Both use only ``schedule``/``cancel``/``unicast``, so the same work runs
unchanged against any revision, and both return the kernel's
executed-event count.  ``benchmarks/stack`` divides those counts by wall
time to report ``sim.kernel.events_per_s`` and
``sim.network.events_per_s``; ``tests/profile`` pins their sum.
"""

from __future__ import annotations

from repro.sim.host import Host
from repro.sim.kernel import Kernel
from repro.sim.network import Network, NetworkParams


def timer_storm(lines: int = 64, renewals: int = 400) -> int:
    """Lease-renewal churn: per line, arm a long expiry timer, then
    repeatedly cancel and re-arm it from a short-period renewal timer.

    Every renewal inserts twice and cancels once (DESIGN.md §10), so
    cancelled entries pile up and force periodic compaction, and the
    heap holds two live entries per line: a short renewal timer next to
    a 30 s expiry.  Returns the kernel's executed-event count.
    """
    kernel = Kernel(seed=11)

    def renew(line: int, left: int, armed: list) -> None:
        if armed[0] is not None:
            armed[0].cancel()
        if left:
            armed[0] = kernel.schedule(30.0, expire, line)
            kernel.schedule(0.25 + (line % 7) * 0.01, renew, line, left - 1, armed)

    def expire(line: int) -> None:
        pass

    for line in range(lines):
        kernel.schedule((line % 13) * 0.003, renew, line, renewals, [None])
    kernel.run()
    return kernel.executed


def ping_storm(clients: int = 48, rounds: int = 300) -> int:
    """Request/response ping-pong through the simulated network.

    Every leg pays the paper's full timing model (send m_proc, m_prop,
    receive m_proc) with zero loss, so each one qualifies for the
    fault-free delivery fast path.  Returns the executed-event count.
    """
    kernel = Kernel(seed=13)
    net = Network(kernel, NetworkParams())
    server = Host("server", kernel)
    net.attach(server)
    remaining: dict[str, int] = {}

    def server_handler(payload, src):
        net.unicast("server", src, payload + 1, kind="pong")

    server.set_handler(server_handler)

    def attach_client(name: str) -> None:
        host = Host(name, kernel)
        net.attach(host)

        def handler(payload, src):
            if remaining[name]:
                remaining[name] -= 1
                net.unicast(name, "server", payload, kind="ping")

        host.set_handler(handler)

    for i in range(clients):
        name = f"c{i}"
        remaining[name] = rounds
        attach_client(name)
        kernel.schedule(0.001 * i, net.unicast, name, "server", 0, "ping")
    kernel.run()
    return kernel.executed
