"""Frame accounting across failover: no loss, no stall, no silence.

The ISSUE 10 satellite audit of :class:`~repro.runtime.resilience.
FrameQueue` + :class:`~repro.shard.transport.FanoutTransport` when a
client switches transports mid-failover.  Two real defects are pinned
here as regressions:

* **flush stall** — a frame pushed while the reconnect flush was in
  progress was parked *after* the drain pass and then never flushed: it
  sat in the queue for the entire life of the new connection, invisible,
  until the next disconnect.  Hello, ``UP`` and the flush now happen in
  one callback, and whenever the connection is up and writable the queue
  is empty: parked frames go out FIFO ahead of anything sent later.
* **silent close** — both TCP transports discarded still-parked frames
  at ``close()`` with no ``transport.drop`` trace, violating the
  resilience contract that no frame ever disappears unobserved.  A
  frame stranded in a dead master's queue when the client moves on is
  exactly the failover case.
"""

import asyncio

from repro.obs.bus import TraceBus
from repro.obs.events import TRANSPORT_DROP
from repro.protocol.codec import encode_message
from repro.protocol.messages import ReadRequest
from repro.runtime.resilience import BackoffPolicy
from repro.runtime.tcp import TcpClientTransport, TcpServerTransport, _frame
from repro.shard.transport import FanoutTransport
from repro.storage.store import FileStore


def run(coro):
    return asyncio.run(coro)


FAST_BACKOFF = BackoffPolicy(initial=0.01, cap=0.05, jitter=0.0)


def _msg(req_id: int) -> ReadRequest:
    store = FileStore()
    store.create_file("/f", b"x")
    return ReadRequest(req_id=req_id, datum=store.file_datum("/f"))


class _PausingSocket:
    """A fake socket transport that pauses its protocol after N writes."""

    def __init__(self, pause_after: int):
        self.frames = []
        self.conn = None
        self._pause_after = pause_after

    def write(self, data: bytes) -> None:
        self.frames.append(data)
        if len(self.frames) == self._pause_after:
            self.conn.pause_writing()

    def is_closing(self) -> bool:
        return False

    def get_write_buffer_size(self) -> int:
        return 0

    def close(self) -> None:
        self.conn.connection_lost(None)


class TestReconnectFlushStall:
    def test_frames_parked_while_down_go_out_first_and_none_is_stranded(self):
        """The flush-stall regression, on what can still happen: a frame
        sent while the reconnect is still in progress (by a task the UP
        transition woke) goes out behind the parked window, not into the
        queue behind a connection that is already up."""

        async def scenario():
            received = []
            server = TcpServerTransport()
            server.set_handler(lambda m, src: received.append(m.req_id))
            await server.start()
            tcp = TcpClientTransport("c0")

            async def send_as_soon_as_up():
                await tcp.wait_up(timeout=5.0)
                await tcp.send("server", _msg(3))

            racer = asyncio.ensure_future(send_as_soon_as_up())
            await asyncio.sleep(0)
            await tcp.send("server", _msg(1))  # DOWN: parks
            await tcp.send("server", _msg(2))
            await tcp.connect(port=server.port)
            assert len(tcp._queue) == 0
            await racer
            await tcp.send("server", _msg(4))
            assert len(tcp._queue) == 0
            await asyncio.sleep(0.05)
            assert received == [1, 2, 3, 4]
            await tcp.close()
            await server.close()

        run(scenario())

    def test_flush_cut_short_by_a_pause_resumes_in_order(self, monkeypatch):
        """The socket pauses mid-flush: what was not written stays parked in
        order, a frame sent meanwhile parks behind it, and the resume sends
        all of it, oldest first."""

        async def scenario():
            tcp = TcpClientTransport("c0", reconnect=False)
            sock = _PausingSocket(pause_after=2)  # the hello and one frame

            async def fake_create_connection(factory, host, port):
                sock.conn = factory()
                sock.conn.connection_made(sock)
                return sock, sock.conn

            monkeypatch.setattr(
                asyncio.get_running_loop(), "create_connection", fake_create_connection
            )
            frames = [_frame(encode_message(_msg(i))) for i in range(1, 5)]
            for i in (1, 2, 3):
                await tcp.send("server", _msg(i))
            await tcp.connect(port=1)
            assert sock.frames == [_frame({"hello": "c0"}), frames[0]]
            await tcp.send("server", _msg(4))  # up but paused: parks behind 2, 3
            assert len(tcp._queue) == 3
            sock.conn.resume_writing()
            assert sock.frames[2:] == frames[1:]
            assert len(tcp._queue) == 0
            await tcp.close()

        run(scenario())


class TestCloseAccounting:
    def test_client_close_reports_parked_frames(self):
        """Frames still parked when the transport dies must be observable."""

        async def scenario():
            bus = TraceBus(capacity=None)
            tcp = TcpClientTransport("c0", server_name="a", obs=bus)
            await tcp.send("a", _msg(1))  # DOWN: parks
            await tcp.send("a", _msg(2))
            assert len(tcp._queue) == 2
            await tcp.close()
            drops = [e for e in bus.events(TRANSPORT_DROP) if e["reason"] == "closed"]
            assert len(drops) == 2
            assert all(e["dst"] == "a" for e in drops)
            assert len(tcp._queue) == 0

        run(scenario())

    def test_server_close_reports_parked_frames(self):
        async def scenario():
            bus = TraceBus(capacity=None)
            server = TcpServerTransport(obs=bus)
            await server.start()
            await server.send("ghost", _msg(1))  # peer never connected: parks
            await server.close()
            drops = [e for e in bus.events(TRANSPORT_DROP) if e["reason"] == "closed"]
            assert len(drops) == 1
            assert drops[0]["dst"] == "ghost"

        run(scenario())


class TestFanoutSwitch:
    def test_no_frame_lost_or_duplicated_across_a_transport_switch(self):
        """Failover switch: the client moves from a dead server's transport
        to a live one.  Every frame sent is accounted for exactly once —
        delivered to the live server, or parked-then-reported on close;
        none duplicated onto the wrong server."""

        async def scenario():
            bus = TraceBus(capacity=None)
            received_a, received_b = [], []

            server_a = TcpServerTransport("a", obs=bus)
            server_b = TcpServerTransport("b", obs=bus)
            await server_a.start()
            await server_b.start()
            server_a.set_handler(lambda m, src: received_a.append(m))
            server_b.set_handler(lambda m, src: received_b.append(m))

            ta = TcpClientTransport("c0", "a", backoff=FAST_BACKOFF, obs=bus)
            tb = TcpClientTransport("c0", "b", backoff=FAST_BACKOFF, obs=bus)
            fanout = FanoutTransport("c0", {"a": ta, "b": tb}, obs=bus)
            await ta.connect(port=server_a.port)
            await tb.connect(port=server_b.port)

            await fanout.send("a", _msg(1))
            await asyncio.sleep(0.05)
            assert [m.req_id for m in received_a] == [1]

            # Server "a" dies (the old master).  Frames addressed to it
            # now park in ta's queue; the switch sends new traffic to "b".
            await server_a.close()
            deadline = asyncio.get_running_loop().time() + 5.0
            while ta.state == "up":
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.01)
            await fanout.send("a", _msg(2))  # retransmission toward the corpse
            await fanout.send("b", _msg(3))  # failover traffic
            await asyncio.sleep(0.05)
            assert [m.req_id for m in received_b] == [3]
            assert [m.req_id for m in received_a] == [1]  # no cross-delivery

            await fanout.close()
            # The parked frame toward the dead master is reported, not
            # silently swallowed with the transport.
            closed_drops = [
                e for e in bus.events(TRANSPORT_DROP)
                if e["reason"] == "closed" and e["host"] == "c0"
            ]
            assert any(e["dst"] == "a" for e in closed_drops)
            await server_b.close()

        run(scenario())
