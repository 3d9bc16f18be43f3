"""The client's retransmission schedule, driven sans-io.

Against a replica group a request's rpc wait starts at ``rpc_timeout`` and
doubles at each firing, up to the request's own timeout; a ``NotMaster``
resend re-arms the current wait.  Against a single server every wait is
the request's timeout.  Either way the request fails on the firing that
takes its summed waits past ``max_retries`` timeouts.
"""

from repro.protocol.client import ClientConfig, ClientEngine
from repro.protocol.effects import Complete, Send, SetTimer
from repro.protocol.messages import NotMaster
from repro.types import DatumId

F1 = DatumId.file("f1")
GROUP = ("r0", "r1", "r2")


def make_client(server=GROUP, **overrides):
    settings = dict(epsilon=0.0, rpc_timeout=0.5, write_timeout=10.0, max_retries=8)
    settings.update(overrides)
    return ClientEngine("c0", server, config=ClientConfig(**settings))


def armed(effects, req_id):
    """The delay of the one ``rpc:<req_id>`` timer ``effects`` arm."""
    (delay,) = [
        e.delay for e in effects if isinstance(e, SetTimer) and e.key == f"rpc:{req_id}"
    ]
    return delay


def start(client, kind="write"):
    """Submit one op; return its request id and the first armed wait."""
    if kind == "write":
        _, effects = client.write(F1, b"v2", 0.0)
    else:
        _, effects = client.read(F1, 0.0)
    (send,) = [e for e in effects if isinstance(e, Send)]
    req_id = send.message.req_id
    return req_id, armed(effects, req_id)


def fire(client, req_id, times):
    """Fire the request's rpc timer ``times`` times; return each re-armed wait."""
    delays = []
    for _ in range(times):
        effects = client.handle_timer(f"rpc:{req_id}", 0.0)
        delays.append(armed(effects, req_id))
    return delays


class TestGroupSchedule:
    def test_write_doubles_up_to_its_timeout_then_stays(self):
        client = make_client()
        req_id, first = start(client)
        assert [first, *fire(client, req_id, 7)] == [0.5, 1.0, 2.0, 4.0, 8.0, 10.0, 10.0, 10.0]

    def test_not_master_resend_keeps_the_current_wait(self):
        client = make_client()
        req_id, _ = start(client)
        assert fire(client, req_id, 2) == [1.0, 2.0]
        hint = next(host for host in GROUP if host != client.server)
        effects = client.handle_message(NotMaster(req_id, master=hint), client.server, 0.0)
        assert [e.dst for e in effects if isinstance(e, Send)] == [hint]
        assert armed(effects, req_id) == 2.0
        # The resend did not advance the schedule either.
        assert fire(client, req_id, 1) == [4.0]

    def test_read_waits_rpc_timeout_every_time(self):
        client = make_client()
        req_id, first = start(client, "read")
        assert [first, *fire(client, req_id, 6)] == [0.5] * 7

    def test_fails_on_the_firing_that_passes_the_budget(self):
        # Waits 1, 2, 3, 3, ... sum to 1, 3, 6, 9 after each firing; the
        # budget is 2 x 3 = 6 s, so the third firing (exactly 6) still
        # retransmits and the fourth (9) fails.
        client = make_client(rpc_timeout=1.0, write_timeout=3.0, max_retries=2)
        req_id, first = start(client)
        assert [first, *fire(client, req_id, 3)] == [1.0, 2.0, 3.0, 3.0]
        effects = client.handle_timer(f"rpc:{req_id}", 0.0)
        (complete,) = [e for e in effects if isinstance(e, Complete)]
        assert not complete.ok
        assert not any(isinstance(e, (Send, SetTimer)) for e in effects)
        assert client.metrics.retransmissions == 3
        assert client.metrics.failures == 1


class TestSingleServerSchedule:
    def test_write_waits_its_timeout_and_fails_after_max_retries(self):
        client = make_client(server="server", write_timeout=0.3, max_retries=6)
        req_id, first = start(client)
        assert [first, *fire(client, req_id, 6)] == [0.3] * 7
        assert client.metrics.retransmissions == 6
        effects = client.handle_timer(f"rpc:{req_id}", 0.0)
        (complete,) = [e for e in effects if isinstance(e, Complete)]
        assert not complete.ok
        assert client.metrics.retransmissions == 6
        assert client.metrics.failures == 1
