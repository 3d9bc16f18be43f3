"""NFS-style TTL hints (§6): caching without a consistency guarantee.

"In the Internet Domain Name Service, for example, a name server specifies
a time-to-live for the data it returns, and clients cache the data for
that period.  However, the data may be modified during that interval."
NFS caches file attributes/data the same way.

:class:`TtlServerEngine` speaks the same wire protocol as the lease server
— reads and extensions return a "term" (here: the TTL) — but it commits
writes *immediately*: no approval callbacks, no waiting for expiry, no
lease table.  The unmodified :class:`~repro.protocol.client.ClientEngine`
then behaves exactly like an NFS client: it serves reads from cache for a
TTL and can return stale data for up to one TTL after another client's
write.  The consistency oracle quantifies that staleness.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.protocol.effects import Effect, Send
from repro.protocol.messages import (
    ExtendGrant,
    ExtendReply,
    ExtendRequest,
    Message,
    NamespaceReply,
    NamespaceRequest,
    ReadReply,
    ReadRequest,
    WriteReply,
    WriteRequest,
)
from repro.sim.driver import Cluster, build_cluster
from repro.storage.store import FileStore
from repro.types import DatumId, DatumKind, HostId


class TtlServerEngine:
    """A server that hands out TTL hints and never coordinates writes.

    Duck-compatible with :class:`~repro.protocol.server.ServerEngine` so the
    standard simulation driver can host it (NFS announces no covers, so
    ``installed`` is ignored).  The ``policy`` supplies the TTL (its term
    for the datum).
    """

    def __init__(
        self, name, store: FileStore, policy, config=None, installed=None, now=0.0, obs=None
    ):
        self.name = name
        self.store = store
        self.policy = policy
        self.config = config
        self.obs = obs  # accepted for driver compatibility; TTL emits nothing
        self._write_dedup: dict[tuple[HostId, int], tuple[int, str | None]] = {}

    def startup_effects(self, now: float) -> list[Effect]:
        """No timers: a stateless TTL server has nothing to maintain."""
        return []

    def reboot(self, now: float) -> "TtlServerEngine":
        """The next incarnation after a crash.  Nothing carries over: no
        lease was promised, so there is nothing to wait out, and the write
        dedup table is volatile."""
        return type(self)(
            self.name, self.store, self.policy, config=self.config, now=now, obs=self.obs
        )

    def master_valid(self, now: float) -> bool:
        """A lone server: its shard's authority whenever it is up."""
        return True

    def handle_message(self, msg: Message, src: HostId, now: float) -> list[Effect]:
        """Serve reads/extends with TTL hints; commit writes immediately."""
        if isinstance(msg, ReadRequest):
            return self._read(msg, src, now)
        if isinstance(msg, ExtendRequest):
            return self._extend(msg, src, now)
        if isinstance(msg, WriteRequest):
            return self._write(msg, src, now)
        if isinstance(msg, NamespaceRequest):
            return self._namespace(msg, src, now)
        raise ReproError(f"TTL server got unexpected {type(msg).__name__}")

    def handle_timer(self, key: str, now: float) -> list[Effect]:
        """The TTL server never arms timers."""
        raise ReproError(f"TTL server has no timers (got {key!r})")

    # -- handlers ---------------------------------------------------------------

    def _ttl(self, datum: DatumId, src: HostId, now: float) -> float:
        return self.policy.term(datum, src, now)

    def _read(self, msg: ReadRequest, src: HostId, now: float) -> list[Effect]:
        if not self.store.datum_exists(msg.datum):
            return [Send(src, ReadReply(msg.req_id, msg.datum, error="no such datum"))]
        version, payload = self.store.read_datum(msg.datum)
        return [
            Send(
                src,
                ReadReply(
                    msg.req_id,
                    msg.datum,
                    version=version,
                    payload=None if msg.cached_version == version else payload,
                    term=self._ttl(msg.datum, src, now),
                ),
            )
        ]

    def _extend(self, msg: ExtendRequest, src: HostId, now: float) -> list[Effect]:
        grants, denied = [], []
        for datum, cached_version in msg.items:
            if not self.store.datum_exists(datum):
                denied.append(datum)
                continue
            version, payload = self.store.read_datum(datum)
            changed = cached_version != version
            grants.append(
                ExtendGrant(
                    datum,
                    self._ttl(datum, src, now),
                    version,
                    payload=payload if changed else None,
                    changed=changed,
                )
            )
        return [Send(src, ExtendReply(msg.req_id, tuple(grants), tuple(denied)))]

    def _write(self, msg: WriteRequest, src: HostId, now: float) -> list[Effect]:
        key = (src, msg.write_seq)
        if key in self._write_dedup:
            version, error = self._write_dedup[key]
            return [Send(src, WriteReply(msg.req_id, msg.datum, version=version, error=error))]
        if msg.datum.kind is not DatumKind.FILE or not self.store.datum_exists(msg.datum):
            return [Send(src, WriteReply(msg.req_id, msg.datum, error="no such datum"))]
        # The defining behaviour: commit immediately, tell nobody.
        version = self.store.commit_file_write(msg.datum, msg.content, now)
        self._write_dedup[key] = (version, None)
        return [Send(src, WriteReply(msg.req_id, msg.datum, version=version))]

    def _namespace(self, msg: NamespaceRequest, src: HostId, now: float) -> list[Effect]:
        key = (src, msg.write_seq)
        if key in self._write_dedup:
            _, error = self._write_dedup[key]
            return [Send(src, NamespaceReply(msg.req_id, msg.op, error=error))]
        error, result = None, None
        try:
            if msg.op == "mkdir":
                result = self.store.namespace.mkdir(msg.args[0])
            elif msg.op == "bind":
                path, content, _class = msg.args
                result = self.store.create_file(path, content, now=now).file_id
            elif msg.op == "unbind":
                self.store.unlink(msg.args[0])
            elif msg.op == "rename":
                self.store.namespace.rename(*msg.args)
            else:
                error = f"unknown namespace op {msg.op!r}"
        except ReproError as exc:
            error = str(exc)
        self._write_dedup[key] = (0, error)
        return [Send(src, NamespaceReply(msg.req_id, msg.op, error=error, result=result))]

    def lease_count(self) -> int:
        """The NFS server keeps no per-client state ('stateless')."""
        return 0


def make_ttl_cluster(ttl: float = 10.0, **kwargs) -> Cluster:
    """Build a cluster running the TTL protocol (oracle non-strict, since
    staleness is expected and measured)."""
    from repro.lease.policy import FixedTermPolicy

    kwargs.setdefault("strict_oracle", False)
    return build_cluster(
        policy=FixedTermPolicy(ttl),
        server_engine_factory=TtlServerEngine,
        **kwargs,
    )
