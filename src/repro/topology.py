"""Cluster shape as a value: the one place that knows host naming.

The paper's protocol has one lease authority per datum (§2).  Sharding
only changes *which* authority a datum maps to, and replication
(PaxosLease) only turns each authority into a group that elects a
master; neither changes the protocol a client speaks.  A
:class:`Topology` therefore describes every simulated cluster this
repository can assemble, and the classic one-server cluster is its
smallest case:

======  ========  ==========================  =========================
shards  replicas  authority group of shard k  client's server address
======  ========  ==========================  =========================
1       1         ``("server",)``             ``"server"``
N       1         ``("s{k}",)``               ``("s0", .., "s{N-1}")``
1       M         ``("r0", .., "r{M-1}")``    ``("r0", .., "r{M-1}")``
N       M         ``("s{k}r0", ..)``          ``(("s0r0", ..), ..)``
======  ========  ==========================  =========================

Clients are always ``c0 .. c{n-1}``.  Scenario files, fault schedules
and traces address hosts by these names, so they are frozen.  This
module is sim-free (it imports nothing but the type aliases): the
scenario grammar, the generator, both assemblers and the shard router
all derive names from it instead of spelling them, and both assemblers'
clusters share :class:`Assembled`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types import HostId

#: What a client engine takes as its ``server`` argument: one host, one
#: replica group, or one of either per shard.
ServerAddress = HostId | tuple[HostId, ...] | tuple[tuple[HostId, ...], ...]


def client_host(index: int) -> HostId:
    """The name of client ``index``."""
    return f"c{index}"


def is_replica_host(host: str) -> bool:
    """True for replica host names: ``r{j}`` or ``s{k}r{j}``.

    Replica hosts are *dual-role* for the §5 clock-fault analysis: the
    master both grants file leases (fast clock dangerous) and holds the
    PaxosLease master lease (slow/backward clock dangerous), so — unlike
    plain server hosts — a clock fault on a replica is dangerous in both
    directions.
    """
    if len(host) > 1 and host[0] == "r" and host[1:].isdigit():
        return True
    if len(host) > 3 and host[0] == "s":
        shard_part, sep, rep_part = host[1:].partition("r")
        return bool(sep) and shard_part.isdigit() and rep_part.isdigit()
    return False


def is_server_host(host: str) -> bool:
    """True for lease-authority host names: ``"server"``, a shard
    ``s{k}``, or a replica ``r{j}`` / ``s{k}r{j}``.

    Client hosts are ``c{i}``; the §5 clock-fault danger directions flip
    between server and client hosts, so fault classification needs this.
    """
    return (
        host == "server"
        or (len(host) > 1 and host[0] == "s" and host[1:].isdigit())
        or is_replica_host(host)
    )


@dataclass(frozen=True)
class Topology:
    """How many authorities, how many replicas of each, how many clients.

    Attributes:
        shards: lease authorities the file namespace is hashed across.
        replicas: members of each authority's PaxosLease group (1 = the
            unreplicated server of the paper).
        clients: client cache hosts.
    """

    shards: int = 1
    replicas: int = 1
    clients: int = 2

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"need at least one shard, got {self.shards}")
        if self.replicas < 1:
            raise ValueError(f"need at least one replica, got {self.replicas}")
        if self.clients < 0:
            raise ValueError(f"negative client count: {self.clients}")

    def group(self, shard: int) -> tuple[HostId, ...]:
        """The hosts of shard ``shard``'s lease authority, in replica order."""
        prefix = f"s{shard}" if self.shards > 1 else ""
        if self.replicas > 1:
            return tuple(f"{prefix}r{j}" for j in range(self.replicas))
        return (prefix or "server",)

    def groups(self) -> tuple[tuple[HostId, ...], ...]:
        """Every authority group, in shard order."""
        return tuple(self.group(k) for k in range(self.shards))

    def servers(self) -> tuple[HostId, ...]:
        """Every authority host, flat: shard-major, replica-minor."""
        return tuple(host for group in self.groups() for host in group)

    def client_hosts(self) -> tuple[HostId, ...]:
        """``("c0", .., "c{n-1}")``."""
        return tuple(client_host(i) for i in range(self.clients))

    def hosts(self) -> tuple[HostId, ...]:
        """Every host in the cluster, servers first."""
        return self.servers() + self.client_hosts()

    def server_address(self) -> ServerAddress:
        """What each client engine is given as its ``server``.

        A singleton group collapses to its one host and a single shard to
        its one group, so the 1x1 client addresses plain ``"server"``.
        """
        per_shard = tuple(
            group[0] if len(group) == 1 else group for group in self.groups()
        )
        return per_shard[0] if len(per_shard) == 1 else per_shard


class Assembled:
    """What a cluster assembled from a :class:`Topology` derives from its
    ``groups`` (shard ``k``'s authority nodes, in :meth:`Topology.group`
    order) and ``clients`` (``c0`` ..), with one meaning for both
    :func:`repro.sim.driver.build_cluster` and
    :func:`repro.runtime.build_cluster`."""

    @property
    def server(self):
        """The first authority node — *the* server of a 1x1 cluster."""
        return self.groups[0][0]

    @property
    def servers(self) -> list:
        """Every authority node, flat: shard-major, replica-minor."""
        return [node for group in self.groups for node in group]

    def master_of(self, shard: int = 0):
        """The node currently serving shard ``shard`` (None while it is
        down or mid-election)."""
        return next((node for node in self.groups[shard] if node.is_master()), None)

    def client(self, index: int):
        """The index-th client (``c<index>``)."""
        return self.clients[index]
