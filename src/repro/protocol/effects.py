"""Effects emitted by the sans-io engines.

A driver (simulator or asyncio runtime) executes each effect:

* :class:`Send` / :class:`Broadcast` — transmit a message.  A broadcast is
  delivered to an explicit recipient list; drivers with a multicast
  facility pay one send-side processing cost, drivers without one fan out
  unicasts (the paper's footnote 6 cost difference).
* :class:`SetTimer` / :class:`CancelTimer` — arm or disarm a named timer;
  the engine will receive ``handle_timer(key, now)`` when it fires.
* :class:`Complete` — an application-visible operation finished; carries
  the result to whoever invoked the client API.

The contract: an effect is built by an engine and consumed once by the
driver inside the same call; it is never stored, never mutated and never
shared across hosts.  That is why the classes are plain ``slots``
dataclasses, immutable by contract and not by ``frozen=True`` (whose
``__init__`` pays one ``object.__setattr__`` per field, on every effect of
every operation) — and why messages may not follow: the DES hands
:class:`~repro.protocol.messages.Message` objects across hosts by
reference, so those stay frozen.  Equality is class-aware (tests compare
effect lists with ``==``); effects are not hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.protocol.messages import Message
from repro.types import HostId


@dataclass(slots=True)
class Send:
    """Transmit ``message`` to ``dst``."""

    dst: HostId
    message: Message


@dataclass(slots=True)
class Broadcast:
    """Transmit ``message`` to every host in ``dsts`` (multicast if available)."""

    dsts: tuple[HostId, ...]
    message: Message


@dataclass(slots=True)
class SetTimer:
    """Arm timer ``key`` to fire ``delay`` seconds from now.

    Re-arming an existing key replaces the previous deadline.
    """

    key: str
    delay: float


@dataclass(slots=True)
class CancelTimer:
    """Disarm timer ``key`` (no-op when not armed)."""

    key: str


@dataclass(slots=True)
class Complete:
    """An application operation finished.

    Attributes:
        op_id: the id returned when the operation was submitted.
        ok: True on success.
        value: operation result — (version, payload) for reads, the new
            version for writes.
        error: error string when ``ok`` is False.
    """

    op_id: int
    ok: bool
    value: Any = None
    error: str | None = None


#: Union type of everything an engine can emit.
Effect = Send | Broadcast | SetTimer | CancelTimer | Complete
