"""Client-side request pipeline: coalesce outbound requests into batches.

The paper's §3.1 batches lease *extensions* to amortize the round trip;
this module generalizes that to every request a client sends, in the
style of the memproxy client pipeline.  The engine routes each outbound
request here instead of emitting a ``Send`` directly; the pipeline
buffers it and the engine arms a zero-delay flush timer.  Both executors
already give that timer the semantics we need:

* the simulator's kernel orders events by ``(time, seq)``, so a
  zero-delay timer fires after every other event at the same instant;
* an asyncio node (``repro.runtime.node``) fires a zero-delay timer in a
  later loop iteration than the one that armed it, after every task step
  and callback scheduled in that iteration.

Either way, all requests issued "at the same time" leave in one
:class:`~repro.protocol.messages.BatchRequest` frame — no driver
changes, and with batching disabled behaviour is bit-for-bit identical.

Retransmissions flow through the pipeline too: each inner op keeps its
own ``req_id`` and retry timer, so a lost *batch* is recovered op by op
(the retransmitted ops coalesce into a fresh batch on the next tick).
"""

from __future__ import annotations

from typing import Callable

from repro.protocol.messages import (
    ApprovalReply,
    BatchRequest,
    ExtendRequest,
    Message,
    NamespaceRequest,
    ReadRequest,
    RelinquishRequest,
    WriteRequest,
)

#: Engine timer key that flushes the pipeline.
FLUSH_TIMER = "pipeline.flush"

#: Most ops in one batched frame (a client's pipeline).
MAX_BATCH = 64

#: Everything a client sends is batchable; server-bound pushes that some
#: subclass might emit stay unbatched by default.
_BATCHABLE = (
    ReadRequest,
    ExtendRequest,
    WriteRequest,
    NamespaceRequest,
    RelinquishRequest,
    ApprovalReply,
)


class BatchPipeline:
    """Buffers one client's outbound requests for the current instant.

    The engine owns exactly one pipeline and drives it from two points:
    :meth:`add` on every outbound request (arming the flush timer when
    the buffer transitions empty -> non-empty), and :meth:`flush` when
    that timer fires.
    """

    def __init__(self, next_id: Callable[[], int], max_batch: int = MAX_BATCH):
        """Args:
            next_id: allocator for batch ids (the engine's req-id counter,
                so batch ids never collide with inner op ids).
            max_batch: most ops per frame; a longer buffer is split into
                consecutive full frames.
        """
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1: {max_batch}")
        self._next_id = next_id
        self.max_batch = max_batch
        self._buffer: list[Message] = []
        self.batches_sent = 0
        self.ops_batched = 0

    @staticmethod
    def wants(msg: Message) -> bool:
        """Is this message eligible for batching?"""
        return isinstance(msg, _BATCHABLE)

    def __len__(self) -> int:
        return len(self._buffer)

    def add(self, msg: Message) -> bool:
        """Buffer one outbound message.

        Returns True when the flush timer must be armed (first message of
        the instant); later adds ride the already-armed timer.
        """
        self._buffer.append(msg)
        return len(self._buffer) == 1

    def flush(self) -> list[Message]:
        """Drain the buffer into the frames to send, in arrival order.

        A lone message is sent unwrapped — byte-identical to the
        unbatched protocol — so batching only changes the wire format
        when it actually saves frames.
        """
        msgs, self._buffer = self._buffer, []
        out: list[Message] = []
        for i in range(0, len(msgs), self.max_batch):
            chunk = msgs[i : i + self.max_batch]
            if len(chunk) == 1:
                out.append(chunk[0])
            else:
                out.append(BatchRequest(self._next_id(), tuple(chunk)))
                self.batches_sent += 1
                self.ops_batched += len(chunk)
        return out
