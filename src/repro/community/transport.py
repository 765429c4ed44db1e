"""The community's message log, with wire-size accounting.

Models the Determina Node Manager <-> Management Console channel (SSL in
the paper).  Messages are JSON-able dicts; a :class:`MessageBus` records
every message with its wire size, which lets benchmarks verify the §3.1
claim that members upload *invariants*, never raw trace data.

Two kinds of log use it:

- each member's :class:`~repro.community.node.CommunityNode` sends its
  failure notifications and invariant uploads to a bus of its own, which
  the member's command handler drains into the next reply;
- every transport (:class:`~repro.community.remote.ChannelTransport`:
  in-process loopback, process-sharded, or socket) logs the commands,
  replies and replayed member messages that cross its channels, each
  with its canonical payload encoding (``wire_size``, identical across
  transports for identical payloads) and its true on-wire frame
  attribution (``frame_size``, whose per-kind totals sum to the bytes
  that crossed the channels).

Logging is by value: ``send`` round-trips the payload through the wire
codec, so the log never observes a sender-side mutation that a real
channel would not carry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Message:
    """One transported message."""

    sender: str
    recipient: str
    kind: str
    payload: dict
    #: Cached encoded size; the bus fills this at send time (it already
    #: serializes for the by-value copy) so accounting sweeps over large
    #: logs do not re-serialize every payload.
    encoded_size: int | None = field(default=None, compare=False,
                                     repr=False)
    #: Bytes this record accounts for on a *real* channel (length
    #: prefix included; a reply frame's bytes are split exactly between
    #: the piggybacked member messages and the ``reply:<op>`` record).
    #: None for messages no channel carried (a member's own outbox).
    frame_size: int | None = field(default=None, compare=False,
                                   repr=False)

    def wire_size(self) -> int:
        """Canonical encoded size of the payload in bytes — the
        transport-independent measure every transport reports
        (identical for identical payloads, wire framing overhead
        excluded)."""
        if self.encoded_size is None:
            self.encoded_size = len(
                json.dumps(self.payload, separators=(",", ":"))
                .encode("utf-8"))
        return self.encoded_size


@dataclass
class MessageBus:
    """A message log with delivery accounting."""

    log: list[Message] = field(default_factory=list)

    def send(self, sender: str, recipient: str, kind: str,
             payload: dict) -> Message:
        """Log a message; returns the logged record.

        The payload is round-tripped through the wire encoding at send
        time: the log holds an independent copy, so later sender-side
        mutations are invisible — the same by-value semantics a real
        serialized channel has.
        """
        encoded = json.dumps(payload, separators=(",", ":"))
        return self.deliver(Message(
            sender=sender, recipient=recipient, kind=kind,
            payload=json.loads(encoded),
            encoded_size=len(encoded.encode("utf-8"))))

    def deliver(self, message: Message) -> Message:
        """Log an already-materialized message.

        For callers whose payload is *already* an independent copy (a
        transport logs payloads freshly decoded off a channel): skips
        the defensive re-serialization ``send`` performs.
        """
        self.log.append(message)
        return message

    # -- accounting ---------------------------------------------------------

    def bytes_by_kind(self) -> dict[str, int]:
        """Total wire bytes per message kind."""
        totals: dict[str, int] = {}
        for message in self.log:
            totals[message.kind] = (totals.get(message.kind, 0)
                                    + message.wire_size())
        return totals

    def count_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for message in self.log:
            counts[message.kind] = counts.get(message.kind, 0) + 1
        return counts

    def channel_bytes_by_kind(self) -> dict[str, int]:
        """On-wire bytes per kind (records with a frame attribution).

        Empty on a member's outbox; on a transport the per-kind totals
        of a fault-free episode sum exactly to the bytes that crossed
        the member channels (see
        ``ChannelTransport.wire_bytes_total``; a dropped member's
        undecodable final bytes never become log records).
        """
        totals: dict[str, int] = {}
        for message in self.log:
            if message.frame_size is not None:
                totals[message.kind] = (totals.get(message.kind, 0)
                                        + message.frame_size)
        return totals
