"""Member channels: pipes, sockets, TLS, and the in-process loopback (§3).

ClearView's community runs each application under a Determina Node
Manager that talks to the Management Console over an encrypted SSL
channel.  This module is that channel made explicit, for every
transport the manager offers:

- :class:`FramedChannel` carries length-prefixed frames over any stream
  socket (anonymous socketpairs for same-host workers, TCP — optionally
  TLS-wrapped — for multi-host members).  Reads are *deadline-framed*:
  once the first byte of a frame arrives, the complete frame must land
  within :attr:`FramedChannel.frame_deadline` seconds.  That bounds
  time-to-complete-message, not just time-to-first-byte, so a worker
  wedged *mid-write* (SIGSTOPped after a partial reply) or trickling a
  frame slow-loris style is detected and dropped as ``hang`` instead of
  stalling the server forever in a blocking read.
- :class:`ChannelMember` is the server-side handle for one member on
  every transport.  It keeps a bounded *pipeline* of in-flight commands
  per worker and the canonical patches the member holds.  Its waits are
  multiplexed: while the server blocks on one member's reply,
  :meth:`FramedChannel.recv_frame` keeps pumping every other busy
  member's channel, so the manager's correlation/merge work overlaps
  in-flight member runs.
- :class:`ChannelTransport` is the shared transport base (bus-compatible
  accounting, the community's live patches in install order, per-op
  deadline table, worker-pool lifecycle); :class:`SocketTransport`
  implements it over TCP with optional TLS, either spawning loopback
  worker processes or accepting externally launched members (``python
  -m repro community --connect HOST:PORT``), and
  :class:`LoopbackTransport` runs the members in the server's own
  process over :class:`LoopbackChannel`.
- :func:`_handle_command` is the member command handler.  The worker
  processes run it from :func:`serve_channel`, the command loop of the
  pipe and socket transports; a :class:`LoopbackChannel` calls it for
  each frame it is sent.  One implementation, so the transports cannot
  drift apart.

Failure policy: a worker that crashes (EOF), hangs (no reply within the
per-op deadline, or a frame that fails to complete within the frame
deadline), fails its TLS handshake, or replies with undecodable protocol
is terminated, recorded in :attr:`ChannelTransport.dropped`, and
excluded from further dispatch; the manager re-shards its outstanding
work across the survivors.  Spawned workers are daemonic, terminate is
escalated to SIGKILL (a SIGSTOPped worker ignores SIGTERM until
continued), and :meth:`ChannelTransport.close` is idempotent, so no code
path leaves orphan processes behind.

Member lifecycle (``active ⇄ dropped``): every member enters the
community through one call, :meth:`ChannelTransport.admit` — first
spawn, respawn, rejoin and late arrival alike.  Beyond the reactive
failure policy above, the manager runs :meth:`ChannelTransport.heartbeat`
at each wave edge when ``heartbeat_interval`` is set: members idle for
longer than the interval are pinged (``ping`` has its own row in the
deadline table), so a worker that wedged *between* commands is evicted
before the next wave scatters work onto it.  The transport starts no
thread: a channel moves only inside the server's own calls.  Dropped
members are not gone for good: a member's hello lists the ids of the
patches it holds, and admission reconciles it against the community's
live patches in one ``catch-up`` command.  A live member cannot miss a
command (any command that fails drops it), so admission is the only
point where its patches can differ from the community's.

Accounting: every frame that crosses a channel is logged with its true
on-wire size (``Message.frame_size``, length prefix included).  A reply
frame's bytes are attributed exactly once — replayed piggyback bus
entries under their own kind, the remainder under ``reply:<op>`` — so
on a fault-free episode :meth:`ChannelTransport.channel_bytes_by_kind`
totals sum to the bytes that actually crossed the channels
(:meth:`wire_bytes_total`).  A dropped member's final garbage or
partial frame was received but never decoded into a log record, so
faulted episodes reconcile only up to the casualties' dying bytes.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import signal
import socket
import struct
import time
import typing
from collections import deque
from dataclasses import asdict, dataclass

from repro.community import wire
from repro.community.members import MemberFailure, patch_summary
from repro.community.node import CommunityNode, NodeStats
from repro.community.transport import Message, MessageBus
from repro.core.checks import CheckPatch, Observation
from repro.dynamo.execution import EnvironmentConfig, RunResult
from repro.dynamo.patches import Patch
from repro.errors import CommunityError
from repro.learning.database import InvariantDatabase
from repro.vm.binary import Binary

try:  # pragma: no cover - stdlib, but gate for minimal builds
    import ssl
except ImportError:  # pragma: no cover
    ssl = None  # type: ignore[assignment]

#: Non-fatal "try again later" signals from the (possibly TLS) socket.
_WANT_READ: tuple = (ssl.SSLWantReadError,) if ssl else ()
_WANT_WRITE: tuple = (ssl.SSLWantWriteError,) if ssl else ()

#: Exit code a worker uses for an injected crash (distinguishable from
#: interpreter faults in test diagnostics).
_INJECTED_CRASH_EXIT = 37

#: Frame header: 4-byte big-endian payload length.
_HEADER = struct.Struct(">I")

#: Refuse frames larger than this (a corrupt header must not allocate
#: gigabytes before the decode layer can reject the member).
MAX_FRAME_PAYLOAD = 1 << 30


class ChannelError(CommunityError):
    """Base for channel-level failures."""


class ChannelClosed(ChannelError):
    """The peer closed the connection.

    ``mid_frame`` is True when the EOF landed inside a partially
    received frame (a disconnect-mid-frame, not a clean shutdown).
    """

    def __init__(self, detail: str = "peer closed the channel",
                 mid_frame: bool = False):
        super().__init__(detail)
        self.mid_frame = mid_frame


class ChannelTimeout(ChannelError):
    """A read deadline expired.

    ``mid_frame`` distinguishes a frame that *started* but stopped
    making progress toward completion (the wedged-mid-write / slow-loris
    case) from a reply that never began at all.
    """

    def __init__(self, detail: str, mid_frame: bool = False):
        super().__init__(detail)
        self.mid_frame = mid_frame


def _monotonic() -> float:
    return time.monotonic()


class FramedChannel:
    """Length-prefixed frames over a stream socket, with read deadlines.

    The socket is switched to non-blocking mode; all waiting happens in
    explicit ``select`` calls so a caller can multiplex many channels
    (the *siblings* of :meth:`recv_frame`).  Incoming bytes are
    pumped into an internal buffer and parsed incrementally; complete
    frames queue up, which is what allows a bounded *pipeline* of
    in-flight commands per worker.

    Deadline protocol: :meth:`recv_frame` waits up to ``timeout``
    seconds for a frame to *start* (first byte), and once any bytes of
    the current frame are buffered the complete frame must land within
    :attr:`frame_deadline` seconds of its first byte — partial frames
    that fail to complete in time raise :class:`ChannelTimeout` with
    ``mid_frame=True``.  TLS sockets are supported transparently
    (``ssl.SSLWantReadError`` is treated as "no data yet" and the SSL
    layer's internal buffer is drained before every wait).
    """

    def __init__(self, sock: socket.socket, frame_deadline: float = 30.0):
        sock.setblocking(False)
        self._sock = sock
        self.frame_deadline = frame_deadline
        self._buffer = bytearray()
        self._frames: deque[bytes] = deque()
        self._frame_started: float | None = None
        self._eof = False
        self.closed = False
        #: On-wire byte counters (length prefixes included) for the
        #: accounting invariant per-kind totals are checked against.
        self.sent_bytes = 0
        self.received_bytes = 0

    def fileno(self) -> int:
        return self._sock.fileno()

    # -- receive side --------------------------------------------------

    def _parse(self) -> None:
        """Lift every complete frame out of the byte buffer."""
        while True:
            if len(self._buffer) < _HEADER.size:
                break
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_PAYLOAD:
                raise ChannelError(f"oversized frame ({length} bytes)")
            if len(self._buffer) < _HEADER.size + length:
                break
            frame = bytes(self._buffer[_HEADER.size:_HEADER.size + length])
            del self._buffer[:_HEADER.size + length]
            self._frames.append(frame)
        # The partial-frame clock: arms when unparsed bytes linger,
        # clears the moment the buffer sits on a frame boundary.
        if self._buffer:
            if self._frame_started is None:
                self._frame_started = _monotonic()
        else:
            self._frame_started = None

    def pump(self) -> bool:
        """Drain whatever the socket has ready into the frame queue
        without blocking; returns True if any bytes arrived."""
        if self.closed:
            return False
        progressed = False
        while True:
            try:
                chunk = self._sock.recv(65536)
            except (BlockingIOError, InterruptedError, *_WANT_READ):
                break
            except OSError:
                # A dead connection is an EOF, not an exception: bytes
                # already received this call still get parsed below, so
                # a complete reply that crossed the wire just before
                # the reset is surfaced rather than discarded.
                self._eof = True
                break
            if chunk == b"":
                self._eof = True
                break
            self._buffer.extend(chunk)
            self.received_bytes += len(chunk)
            progressed = True
        if self._buffer:
            # Parse even without new bytes: a header this channel
            # rejected while pumped as a sibling must raise again when
            # the channel itself is received from.
            self._parse()
        return progressed

    @property
    def at_eof(self) -> bool:
        return self._eof

    def recv_frame(self, timeout: float | None = None,
                   siblings: typing.Iterable["FramedChannel"] = ()
                   ) -> bytes:
        """Wait for one complete frame.

        ``timeout`` bounds time-to-first-byte (None = wait forever for a
        frame to start); :attr:`frame_deadline` bounds first byte to
        complete frame.  Raises :class:`ChannelTimeout` on either
        deadline, :class:`ChannelClosed` on EOF.

        While it waits, every channel in *siblings* that becomes
        readable is pumped too: the server collects one member's reply
        while the others' replies keep streaming into their buffers.  A
        sibling's failure surfaces when that sibling is received from.
        """
        start = _monotonic()
        while True:
            # Pump before evaluating any deadline: a frame that fully
            # arrived while the caller was busy must be surfaced, not
            # timed out.
            self.pump()
            if self._frames:
                return self._frames.popleft()
            if self._eof or self.closed:
                raise ChannelClosed(mid_frame=bool(self._buffer))
            now = _monotonic()
            if self._frame_started is not None:
                wait = self._frame_started + self.frame_deadline - now
                if wait <= 0:
                    raise ChannelTimeout(
                        f"frame stalled mid-receive ({len(self._buffer)} "
                        f"bytes buffered, no complete frame within "
                        f"{self.frame_deadline:.1f}s)", mid_frame=True)
            elif timeout is None:
                wait = 1.0
            else:
                wait = timeout - (now - start)
                if wait <= 0:
                    raise ChannelTimeout(
                        f"no reply within {max(timeout, 0.0):.1f}s")
            self._wait(wait, siblings)

    def _wait(self, timeout: float, siblings) -> None:
        """Sleep until this channel or a sibling is readable, at most
        *timeout* seconds, and pump the siblings that are."""
        if ssl is not None and isinstance(self._sock, ssl.SSLSocket) and \
                self._sock.pending():
            return
        # EOF'd channels are permanently select-readable with no
        # progress to make; including one would busy-spin the wait.
        watched = [self, *(peer for peer in siblings
                           if not peer.closed and not peer.at_eof)]
        try:
            readable, _, _ = select.select(watched, [], [], timeout)
        except (OSError, ValueError):
            # A descriptor died mid-select: pump everything once; a dead
            # channel reads as EOF and drops out of the next wait.
            readable = watched
        for peer in readable:
            if peer is self:
                continue
            try:
                peer.pump()
            except ChannelError:
                pass

    # -- send side -----------------------------------------------------

    def send_frame(self, payload: bytes,
                   timeout: float | None = None) -> int:
        """Write one frame; returns its on-wire size (header included)."""
        frame = _HEADER.pack(len(payload)) + payload
        self.send_raw(frame, timeout)
        return len(frame)

    def send_raw(self, data: bytes, timeout: float | None = None) -> None:
        """Write raw bytes (test hooks use this for partial frames)."""
        view = memoryview(data)
        start = _monotonic()
        while view:
            try:
                sent = self._sock.send(view)
            except (BlockingIOError, InterruptedError, *_WANT_WRITE):
                sent = 0
            except OSError as error:
                raise ChannelClosed(
                    f"channel write failed: {error}") from error
            if sent:
                self.sent_bytes += sent
                view = view[sent:]
                continue
            if timeout is not None and _monotonic() - start > timeout:
                raise ChannelTimeout(
                    f"peer stopped reading ({len(view)} bytes unsent "
                    f"after {timeout:.1f}s)")
            try:
                select.select([], [self._sock], [], 0.05)
            except (OSError, ValueError) as error:
                raise ChannelClosed(
                    f"channel wait failed: {error}") from error

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - teardown races
            pass


@dataclass
class DroppedMember:
    """One member the transport gave up on."""

    name: str
    reason: str
    op: str
    detail: str = ""


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class _ObservationTap:
    """Worker-local stand-in for the server's ObservationSink.

    Streams ``[patch_id, satisfied]`` events, in execution order, into
    the shared per-command event list the reply carries back.
    """

    def __init__(self, events: list, patch_id: int):
        self._events = events
        self._patch_id = patch_id

    def record(self, observation: Observation) -> None:
        self._events.append([self._patch_id, bool(observation.satisfied)])


class _WorkerState:
    """One member's session: its CommunityNode and the patch bookkeeping
    around it.

    A worker process keeps one across reconnects, so a rejoining member
    keeps its learned state and warm caches; a
    :class:`LoopbackChannel` keeps one in the server's own process.
    """

    def __init__(self, name: str, binary: Binary,
                 config: EnvironmentConfig | None):
        #: The node's outbox: member-originated messages (failure
        #: notifications, invariant uploads) ride the next reply home.
        self.bus = MessageBus()
        self.node = CommunityNode(name, binary, self.bus, config)
        #: Live patches by id (install-patch .. remove-patch window).
        self.installed: dict[int, Patch] = {}
        #: This command's trial patches (already withdrawn from the
        #: node), still owed a fired-delta report in the postlude.
        self.trial_patches: list[Patch] = []
        self.reported_fired: dict[int, int] = {}
        #: Capture registry for *installed* patches; trial patches use
        #: an ephemeral registry per command, so repair waves that mint
        #: fresh capture ids every round cannot grow this.
        self.captures: dict[str, object] = {}
        #: Per-capture-id refcounts over ``captures``: a capture/check
        #: pair installed as two commands shares one cell while either
        #: is live; removing the last holder frees the cell, so worker
        #: registries stay bounded across many patch episodes.
        self.capture_refs: dict[str, int] = {}
        self.events: list = []
        self.fault: dict | None = None
        self.last_database: dict | None = None
        #: Armed by the ``wedge-idle`` fault: SIGSTOP *after* the next
        #: reply is fully on the wire, i.e. with no command in flight —
        #: the wedge only a wave-edge heartbeat ping can notice.
        self.wedge_after_reply = False

    def decode_patch(self, payload: dict,
                     captures: dict | None = None) -> Patch:
        patch = wire.patch_from_dict(
            payload, self.captures if captures is None else captures,
            sink=_ObservationTap(self.events, payload["patch_id"]))
        # A re-decoded patch id (remove + reinstall of the same
        # server-side patch) starts from fired=0 again; reset its
        # reporting watermark or the next postlude would fold a spurious
        # negative delta into the canonical counter.
        self.reported_fired[patch.patch_id] = 0
        return patch

    def install(self, payload: dict) -> None:
        """Decode one wire-form patch and apply it to the node."""
        patch = self.decode_patch(payload)
        self.node.apply_patch(patch)
        self.installed[patch.patch_id] = patch
        capture = getattr(patch, "capture", None)
        if capture is not None:
            capture_id = capture.capture_id
            self.capture_refs[capture_id] = \
                self.capture_refs.get(capture_id, 0) + 1

    def remove(self, patch_id: int) -> bool:
        """Withdraw one installed patch and free its capture hold;
        returns False when the patch is not held."""
        patch = self.installed.pop(patch_id, None)
        if patch is None:
            return False
        self.node.remove_patch(patch)
        # No delta can be pending: fired only moves during run-style
        # commands, whose own replies already drained it.
        self.reported_fired.pop(patch_id, None)
        capture = getattr(patch, "capture", None)
        if capture is not None and capture.capture_id in self.capture_refs:
            capture_id = capture.capture_id
            self.capture_refs[capture_id] -= 1
            if not self.capture_refs[capture_id]:
                del self.capture_refs[capture_id]
                self.captures.pop(capture_id, None)
        return True


def _execute(state: _WorkerState, request: dict) -> dict:
    """Run one command against a member session; returns the reply
    body.  Fault injection is not an op here: only
    :func:`serve_channel`, which owns a process to kill, handles it."""
    node = state.node
    op = request["op"]
    if op == "ping":
        return {"ok": True, "pid": os.getpid()}
    if op == "learn-shard":
        procedures = request["procedures"]
        database, observations = node.learn_shard(
            [bytes.fromhex(page) for page in request["pages"]],
            None if procedures is None else set(procedures),
            request["pair_scope"])
        state.last_database = database.to_dict()
        return {"ok": True, "observations": observations}
    if op == "run":
        result = node.run(bytes.fromhex(request["payload"]))
        return {"ok": True, "result": wire.run_result_to_dict(result)}
    if op == "probe":
        result = node.environment.run(bytes.fromhex(request["payload"]))
        return {"ok": True, "result": wire.run_result_to_dict(result)}
    if op == "install-patch":
        state.install(request["patch"])
        return {"ok": True}
    if op == "remove-patch":
        if not state.remove(request["patch_id"]):
            return {"ok": False,
                    "error": f"patch {request['patch_id']} not applied"}
        return {"ok": True}
    if op == "revoke-patch":
        # Fleet-wide revocation: idempotent by design.  A member that
        # no longer holds the patch (it was already withdrawn)
        # acknowledges instead of erroring — a revocation wave must
        # never cost members.
        held = state.remove(request["patch_id"])
        return {"ok": True, "held": held}
    if op == "catch-up":
        # Admission: withdraw the held patches the community no longer
        # has, then install the live ones this worker lacks.
        removes, installs = wire.catch_up_from_dict(request)
        missing = [patch_id for patch_id in removes
                   if patch_id not in state.installed]
        if missing:
            return {"ok": False,
                    "error": f"catch-up removes unheld patches {missing}"}
        for patch_id in removes:
            state.remove(patch_id)
        for payload in installs:
            state.install(payload)
        return {"ok": True}
    if op == "evaluate-candidate":
        trial_captures: dict[str, object] = {}
        patches = [state.decode_patch(payload, trial_captures)
                   for payload in request["patches"]]
        state.trial_patches = patches
        result = node.evaluate_candidate(
            patches, bytes.fromhex(request["payload"]))
        return {"ok": True, "result": wire.run_result_to_dict(result)}
    if op == "applied-patches":
        return {"ok": True,
                "patches": [patch_summary(patch)
                            for patch in node.environment.patches]}
    if op == "report-database":
        return {"ok": True, "database": state.last_database}
    if op == "stats":
        return {"ok": True, "stats": asdict(node.stats)}
    if op == "debug-state":
        # Test/console introspection: the registry footprint that
        # capture refcounting keeps bounded.
        return {"ok": True,
                "capture_cells": sorted(state.captures),
                "capture_refs": dict(sorted(state.capture_refs.items())),
                "installed_patches": sorted(state.installed)}
    if op == "shutdown":
        return {"ok": True, "bye": True}
    return {"ok": False, "error": f"unknown op {op!r}"}


def _handle_command(state: _WorkerState, request: dict) -> dict:
    """The member command handler: every transport's worker side.

    The socket loop (:func:`serve_channel`) and the in-process loopback
    (:class:`LoopbackChannel`) both answer through here, so no op has a
    second implementation.  A failing command becomes an error reply,
    which the server turns into a dropped member (reason ``error``).
    """
    try:
        return _execute(state, request)
    except Exception as error:  # noqa: BLE001 - reported to the server
        return {"ok": False, "error": f"{type(error).__name__}: {error}"}


def _seal_reply(state: _WorkerState, response: dict) -> bytes:
    """The reply postlude: attach everything the server must fold back
    (member messages, repair ``fired`` deltas, check observations) and
    encode the frame payload."""
    messages = state.bus.log
    state.bus.log = []
    response["bus"] = [{"sender": m.sender, "recipient": m.recipient,
                        "kind": m.kind, "payload": m.payload}
                       for m in messages]
    # Each entry's canonical size, computed here in the worker (the
    # entries serialize identically standalone and inside the reply
    # frame), so the server can attribute reply-frame bytes per kind
    # without re-encoding the largest payloads on its gather path.
    response["bus_sizes"] = [len(wire.encode(entry))
                             for entry in response["bus"]]
    fired: dict[str, int] = {}
    for patch in list(state.installed.values()) + state.trial_patches:
        current = getattr(patch, "fired", 0)
        delta = current - state.reported_fired.get(patch.patch_id, 0)
        if delta:
            fired[str(patch.patch_id)] = delta
            state.reported_fired[patch.patch_id] = current
    for patch in state.trial_patches:
        # Trial patches are done after this report; drop their
        # watermarks so worker state stays bounded over long lives.
        state.reported_fired.pop(patch.patch_id, None)
    state.trial_patches = []
    response["fired"] = fired
    # Drain in place: installed taps hold a reference to this list.
    response["events"] = list(state.events)
    state.events.clear()
    return wire.encode(response)


def _send_faulted_reply(channel: FramedChannel, mode: str,
                        encoded: bytes, interval: float) -> None:
    """Deliver *encoded* the way the armed wire fault dictates.

    ``stall-mid-write`` writes half the frame then SIGSTOPs the worker —
    the exact wedged-mid-write scenario the deadline framing exists to
    catch.  ``slow-loris`` trickles the frame in chunks slower than any
    sane frame deadline.  ``disconnect-mid-frame`` writes half the frame
    and drops the connection.
    """
    frame = _HEADER.pack(len(encoded)) + encoded
    half = max(_HEADER.size + 1, len(frame) // 2)
    if mode == "stall-mid-write":
        channel.send_raw(frame[:half])
        os.kill(os.getpid(), signal.SIGSTOP)
        # Only reached if somebody SIGCONTs the worker; never finish the
        # frame — the server must already have dropped this member.
        time.sleep(3600)
    elif mode == "slow-loris":
        step = max(1, len(frame) // 64)
        for offset in range(0, len(frame), step):
            channel.send_raw(frame[offset:offset + step])
            time.sleep(interval)
    elif mode == "disconnect-mid-frame":
        channel.send_raw(frame[:half])
        channel.close()
        os._exit(_INJECTED_CRASH_EXIT)


def serve_channel(channel: FramedChannel, name: str, binary: Binary,
                  config: EnvironmentConfig | None,
                  state: _WorkerState | None = None
                  ) -> tuple[_WorkerState, str]:
    """The command loop of one community member process.

    Channel-generic: the process transport runs it over an anonymous
    socketpair, the socket transport over a (possibly TLS) TCP
    connection.  Commands go to :func:`_handle_command`, the handler the
    in-process loopback runs too; this loop adds only what needs a
    process of its own — fault injection, which exits or SIGSTOPs it.

    Passing a previous call's *state* resumes the same worker session
    (node, installed patches, warm caches) on a fresh channel —
    the reconnect path of :func:`run_member`.  Returns ``(state,
    reason)`` where *reason* is ``"shutdown"`` after a polite bye and
    ``"channel-error"`` when the connection was lost.
    """
    if state is None:
        state = _WorkerState(name, binary, config)
    reason = "channel-error"
    while True:
        try:
            raw = channel.recv_frame()
        except ChannelError:
            break
        try:
            request = wire.decode(raw)
            op = request.get("op", "?")
        except wire.WireError:
            request, op = {"op": "?"}, "?"

        fault = state.fault
        armed = fault is not None and fault["op"] in ("*", op)
        if armed:
            state.fault = None
            if fault["mode"] == "crash":
                os._exit(_INJECTED_CRASH_EXIT)
            if fault["mode"] == "hang":
                time.sleep(fault["seconds"])
                continue  # never answers; the server times out first
            if fault["mode"] == "garbage":
                try:
                    channel.send_frame(b"\xffnot json\x00")
                except ChannelError:
                    break
                continue
            if fault["mode"] == "hollow":
                # Decodable JSON, protocol-shaped, missing every field
                # the command's reply must carry.
                try:
                    channel.send_frame(wire.encode({"ok": True}))
                except ChannelError:
                    break
                continue
            # Wire-level faults (stall-mid-write, slow-loris,
            # disconnect-mid-frame) corrupt the *delivery* of a genuine
            # reply, so fall through to handle the command normally.

        if op == "inject-fault":
            if request["mode"] == "wedge-idle":
                # SIGSTOP only after this reply is fully delivered: the
                # worker wedges *between* commands, invisible to every
                # reply deadline until the next wave edge pings it.
                state.wedge_after_reply = True
            else:
                state.fault = {"mode": request["mode"],
                               "op": request.get("at", "*"),
                               "seconds": request.get("seconds", 3600)}
            response = {"ok": True}
        else:
            response = _handle_command(state, request)
        encoded = _seal_reply(state, response)
        try:
            if armed and fault["mode"] in ("stall-mid-write", "slow-loris",
                                           "disconnect-mid-frame"):
                _send_faulted_reply(channel, fault["mode"], encoded,
                                    float(fault["seconds"]))
            else:
                channel.send_frame(encoded)
        except ChannelError:
            break
        if state.wedge_after_reply:
            state.wedge_after_reply = False
            os.kill(os.getpid(), signal.SIGSTOP)
        if response.get("bye"):
            reason = "shutdown"
            break
    channel.close()
    return state, reason


class LoopbackChannel:
    """A member channel that never leaves the server's process.

    Each frame sent is handed straight to :func:`_handle_command` over
    this member's own :class:`_WorkerState`, and the sealed reply is
    queued for the server to collect: no socket, no thread, and replies
    in command order.  The byte counters follow
    :class:`FramedChannel`'s (length prefixes included), so per-kind
    accounting reconciles to :meth:`ChannelTransport.wire_bytes_total`
    exactly as on a real channel.
    """

    def __init__(self, name: str, binary: Binary,
                 config: EnvironmentConfig | None):
        self._state = _WorkerState(name, binary, config)
        self._replies: deque[bytes] = deque()
        self.sent_bytes = 0
        self.received_bytes = 0

    def send_frame(self, payload: bytes,
                   timeout: float | None = None) -> int:
        reply = _seal_reply(self._state, _handle_command(
            self._state, wire.decode(payload)))
        self._replies.append(reply)
        self.sent_bytes += _HEADER.size + len(payload)
        self.received_bytes += _HEADER.size + len(reply)
        return _HEADER.size + len(payload)

    def recv_frame(self, timeout: float | None = None,
                   siblings: typing.Iterable = ()) -> bytes:
        """The reply, queued when its command was sent: no wait."""
        return self._replies.popleft()

    def close(self) -> None:
        """Nothing to release: the session lives as long as its member."""


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------

class ChannelMember:
    """Server-side handle for one member, on every transport.

    The manager's only view of a member: the node-manager command set
    (learn a shard, run or probe an input, install, remove or revoke a
    patch, evaluate a candidate repair) over a :class:`FramedChannel` to
    a worker process or a :class:`LoopbackChannel` in this process.
    Commands are posted without waiting (`post`), replies collected FIFO
    (`collect`), and up to :attr:`pipeline_depth` commands may be in
    flight at once — the worker answers them in order, so replies
    correlate by position.  While this member's reply is awaited, every
    sibling channel with commands in flight is pumped too
    (:meth:`FramedChannel.recv_frame`).

    The handle also keeps the canonical patches the member holds
    (:attr:`held`) and its in-flight trial patches: the worker reports
    check observations and ``fired`` deltas by patch id, and
    :meth:`collect` folds them into these objects, where the ClearView
    core reads them.  A dropped member's record is cleared.

    A new handle has no channel: it joins dispatch only through
    :meth:`ChannelTransport.admit`.
    """

    def __init__(self, transport: "ChannelTransport", name: str,
                 binary: Binary):
        self._transport = transport
        self.name = name
        self.binary = binary
        self.channel: FramedChannel | LoopbackChannel | None = None
        #: The worker process this transport launched for the member
        #: (None in-process and for externally started members).
        self.process = None
        self.alive = False
        #: The canonical patches this member holds, by id, in install
        #: order.
        self.held: dict[int, Patch] = {}
        #: When this member last completed traffic; a wave-edge
        #: heartbeat only pings members idle longer than its interval.
        self.last_activity = _monotonic()
        #: FIFO of (op, posted_at) for in-flight commands.
        self._pending: deque[tuple[str, float]] = deque()
        #: When the previous reply completed — each pipelined command's
        #: hang clock starts when the worker could have started it, not
        #: when it was posted behind a queue.
        self._last_reply_at = _monotonic()
        self.pipeline_depth = transport.pipeline_depth
        #: The trial patches of the candidate evaluation in flight.
        self._trial_patches: dict[int, Patch] = {}

    # -- low-level protocol --------------------------------------------

    @property
    def state(self) -> str:
        """Lifecycle state: ``"active"`` while the member is in
        dispatch, ``"dropped"`` once it is not (``active ⇄ dropped``,
        re-entered only through :meth:`ChannelTransport.admit`)."""
        return "active" if self.alive else "dropped"

    @property
    def pending_ops(self) -> int:
        return len(self._pending)

    def has_capacity(self) -> bool:
        return self.alive and len(self._pending) < self.pipeline_depth

    def post(self, op: str, **payload) -> None:
        """Send one command without waiting for the reply."""
        if not self.alive:
            raise MemberFailure(self.name, "crash", "member already dropped")
        if len(self._pending) >= self.pipeline_depth:
            raise CommunityError(
                f"member {self.name} pipeline full "
                f"({self.pipeline_depth} commands in flight); collect a "
                f"reply first")
        request = {"op": op, **payload}
        encoded = wire.encode(request)
        try:
            frame_size = self.channel.send_frame(
                encoded, timeout=self._transport.frame_deadline)
        except ChannelTimeout as error:
            self._fail("hang", op, str(error), cause=error)
        except ChannelError as error:
            self._fail("crash", op, str(error), cause=error)
        # Log only after a successful write, with the frame's exact
        # on-wire byte count; the request dict is owned by this call, so
        # no defensive copy is needed.
        self._transport.deliver(Message(
            sender="server", recipient=self.name, kind=f"cmd:{op}",
            payload=request, encoded_size=len(encoded),
            frame_size=frame_size))
        self._pending.append((op, _monotonic()))
        self.last_activity = _monotonic()

    def collect(self) -> dict:
        """Wait for the oldest in-flight reply; fold its side effects."""
        assert self._pending, "no command in flight"
        op, posted_at = self._pending.popleft()
        timeout = self._transport.timeout_for(op)
        # A pipelined command's budget starts when its predecessor's
        # reply landed (the earliest the worker could have begun it).
        base = max(posted_at, self._last_reply_at)
        remaining = timeout - (_monotonic() - base)
        try:
            raw = self.channel.recv_frame(remaining, [
                peer.channel for peer in self._transport.members
                if peer is not self and peer.alive and peer.pending_ops])
        except ChannelTimeout as error:
            self._fail("hang", op, str(error), cause=error)
        except ChannelClosed as error:
            if self.process is not None and not self._process_alive():
                self._fail("crash", op, "worker process died", cause=error)
            self._fail("crash", op, str(error), cause=error)
        except ChannelError as error:
            # Protocol-level surprises (e.g. an oversized frame header)
            # mean the member's byte stream cannot be trusted.
            self._fail("malformed", op, str(error), cause=error)
        self._last_reply_at = _monotonic()
        self.last_activity = self._last_reply_at
        try:
            response = wire.decode(raw)
        except wire.WireError as error:
            self._fail("malformed", op, str(error), cause=error)
        # Replay member-originated messages (failure notifications,
        # invariant uploads) onto the server transport, then fold
        # observation/fired state into the canonical patches.  Any
        # structural surprise in a decoded reply is a malformed member,
        # same as undecodable bytes.
        frame_size = _HEADER.size + len(raw)
        replayed_bytes = 0
        try:
            # Every genuine worker reply carries the postlude fields;
            # their absence means the reply did not come from the
            # command loop and the member's state cannot be trusted.
            # Member-originated messages ride piggyback on the reply;
            # pop them so each byte is accounted exactly once — under
            # its own kind for the replayed messages (with the
            # worker-computed canonical size, byte-identical to the
            # entry's slice of the reply frame), under reply:<op> for
            # the rest of the frame.
            sizes = response.pop("bus_sizes")
            entries = response.pop("bus")
            for entry, entry_size in zip(entries, sizes, strict=True):
                # Freshly decoded off the channel: already an
                # independent copy, deliver without re-serializing.
                replayed_bytes += int(entry_size)
                self._transport.deliver(Message(
                    sender=entry["sender"], recipient=entry["recipient"],
                    kind=entry["kind"], payload=entry["payload"],
                    frame_size=int(entry_size)))
            for event in response["events"]:
                self._fold_observation(int(event[0]), bool(event[1]))
            for patch_id, delta in response["fired"].items():
                self._fold_fired(int(patch_id), int(delta))
        except (TypeError, KeyError, ValueError, IndexError,
                AttributeError) as error:
            self._fail("malformed", op, str(error), cause=error)
        self._transport.deliver(Message(
            sender=self.name, recipient="server", kind=f"reply:{op}",
            payload=response, frame_size=frame_size - replayed_bytes))
        if response.get("ok") is not True:
            self._fail("error", op, str(response.get("error",
                                                     "unspecified")))
        return response

    def _patch(self, patch_id: int) -> Patch | None:
        """The canonical patch a worker-reported id names."""
        patch = self.held.get(patch_id)
        return self._trial_patches.get(patch_id) if patch is None else patch

    def _fold_observation(self, patch_id: int, satisfied: bool) -> None:
        patch = self._patch(patch_id)
        if isinstance(patch, CheckPatch) and patch.sink is not None:
            patch.sink.record(Observation(
                failure_id=patch.failure_id, invariant=patch.invariant,
                satisfied=satisfied))

    def _fold_fired(self, patch_id: int, delta: int) -> None:
        patch = self._patch(patch_id)
        if patch is not None and hasattr(patch, "fired"):
            patch.fired += delta

    def _expect(self, op: str, extract):
        """Pull fields out of a reply; a reply missing what the protocol
        promises drops the member as malformed."""
        try:
            return extract()
        except (KeyError, TypeError, ValueError, IndexError,
                wire.WireError) as error:
            self._fail("malformed", op, str(error), cause=error)

    def call(self, op: str, **payload) -> dict:
        self.post(op, **payload)
        return self.collect()

    def _process_alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def _drop(self, reason: str, op: str, detail: str) -> None:
        self.alive = False
        self._pending.clear()
        self.held = {}
        self._trial_patches = {}
        self._transport.dropped.append(
            DroppedMember(name=self.name, reason=reason, op=op,
                          detail=detail))
        self._terminate()

    def _fail(self, reason: str, op: str, detail: str,
              cause: BaseException | None = None) -> typing.NoReturn:
        """Drop this member and raise the matching MemberFailure — one
        place, so the recorded drop and the raised exception can never
        diverge."""
        self._drop(reason, op, detail)
        raise MemberFailure(self.name, reason, detail) from cause

    def _terminate(self, keep=None) -> None:
        """Reap this member's worker process (unless it is *keep*) and
        close its channel."""
        if self.process is not None and self.process is not keep:
            try:
                if self.process.is_alive():
                    self.process.terminate()
                self.process.join(timeout=1)
                if self.process.is_alive():
                    # A SIGSTOPped worker leaves SIGTERM pending until
                    # someone SIGCONTs it; SIGKILL works regardless.
                    self.process.kill()
                    self.process.join(timeout=5)
            except (OSError, ValueError):  # pragma: no cover - teardown
                pass
        if self.channel is not None:
            self.channel.close()

    # -- member handle API ---------------------------------------------

    def start_learn_shard(self, pages: list[bytes],
                          procedures: set[int] | None,
                          pair_scope: str) -> None:
        self.post("learn-shard",
                  procedures=(None if procedures is None
                              else sorted(procedures)),
                  pair_scope=pair_scope,
                  pages=[page.hex() for page in pages])

    def finish_learn_shard(self):
        mark = len(self._transport.log)
        response = self.collect()
        upload = None
        for message in self._transport.log[mark:]:
            if message.kind == "invariant-upload" and \
                    message.sender == self.name:
                upload = message.payload
        if upload is None:
            self._fail("malformed", "learn-shard",
                       "no invariant upload in reply")
        return self._expect("learn-shard", lambda: (
            InvariantDatabase.from_dict(upload),
            int(response["observations"])))

    def run(self, payload: bytes) -> RunResult:
        response = self.call("run", payload=payload.hex())
        return self._expect("run", lambda:
                            wire.run_result_from_dict(response["result"]))

    def probe(self, payload: bytes) -> RunResult:
        self.start_probe(payload)
        return self.finish_probe()

    def start_probe(self, payload: bytes) -> None:
        self.post("probe", payload=payload.hex())

    def finish_probe(self) -> RunResult:
        response = self.collect()
        return self._expect("probe", lambda:
                            wire.run_result_from_dict(response["result"]))

    def install_patch(self, patch: Patch) -> None:
        self.call("install-patch", patch=wire.patch_to_dict(patch))
        self.held[patch.patch_id] = patch

    def remove_patch(self, patch: Patch) -> None:
        self.call("remove-patch", patch_id=patch.patch_id)
        self.held.pop(patch.patch_id, None)

    def revoke_patch(self, patch: Patch) -> bool:
        """Idempotent removal for revocation waves.

        Unlike :meth:`remove_patch`, a member that does not hold the
        patch acknowledges (``held`` False) instead of being dropped
        as errored.  Returns whether the member actually held it.
        """
        response = self.call("revoke-patch", patch_id=patch.patch_id)
        self.held.pop(patch.patch_id, None)
        return bool(response.get("held"))

    def applied_patches(self) -> list[dict]:
        response = self.call("applied-patches")
        return self._expect("applied-patches",
                            lambda: list(response["patches"]))

    def start_evaluate_candidate(self, patches: list[Patch],
                                 payload: bytes) -> None:
        self.post("evaluate-candidate",
                  patches=[wire.patch_to_dict(patch) for patch in patches],
                  payload=payload.hex())
        self._trial_patches = {patch.patch_id: patch for patch in patches}

    def finish_evaluate_candidate(self) -> RunResult:
        try:
            response = self.collect()
        finally:
            self._trial_patches = {}
        return self._expect("evaluate-candidate", lambda:
                            wire.run_result_from_dict(response["result"]))

    def stats(self) -> NodeStats:
        response = self.call("stats")
        return self._expect("stats",
                            lambda: NodeStats(**response["stats"]))

    def report_database(self):
        """Console query: the member's most recently learned shard
        database (None if it has not learned yet)."""
        response = self.call("report-database")
        return self._expect("report-database", lambda: (
            None if response["database"] is None
            else InvariantDatabase.from_dict(response["database"])))

    def inject_fault(self, mode: str, at: str = "*",
                     seconds: float = 3600.0) -> None:
        """Test hook: arm a one-shot fault in the worker, triggered by
        the next command whose op matches *at*.

        Modes: ``crash`` (the process dies), ``hang`` (sleeps past the
        timeout without a byte), ``garbage`` (undecodable reply bytes),
        ``hollow`` (decodable reply missing the protocol's fields),
        ``stall-mid-write`` (writes half the reply frame, then SIGSTOPs
        itself — the wedged-mid-write scenario), ``slow-loris`` (writes
        the reply in trickled chunks, *seconds* apart, so the frame
        never completes within the deadline), ``disconnect-mid-frame``
        (writes half the frame and drops the connection),
        ``wedge-idle`` (SIGSTOPs *after* delivering this command's
        reply, with nothing in flight — the member stays ``active``
        until a wave-edge heartbeat ping evicts it)."""
        self.call("inject-fault", mode=mode, at=at, seconds=seconds)

    def shutdown(self) -> None:
        # Only attempt the polite protocol when the channel is idle; a
        # member mid-command (e.g. teardown after an aborted scatter) is
        # simply terminated.
        if self.alive and not self._pending:
            try:
                self.call("shutdown")
            except MemberFailure:
                pass
        self.alive = False
        self._terminate()


class ChannelTransport:
    """Shared base of every transport, with bus-compatible accounting.

    Exposes the same ``log``/``bytes_by_kind`` API as
    :class:`MessageBus` (every command, reply, and replayed
    member message is logged, with both its canonical payload size and
    its true on-wire frame attribution), plus the worker pool
    management, the per-op deadline table, and the reply multiplexer
    that overlaps the server's work with in-flight member runs.
    """

    def __init__(self, timeout: float = 60.0, learn_timeout: float = 300.0,
                 run_timeout: float | None = None,
                 frame_deadline: float = 30.0, pipeline_depth: int = 4,
                 heartbeat_interval: float | None = None,
                 ping_timeout: float | None = None):
        self.timeout = timeout
        self.learn_timeout = learn_timeout
        # Run-style ops execute whole episodes inside the worker
        # (evaluate-candidate applies trial patches and runs the full
        # input); racing them against the short control-op timeout
        # drops healthy-but-slow members, so they get their own row in
        # the deadline table.  An explicit table, not a prefix match: a
        # future `learn-profile` op must make a deliberate choice here
        # rather than silently inheriting the five-minute budget.
        self.run_timeout = learn_timeout if run_timeout is None \
            else run_timeout
        self.op_timeouts: dict[str, float] = {
            "learn-shard": self.learn_timeout,
            "evaluate-candidate": self.run_timeout,
            "run": self.run_timeout,
            "probe": self.run_timeout,
            # The liveness probe is deliberately cheap: a
            # healthy-but-busy member is never pinged (the heartbeat
            # skips channels with commands in flight), so a ping that
            # does not answer promptly is a wedged-idle worker.
            # Defaults to the control-op deadline; heartbeat users
            # tighten it so a wave edge does not stall on a wedge.
            "ping": ping_timeout if ping_timeout is not None else timeout,
        }
        self.frame_deadline = frame_deadline
        self.pipeline_depth = pipeline_depth
        #: How long a member must be idle before a wave edge pings it
        #: (None = no wave-edge heartbeat; explicit
        #: ``heartbeat(force=True)`` still probes every idle member).
        self.heartbeat_interval = heartbeat_interval
        self.ping_timeout = self.op_timeouts["ping"]
        self._bus = MessageBus()
        #: The community's live patches in install order: the one
        #: record of which patches are live (``CommunityEnvironment``
        #: reads and writes it), and what :meth:`admit` reconciles a
        #: member against.
        self.patches: list[Patch] = []
        self.members: list[ChannelMember] = []
        self.dropped: list[DroppedMember] = []
        self._closed = False

    # -- bus-compatible accounting -------------------------------------

    @property
    def log(self) -> list[Message]:
        return self._bus.log

    def deliver(self, message: Message) -> Message:
        return self._bus.deliver(message)

    def bytes_by_kind(self) -> dict[str, int]:
        return self._bus.bytes_by_kind()

    def count_by_kind(self) -> dict[str, int]:
        return self._bus.count_by_kind()

    def channel_bytes_by_kind(self) -> dict[str, int]:
        return self._bus.channel_bytes_by_kind()

    def wire_bytes_total(self) -> int:
        """Bytes that actually crossed the member channels (both
        directions, length prefixes included) — the ground truth the
        per-kind channel totals sum to on fault-free episodes (a
        dropped member's undecodable final bytes are counted here but
        never reached the log)."""
        total = 0
        for member in self.members:
            if member.channel is not None:
                total += member.channel.sent_bytes
                total += member.channel.received_bytes
        return total

    def timeout_for(self, op: str) -> float:
        """Per-op reply deadline (the explicit table; no prefix games)."""
        return self.op_timeouts.get(op, self.timeout)

    # -- member lifecycle ----------------------------------------------

    def heartbeat(self, force: bool = False) -> list[str]:
        """Ping idle members; evict the ones that fail to answer.

        The manager calls this at each wave edge (learning, attack,
        immunity probe, parallel repair wave) when
        :attr:`heartbeat_interval` is set; the transport never runs it
        on its own.  Only members with no command in flight and idle
        for at least the interval are probed (a busy member proves
        liveness with its own replies, and a ping posted behind a
        long-running command would race that command's deadline).
        Pings are posted to every candidate first and collected after,
        so N suspects cost one ``ping_timeout``, not N.  ``force``
        probes all idle members regardless of how recently they spoke.
        Returns the names evicted this wave.
        """
        evicted: list[str] = []
        interval = self.heartbeat_interval
        now = _monotonic()
        suspects: list[ChannelMember] = []
        for member in self.members:
            if not member.alive or member.pending_ops:
                continue
            if not force and (interval is None or
                              now - member.last_activity < interval):
                continue
            try:
                member.post("ping")
            except MemberFailure:
                evicted.append(member.name)
                continue
            suspects.append(member)
        for member in suspects:
            try:
                member.collect()
            except MemberFailure:
                evicted.append(member.name)
        return evicted

    def poll_rejoins(self, budget: float = 0.0) -> list["ChannelMember"]:
        """Admit reconnecting members (socket transport only)."""
        return []

    def admit(self, member: ChannelMember,
              channel: FramedChannel | LoopbackChannel, process=None,
              held: typing.Iterable[int] = ()) -> bool:
        """The one way into the community: first spawn, respawn, rejoin
        and late arrival all come through here.

        1. Reap the member's old channel and process (a *process* the
           transport launched for this admission is kept) and adopt
           the new ones.
        2. Reconcile the member against *held*, the ids of the patches
           it holds (its hello's list; none for a fresh process): one
           ``catch-up`` command carries the held ids the community no
           longer has and the live patches the member lacks, in install
           order.  It is sent only when one of the two is non-empty, so
           a first spawn sends nothing.  The member keeps the longest
           prefix of the live list that its held ids contain in order,
           and every other held id is withdrawn, so it ends holding the
           live set in the survivors' order: a patch removed and
           reinstalled while it was away is withdrawn and sent again.

        The member's record is the live set from here on.  Returns False
        when the member was dropped during catch-up.
        """
        member._terminate(keep=process)
        member.channel = channel
        member.process = process
        member.alive = True
        member._pending.clear()
        member._last_reply_at = member.last_activity = _monotonic()
        if member not in self.members:
            self.members.append(member)
        held = list(held)
        member.held = {patch.patch_id: patch for patch in self.patches}
        kept = 0
        for patch_id in held:
            if kept < len(self.patches) and \
                    patch_id == self.patches[kept].patch_id:
                kept += 1
        keep = {patch.patch_id for patch in self.patches[:kept]}
        removes = [patch_id for patch_id in held if patch_id not in keep]
        installs = self.patches[kept:]
        if removes or installs:
            try:
                member.call("catch-up", **wire.catch_up_to_dict(
                    removes, [wire.patch_to_dict(patch)
                              for patch in installs]))
            except MemberFailure:
                return False
        return True

    # -- pool management -----------------------------------------------

    def spawn(self, binary: Binary, config: EnvironmentConfig | None,
              names: list[str]) -> None:
        """Create one member per name in :attr:`members`, the
        community's one membership list."""
        raise NotImplementedError

    def respawn(self, member: "ChannelMember",
                timeout: float | None = None) -> bool:
        """Relaunch a dropped member's worker process, if the transport
        can (a member lost to a patch-induced crash or hang is not the
        member's fault — toxic-candidate containment revives it).
        Returns True once the member is back in dispatch."""
        return False

    def close(self) -> None:
        """Shut every worker down; idempotent, leaves no orphans."""
        if self._closed:
            return
        self._closed = True
        for member in self.members:
            member.shutdown()

    def __enter__(self) -> "ChannelTransport":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter teardown safety
        try:
            self.close()
        except Exception:  # noqa: BLE001
            pass


class LoopbackTransport(ChannelTransport):
    """In-process members (``transport="in-process"``).

    Each member is a :class:`ChannelMember` over a
    :class:`LoopbackChannel`: the worker's own command handler and patch
    bookkeeping, run in the server's interpreter.  Everything else — the
    wire codec, the fold-back into held patches, byte accounting and
    member lifecycle — is the channel transports' code, so the
    in-process community differs from the sharded ones only in having no
    worker processes: it is single-core, deterministic, and cannot
    crash, hang, wedge or rejoin.  Fault injection needs a worker
    process; a loopback member answers it with an error reply.
    """

    def spawn(self, binary: Binary, config: EnvironmentConfig | None,
              names: list[str]) -> None:
        if self.members:
            raise CommunityError("transport already has a worker pool")
        for name in names:
            self.admit(ChannelMember(self, name, binary),
                       LoopbackChannel(name, binary, config))


# ---------------------------------------------------------------------------
# Socket transport (multi-host members, optional TLS)
# ---------------------------------------------------------------------------

def _disable_nagle(sock: socket.socket) -> None:
    """Pipelined commands are many small frames sent back-to-back;
    Nagle would hold each behind the previous unacked segment (~40ms
    with delayed ACKs), erasing the pipelining win over TCP."""
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - non-TCP sockets
        pass


def _client_tls_context(cafile: str | None) -> "ssl.SSLContext":
    if ssl is None:  # pragma: no cover - stdlib always has ssl here
        raise CommunityError("TLS requested but the ssl module is missing")
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    # The server's (self-signed) certificate is pinned as the trust
    # root; members connect by address, so hostname checks are off.
    context.check_hostname = False
    context.verify_mode = ssl.CERT_REQUIRED
    context.load_verify_locations(cafile=cafile)
    return context


def _server_tls_context(certfile: str, keyfile: str) -> "ssl.SSLContext":
    if ssl is None:  # pragma: no cover
        raise CommunityError("TLS requested but the ssl module is missing")
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(certfile=certfile, keyfile=keyfile)
    return context


def _socket_worker_main(host: str, port: int, name: str, binary: Binary,
                        config: EnvironmentConfig | None,
                        cafile: str | None,
                        frame_deadline: float) -> None:
    """Entry point of a locally spawned socket-transport worker."""
    channel = connect_member(host, port, name, cafile=cafile,
                             frame_deadline=frame_deadline)
    serve_channel(channel, name, binary, config)


def connect_member(host: str, port: int, name: str,
                   cafile: str | None = None,
                   frame_deadline: float = 30.0,
                   connect_timeout: float = 10.0,
                   held: typing.Iterable[int] = ()) -> FramedChannel:
    """Dial a listening community server and introduce this member.

    Returns the established (optionally TLS) channel with the hello
    frame already sent (*held* lists the ids of the patches the member
    holds — none for a fresh process); :func:`run_member` drives the
    full command loop for externally launched members.
    """
    deadline = _monotonic() + connect_timeout
    last_error: Exception | None = None
    sock: socket.socket | None = None
    while _monotonic() < deadline:
        try:
            sock = socket.create_connection((host, port), timeout=5.0)
            break
        except OSError as error:
            last_error = error
            time.sleep(0.1)
    if sock is None:
        raise CommunityError(
            f"could not reach community server at {host}:{port}: "
            f"{last_error}")
    _disable_nagle(sock)
    if cafile is not None:
        context = _client_tls_context(cafile)
        sock.settimeout(frame_deadline)
        sock = context.wrap_socket(sock)
    channel = FramedChannel(sock, frame_deadline=frame_deadline)
    channel.send_frame(wire.encode(wire.hello_to_dict(name, held)),
                       timeout=frame_deadline)
    return channel


def run_member(host: str, port: int, name: str, binary: Binary,
               config: EnvironmentConfig | None = None,
               cafile: str | None = None,
               frame_deadline: float = 30.0,
               connect_timeout: float = 30.0,
               reconnect: int = 0, backoff: float = 0.5,
               backoff_cap: float = 30.0) -> None:
    """Run one community member against a remote manager until it is
    shut down (the ``community --connect`` CLI mode).

    ``reconnect`` is how many times a lost server connection is
    re-dialed, with exponential backoff starting at *backoff* seconds
    and capped at *backoff_cap*.  A reconnect keeps the worker session
    (node state, installed patches, warm caches) and lists the patches
    it holds in its hello, so admission sends only what the community
    changed while it was away.  A polite shutdown from the server always
    ends the loop.
    """
    state: _WorkerState | None = None
    attempts_left = reconnect
    delay = backoff
    while True:
        try:
            channel = connect_member(
                host, port, name, cafile=cafile,
                frame_deadline=frame_deadline,
                connect_timeout=connect_timeout,
                held=() if state is None else list(state.installed))
        except CommunityError:
            if attempts_left <= 0:
                raise
            attempts_left -= 1
            time.sleep(delay)
            delay = min(delay * 2.0, backoff_cap)
            continue
        state, reason = serve_channel(channel, name, binary, config,
                                      state=state)
        if reason == "shutdown" or attempts_left <= 0:
            return
        attempts_left -= 1
        time.sleep(delay)
        delay = min(delay * 2.0, backoff_cap)


class SocketTransport(ChannelTransport):
    """Community members over TCP sockets, optionally TLS-wrapped.

    Two membership modes:

    - default: :meth:`spawn` forks one worker process per member on this
      host; each dials the loopback listener — the same process model as
      :class:`~repro.community.sharding.ProcessTransport` but over the
      multi-host wire protocol.
    - ``accept_external=True``: :meth:`spawn` launches nothing and
      instead waits for externally started members (``python -m repro
      community --connect``) to dial in; their hello names identify
      them.

    TLS models the paper's Node Manager <-> Management Console SSL
    channel: pass ``certfile``/``keyfile`` and every member channel is
    wrapped, with the server certificate pinned as the members' trust
    root.  A member that fails the TLS handshake never joins: it is
    recorded in :attr:`dropped` with reason ``"handshake"`` and the
    community proceeds with the survivors.
    """

    def __init__(self, timeout: float = 60.0, learn_timeout: float = 300.0,
                 run_timeout: float | None = None,
                 frame_deadline: float = 30.0, pipeline_depth: int = 4,
                 heartbeat_interval: float | None = None,
                 ping_timeout: float | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 certfile: str | None = None, keyfile: str | None = None,
                 accept_external: bool = False,
                 spawn_timeout: float = 60.0,
                 _plaintext_members: frozenset[str] = frozenset()):
        super().__init__(timeout=timeout, learn_timeout=learn_timeout,
                         run_timeout=run_timeout,
                         frame_deadline=frame_deadline,
                         pipeline_depth=pipeline_depth,
                         heartbeat_interval=heartbeat_interval,
                         ping_timeout=ping_timeout)
        self.host = host
        self.port = port
        self.certfile = certfile
        self.keyfile = keyfile
        self.accept_external = accept_external
        self.spawn_timeout = spawn_timeout
        #: Test hook: members listed here connect *without* TLS to a
        #: TLS server, forcing a handshake failure.
        self._plaintext_members = frozenset(_plaintext_members)
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = multiprocessing.get_context()
        self._listener: socket.socket | None = None
        self._server_context = None  # built once, lazily, for TLS
        # Stashed at spawn: what relaunched workers and brand-new
        # members admitted by the accept loop are built from.
        self._binary: Binary | None = None
        self._config: EnvironmentConfig | None = None
        #: Members :meth:`spawn` created that no hello has claimed yet
        #: (empty outside spawn).  In ``accept_external`` mode an
        #: unknown hello name claims the first one and renames it.
        self._placeholders: list[ChannelMember] = []

    def listen(self) -> tuple[str, int]:
        """Bind the member listener; returns the bound (host, port)."""
        if self._listener is None:
            self._listener = socket.create_server((self.host, self.port))
            self._listener.settimeout(0.2)
            self.port = self._listener.getsockname()[1]
        return self.host, self.port

    def _launch(self, name: str):
        """Start a local worker process that dials the listener as
        *name*; returns its process handle."""
        cafile = self.certfile
        if name in self._plaintext_members:
            cafile = None
        process = self._context.Process(
            target=_socket_worker_main,
            args=(self.host, self.port, name, self._binary, self._config,
                  cafile, self.frame_deadline),
            name=f"community-{name}", daemon=True)
        process.start()
        return process

    def spawn(self, binary: Binary, config: EnvironmentConfig | None,
              names: list[str]) -> None:
        """Create one placeholder member per name, launch the workers
        (none in ``accept_external`` mode), then run the accept loop
        until no placeholder is left or ``spawn_timeout`` passes.  A
        worker that exits before its hello (failed TLS, crashed on
        startup) and a placeholder nobody claimed are dropped with
        reason ``handshake``."""
        if self.members:
            raise CommunityError("transport already has a worker pool")
        self._binary = binary
        self._config = config
        self.listen()
        self._placeholders = [ChannelMember(self, name, binary)
                              for name in names]
        self.members.extend(self._placeholders)
        if not self.accept_external:
            for member in self.members:
                member.process = self._launch(member.name)
        deadline = _monotonic() + self.spawn_timeout
        while self._placeholders and _monotonic() < deadline:
            for member in list(self._placeholders):
                process = member.process
                if process is not None and not process.is_alive():
                    self._placeholders.remove(member)
                    member._drop("handshake", "hello",
                                 f"worker exited before handshake "
                                 f"(exit code {process.exitcode})")
            # One-second slices, so dead workers are reaped between
            # accepts instead of stalling the pool until the timeout.
            self.poll_rejoins(
                budget=min(1.0, max(0.0, deadline - _monotonic())))
        for member in self._placeholders:
            member._drop("handshake", "hello",
                         "no connection within the spawn timeout")
        self._placeholders = []
        if not any(member.alive for member in self.members):
            self.close()
            raise CommunityError(
                "no member completed the socket handshake")

    def poll_rejoins(self, budget: float = 0.0) -> list[ChannelMember]:
        """The accept loop, the only code that accepts on the listener.

        Waits up to *budget* seconds (non-blocking by default) for a
        first admission, then takes only the connections already
        pending; :meth:`_accept` admits or refuses each one.  Returns
        the members admitted by this call.
        """
        if self._listener is None or self._closed:
            return []
        admitted: list[ChannelMember] = []
        deadline = _monotonic() + budget
        while True:
            wait = 0.0 if admitted else max(0.0, deadline - _monotonic())
            try:
                readable, _, _ = select.select([self._listener], [], [],
                                               wait)
            except (OSError, ValueError):  # pragma: no cover
                break
            if not readable:
                break
            member = self._accept()
            if member is not None:
                admitted.append(member)
        return admitted

    def _accept(self) -> ChannelMember | None:
        """Take one connection off the listener; returns the member it
        admitted, or None when it was refused.

        The connection gets one frame deadline for its (optional) TLS
        handshake and its hello.  The hello's name decides: a member
        that is not alive is admitted; an unknown name claims the first
        spawn placeholder, or joins as a new member in
        ``accept_external`` mode after spawn; a live member's name, or
        an unknown one with nowhere to go, is refused.  Admission
        reconciles the member against the patches its hello lists
        (:meth:`ChannelTransport.admit`).
        """
        assert self._listener is not None
        try:
            conn, _addr = self._listener.accept()
        except socket.timeout:
            return None
        except OSError as error:  # pragma: no cover - listener died
            raise CommunityError(f"listener failed: {error}") from error
        _disable_nagle(conn)
        try:
            if self.certfile is not None:
                if self._server_context is None:
                    self._server_context = _server_tls_context(
                        self.certfile, self.keyfile)
                conn.settimeout(self.frame_deadline)
                conn = self._server_context.wrap_socket(
                    conn, server_side=True)
            channel = FramedChannel(conn, frame_deadline=self.frame_deadline)
            hello = wire.decode(
                channel.recv_frame(timeout=self.frame_deadline))
            name, held = wire.hello_from_dict(hello)
        except (OSError, ChannelError, wire.WireError):
            conn.close()
            return None
        member = next((peer for peer in self.members if peer.name == name),
                      None)
        if member is None and self.accept_external:
            if self._placeholders:
                member = self._placeholders[0]
                member.name = name
            elif self._binary is not None:
                member = ChannelMember(self, name, self._binary)
        if member is None or member.alive:
            channel.close()
            return None
        if member in self._placeholders:
            self._placeholders.remove(member)
        # Log the hello only for adopted connections: a refused
        # dialer's channel never joins wire_bytes_total, so logging
        # its frame would break the to-the-byte reconciliation.
        self.deliver(Message(
            sender=name, recipient="server", kind="hello",
            payload=hello, frame_size=channel.received_bytes))
        # A worker launched for this member waits on its handle; a
        # casualty's reaped process is not this connection's.
        process = member.process
        if process is not None and not process.is_alive():
            process = None
        if not self.admit(member, channel, process, held):
            return None
        return member

    def respawn(self, member: ChannelMember,
                timeout: float | None = None) -> bool:
        """Relaunch a dropped spawned worker under its old name.

        Only spawned (loopback) members can be relaunched — externally
        started members own their lifecycle and rejoin on their own.
        The fresh process dials the listener holding nothing, and the
        accept loop admits it with the live set as its catch-up.
        """
        if self.accept_external or self._binary is None or \
                self._listener is None or self._closed:
            return False
        if member.alive or member not in self.members:
            return member.alive
        member.process = self._launch(member.name)
        budget = self.spawn_timeout if timeout is None else timeout
        deadline = _monotonic() + budget
        while not member.alive and member.process.is_alive() and \
                _monotonic() < deadline:
            self.poll_rejoins(
                budget=min(0.2, max(0.0, deadline - _monotonic())))
        if not member.alive:
            # The fresh worker never completed its handshake; reap it.
            member._terminate()
        return member.alive

    def close(self) -> None:
        super().close()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
            self._listener = None
