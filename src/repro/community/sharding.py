"""Process-sharded community members (§3 at real process granularity).

The in-process :class:`~repro.community.remote.LoopbackTransport` runs
every member inside the server's interpreter, so an 8-member community
never uses more than one core.  This module makes the
management-console/node split real:
:class:`ProcessTransport` owns one OS process per member (the paper's
Determina Node Manager), each running the shared
:func:`~repro.community.remote.serve_channel` command loop over an
anonymous socketpair carried by a deadline-framed
:class:`~repro.community.remote.FramedChannel`.  The server drives each
worker through an ordinary
:class:`~repro.community.remote.ChannelMember`: commands and replies
cross the channel as length-prefixed canonical JSON
(:mod:`repro.community.wire`) and are logged on the transport with their
true on-wire frame size, and the transport's
:class:`~repro.community.remote.PatchLedger` folds worker-reported state
(check observations, repair ``fired`` deltas) back into the canonical
server-side patch objects — the same path the in-process members take.

Failure policy: a worker that crashes (channel EOF), hangs (no reply
within the per-op deadline, *or* a reply frame that stops making
progress within the frame deadline — a worker wedged mid-write, e.g.
SIGSTOPped after a partial reply, is detected and dropped, not waited on
forever), or replies with undecodable protocol is terminated (SIGKILL
escalation included, since a stopped process shrugs off SIGTERM),
recorded in :attr:`ProcessTransport.dropped`, and excluded from further
dispatch; the manager re-shards its outstanding work across the
survivors.  Workers are daemonic and :meth:`ProcessTransport.close` is
idempotent, so no code path leaves orphan processes behind.

Every worker joins through
:meth:`~repro.community.remote.ChannelTransport.admit`: spawn admits
each fresh worker at epoch 0 (on an empty ledger, with no catch-up),
and :meth:`ProcessTransport.respawn` admits a relaunched one at epoch
0, which replays the live patch set.  Liveness probing runs only at the
manager's wave edges; the transport starts no thread.
"""

from __future__ import annotations

import multiprocessing
import socket

from repro.community.remote import (
    ChannelMember,
    ChannelTransport,
    FramedChannel,
    serve_channel,
)
from repro.dynamo.execution import EnvironmentConfig
from repro.errors import CommunityError
from repro.vm.binary import Binary


def _worker_main(sock: socket.socket, frame_deadline: float, name: str,
                 binary: Binary, config: EnvironmentConfig | None) -> None:
    """Entry point of one pipe-transport worker process."""
    serve_channel(FramedChannel(sock, frame_deadline=frame_deadline),
                  name, binary, config)


class ProcessTransport(ChannelTransport):
    """One worker process per member over anonymous socketpairs.

    The same deadline-framed channel protocol as
    :class:`~repro.community.remote.SocketTransport`, minus TCP and TLS:
    each worker inherits its end of a :func:`socket.socketpair` at fork.
    """

    def __init__(self, timeout: float = 60.0, learn_timeout: float = 300.0,
                 run_timeout: float | None = None,
                 frame_deadline: float = 30.0, pipeline_depth: int = 4,
                 heartbeat_interval: float | None = None,
                 ping_timeout: float | None = None,
                 start_method: str = "fork"):
        super().__init__(timeout=timeout, learn_timeout=learn_timeout,
                         run_timeout=run_timeout,
                         frame_deadline=frame_deadline,
                         pipeline_depth=pipeline_depth,
                         heartbeat_interval=heartbeat_interval,
                         ping_timeout=ping_timeout)
        try:
            self._context = multiprocessing.get_context(start_method)
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = multiprocessing.get_context()
        # Stashed at spawn so a member lost to a patch-induced fault
        # can be relaunched under its old name (see :meth:`respawn`).
        self._binary: Binary | None = None
        self._config: EnvironmentConfig | None = None

    def _launch(self, name: str) -> tuple[FramedChannel, object]:
        server_sock, worker_sock = socket.socketpair()
        process = self._context.Process(
            target=_worker_main,
            args=(worker_sock, self.frame_deadline, name, self._binary,
                  self._config),
            name=f"community-{name}", daemon=True)
        process.start()
        worker_sock.close()
        channel = FramedChannel(server_sock,
                                frame_deadline=self.frame_deadline)
        return channel, process

    def spawn(self, binary: Binary, config: EnvironmentConfig | None,
              names: list[str]) -> None:
        if self.members:
            raise CommunityError("transport already has a worker pool")
        self._binary = binary
        self._config = config
        for name in names:
            self.admit(ChannelMember(self, name, binary),
                       *self._launch(name))

    def respawn(self, member: ChannelMember,
                timeout: float | None = None) -> bool:
        """Relaunch a dropped member as a fresh worker process.

        The new process starts with nothing installed (hello epoch 0
        semantics); the full live patch set is replayed through the
        ledger catch-up before the member returns to dispatch.
        """
        if self._binary is None or self._closed or \
                member not in self.members:
            return False
        if member.alive:
            return True
        return self.admit(member, *self._launch(member.name))
