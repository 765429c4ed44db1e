"""What the manager's member handles share on every transport.

Every member — in-process, process-sharded, or socket — is a
:class:`~repro.community.remote.ChannelMember` the transport spawned;
this module holds the two pieces of its contract that the rest of the
community imports without the channel machinery: the exception a
failed command raises, and the transport-independent summary of an
applied patch.
"""

from __future__ import annotations

from repro.dynamo.patches import Patch
from repro.errors import CommunityError


class MemberFailure(CommunityError):
    """A member could not complete a command and has been dropped.

    ``reason`` is one of ``"crash"`` (worker process died or its
    channel closed), ``"hang"`` (no reply within the per-op deadline,
    or a reply frame that failed to complete within the frame
    deadline — the wedged-mid-write case; a worker wedged *between*
    commands is caught the same way by the ping deadline of the
    heartbeat at the next wave edge), ``"malformed"`` (reply was not
    decodable protocol), ``"handshake"`` (a socket member never
    established its — possibly TLS — channel), or ``"error"`` (the
    member reported a command failure, with its text; the only reason
    an in-process member can give).  A dropped member is not
    necessarily gone for good: a respawned worker or a reconnecting
    socket member re-enters through the transport's one admission path
    (``ChannelTransport.admit``).
    """

    def __init__(self, member: str, reason: str, detail: str = ""):
        self.member = member
        self.reason = reason
        self.detail = detail
        message = f"member {member} dropped ({reason})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


def patch_summary(patch: Patch) -> dict:
    """Transport-independent description of one applied patch.

    Members report applied patches in this shape, so the differential
    suite can assert the sharded community distributed exactly the
    patch set the in-process one did.
    """
    return {
        "type": type(patch).__name__,
        "pc": patch.pc,
        "when": patch.when,
        "failure_id": patch.failure_id,
        "description": patch.description,
    }
