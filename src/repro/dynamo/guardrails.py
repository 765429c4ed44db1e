"""The patch-health ledger: a record of the verdicts reached on repairs.

ClearView judges a repair by the runs that follow it (§2.6), and only
:class:`~repro.core.clearview.ClearView` does the judging: a failure at
the repair's own location fails it, a crash blames the repairs whose
enforcement fired in that run, and a run that survives is a success.  A
*deployed* repair that fails is revoked fleet-wide, and one revoked
:data:`REVOCATION_BLACKLIST` times is blacklisted for the session (flap
damping).  The community manager reaches the remaining verdicts: the
static vetter vetoes a candidate before any member runs it, and a
candidate that kills :data:`TOXIC_KILLS` distinct members during
parallel evaluation is toxic.

:class:`PatchHealthLedger` records those verdicts per candidate repair
for ``community_status()`` and the CLI.  It decides none of them.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Flap damping: a patch revoked this many times is blacklisted for the
#: session (§2.6 "repair that always works" — two half-working repairs
#: must not oscillate).
REVOCATION_BLACKLIST = 2

#: Toxic containment: a candidate that kills this many *distinct*
#: members during parallel evaluation is ejected from the pool.
TOXIC_KILLS = 2


@dataclass
class PatchHealthRecord:
    """The verdicts reached on one candidate repair."""

    #: Stable identity: the candidate repair's description (unique per
    #: candidate — it encodes invariant, action, and variant).
    key: str
    failure_id: str
    deployed: bool = False
    member_kills: int = 0
    killed_members: tuple[str, ...] = ()
    revocations: int = 0
    blacklisted: bool = False
    toxic: bool = False
    #: Rejected by the static vetter before any member ran it.
    vetoed: bool = False
    #: The vetting rules that rejected it (e.g. ``"progress"``).
    veto_rules: tuple[str, ...] = ()

    @property
    def bad(self) -> bool:
        """Has a verdict gone against this repair in production?"""
        return self.revocations >= 1 or self.member_kills >= 1

    @property
    def status(self) -> str:
        if self.vetoed:
            return "vetoed"
        if self.toxic:
            return "toxic"
        if self.blacklisted:
            return "blacklisted"
        if self.bad:
            return "bad"
        return "healthy"

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "failure_id": self.failure_id,
            "status": self.status,
            "deployed": self.deployed,
            "member_kills": self.member_kills,
            "killed_members": list(self.killed_members),
            "revocations": self.revocations,
            "blacklisted": self.blacklisted,
            "toxic": self.toxic,
            "vetoed": self.vetoed,
            "veto_rules": list(self.veto_rules),
        }


class PatchHealthLedger:
    """Records the verdicts the core and the community manager reach."""

    def __init__(self):
        self.records: dict[str, PatchHealthRecord] = {}

    def _record(self, key: str, failure_id: str) -> PatchHealthRecord:
        record = self.records.get(key)
        if record is None:
            record = PatchHealthRecord(key=key, failure_id=failure_id)
            self.records[key] = record
        return record

    # -- deployment -----------------------------------------------------

    def watch(self, key: str, failure_id: str) -> PatchHealthRecord:
        """A repair was deployed.

        History survives redeployment: a repair that was revoked and is
        later re-promoted carries its revocation count.
        """
        record = self._record(key, failure_id)
        record.deployed = True
        return record

    def unwatch(self, key: str) -> None:
        """The repair was withdrawn; its history is retained."""
        record = self.records.get(key)
        if record is not None:
            record.deployed = False

    # -- verdicts -------------------------------------------------------

    def record_member_kill(self, key: str, members,
                           failure_id: str = "") -> None:
        """A trialled candidate crashed or hung community members.

        Creates the record if the candidate was never deployed (a toxic
        candidate can kill members before it ever wins selection).
        """
        record = self._record(key, failure_id)
        fresh = [name for name in members
                 if name not in record.killed_members]
        record.killed_members += tuple(fresh)
        record.member_kills = len(record.killed_members)

    def record_revocation(self, key: str) -> int:
        """Count a fleet-wide revocation; returns the new total."""
        record = self.records.get(key)
        if record is None:
            return 0
        record.revocations += 1
        record.deployed = False
        return record.revocations

    def record_blacklist(self, key: str) -> None:
        record = self.records.get(key)
        if record is not None:
            record.blacklisted = True

    def record_vetoed(self, key: str, failure_id: str = "",
                      rules: tuple[str, ...] = ()) -> None:
        """The static vetter rejected this candidate pre-deployment.

        Unlike toxicity, a veto costs *zero* member kills: the candidate
        never reaches a member.  It is blacklisted all the same so the
        evaluator never retries it.
        """
        record = self._record(key, failure_id)
        record.vetoed = True
        record.veto_rules = tuple(dict.fromkeys(
            record.veto_rules + tuple(rules)))
        record.blacklisted = True

    def record_toxic(self, key: str, failure_id: str = "") -> None:
        record = self._record(key, failure_id)
        record.toxic = True
        record.blacklisted = True

    # -- reporting ------------------------------------------------------

    def report(self) -> dict:
        """Summary for ``community_status`` and the CLI health report."""
        records = [record.to_dict() for record in self.records.values()]
        return {
            "watched": sum(1 for r in self.records.values() if r.deployed),
            "bad": sum(1 for r in self.records.values() if r.bad),
            "toxic": sum(1 for r in self.records.values() if r.toxic),
            "blacklisted": sum(1 for r in self.records.values()
                               if r.blacklisted),
            "vetoed": sum(1 for r in self.records.values() if r.vetoed),
            "revocations": sum(r.revocations
                               for r in self.records.values()),
            "records": records,
        }
