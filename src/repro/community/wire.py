"""Wire codecs for the process-sharded application community.

Everything that crosses a member channel — commands, replies, uploaded
invariant databases, distributed patches, run results — travels as
canonical JSON produced by :func:`encode`, on every transport.  The encoding is the same one
:class:`~repro.community.transport.Message` accounts with, so
``Message.wire_size()`` equals the number of bytes actually written to a
worker pipe for the same payload.

Patches are the delicate case.  A ClearView patch is live server-side
state: check patches record into the manager's
:class:`~repro.core.checks.ObservationSink`, two-variable patches share a
:class:`~repro.core.checks.ValueCapture` cell, and repair patches carry a
``fired`` counter the manager reads for causal crash blame.  The codec
therefore ships *structure*, not state:

- shared capture cells are encoded by ``capture_id`` and re-linked from a
  per-member registry, so a capture/check pair decoded by two separate
  ``install-patch`` commands still shares one cell — and each member,
  in-process ones included, holds cells of its own;
- a decoded check patch records into whatever sink the decode context
  supplies (workers install a tap that streams ``(patch_id, satisfied)``
  events back to the server);
- ``fired`` is never shipped — workers report deltas and the server folds
  them into the canonical patch objects.
"""

from __future__ import annotations

import json
import typing

from repro.core.checks import CapturePatch, CheckPatch, ValueCapture
from repro.core.repair import (
    RepairAction,
    ReturnFromProcedureRepair,
    SetFromVariableRepair,
    SetValueRepair,
    SkipCallRepair,
)
from repro.dynamo.execution import Outcome, RunResult
from repro.dynamo.patches import JumpPatch, Patch, PokePatch
from repro.learning.invariants import invariant_from_dict
from repro.learning.variables import Variable

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.checks import ObservationSink


class WireError(ValueError):
    """A payload could not be encoded or decoded."""


def encode(payload: dict) -> bytes:
    """Canonical JSON bytes (the byte count ``Message.wire_size`` reports)."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode(raw: bytes) -> dict:
    """Inverse of :func:`encode`; raises :class:`WireError` on garbage."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"undecodable wire payload: {error}") from error
    if not isinstance(payload, dict):
        raise WireError(f"wire payload is {type(payload).__name__}, "
                        f"expected an object")
    return payload


# ---------------------------------------------------------------------------
# Membership (hello / rejoin catch-up)
# ---------------------------------------------------------------------------

def hello_to_dict(name: str, epoch: int = 0) -> dict:
    """The epoch-stamped hello a member introduces itself with.

    ``epoch`` is the member's last *acknowledged* patch-ledger epoch:
    0 for a fresh process (nothing installed), the epoch stamped on the
    last install/remove command it processed for a member reconnecting
    with state intact.  The server replays exactly the ledger deltas
    after this epoch before re-admitting the member.
    """
    return {"op": "hello", "name": name, "epoch": int(epoch)}


def hello_from_dict(payload: dict) -> tuple[str, int]:
    """Validate a hello frame; returns ``(name, acked epoch)``."""
    if not isinstance(payload, dict) or payload.get("op") != "hello":
        raise WireError(f"not a hello frame: {payload!r}")
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise WireError(f"hello without a member name: {payload!r}")
    epoch = payload.get("epoch", 0)
    if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
        raise WireError(f"bad hello epoch {epoch!r}")
    return name, epoch


def catch_up_to_dict(removes: list[int], installs: list[dict],
                     epoch: int) -> dict:
    """The ledger-delta payload a rejoining member replays.

    ``removes`` are patch ids the member still holds that the community
    has since withdrawn; ``installs`` are wire-form patches
    (:func:`patch_to_dict`) it missed; ``epoch`` is the ledger epoch the
    member acknowledges by applying them.  Removes are ordered before
    installs — a remove can only refer to a pre-rejoin install, while an
    install may reuse a just-freed patch id.
    """
    return {"removes": [int(patch_id) for patch_id in removes],
            "installs": list(installs), "epoch": int(epoch)}


def catch_up_from_dict(payload: dict) -> tuple[list[int], list[dict], int]:
    """Validate a catch-up command; returns (removes, installs, epoch)."""
    try:
        removes = payload["removes"]
        installs = payload["installs"]
        epoch = payload["epoch"]
    except (KeyError, TypeError) as error:
        raise WireError(f"malformed catch-up payload: {error}") from error
    if not isinstance(removes, list) or not isinstance(installs, list):
        raise WireError("catch-up removes/installs must be lists")
    if not all(isinstance(patch_id, int) and not isinstance(patch_id, bool)
               for patch_id in removes):
        raise WireError("catch-up removes must be integer patch ids")
    if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
        raise WireError(f"bad catch-up epoch {epoch!r}")
    if not all(isinstance(entry, dict) for entry in installs):
        raise WireError("catch-up installs must be patch payloads")
    return removes, installs, epoch


# ---------------------------------------------------------------------------
# Run results
# ---------------------------------------------------------------------------

def run_result_to_dict(result: RunResult) -> dict:
    return {
        "outcome": result.outcome.value,
        "output": list(result.output),
        "steps": result.steps,
        "detail": result.detail,
        "failure_pc": result.failure_pc,
        "monitor": result.monitor,
        "call_stack": list(result.call_stack),
        "call_sites": list(result.call_sites),
        "interrupted_pc": result.interrupted_pc,
        "stats": dict(result.stats),
    }


def run_result_from_dict(payload: dict) -> RunResult:
    try:
        return RunResult(
            outcome=Outcome(payload["outcome"]),
            output=list(payload["output"]),
            steps=payload["steps"],
            detail=payload.get("detail", ""),
            failure_pc=payload.get("failure_pc"),
            monitor=payload.get("monitor"),
            call_stack=tuple(payload.get("call_stack", ())),
            call_sites=tuple(payload.get("call_sites", ())),
            interrupted_pc=payload.get("interrupted_pc"),
            stats=dict(payload.get("stats", {})),
        )
    except (KeyError, ValueError, TypeError) as error:
        raise WireError(f"malformed run result: {error}") from error


# ---------------------------------------------------------------------------
# Patches
# ---------------------------------------------------------------------------

_PATCH_TYPES = {
    "check": CheckPatch,
    "capture": CapturePatch,
    "set-value": SetValueRepair,
    "set-from-variable": SetFromVariableRepair,
    "skip-call": SkipCallRepair,
    "return-from-procedure": ReturnFromProcedureRepair,
    # Generic primitives (no invariant): distributable so the chaos
    # harness's adversarial repairs reach real worker processes.
    "jump": JumpPatch,
    "poke": PokePatch,
}
_TYPE_BY_CLASS = {cls: name for name, cls in _PATCH_TYPES.items()}


def patch_to_dict(patch: Patch) -> dict:
    """Serialize one of ClearView's distributable patches.

    Raises :class:`WireError` for patch classes outside the community
    protocol (ad-hoc test patches, manual source fixes): those never leave
    the server, so they have no wire form.
    """
    kind = _TYPE_BY_CLASS.get(type(patch))
    if kind is None:
        raise WireError(
            f"{type(patch).__name__} is not a distributable patch")
    payload: dict = {
        "type": kind,
        "pc": patch.pc,
        "failure_id": patch.failure_id,
        "patch_id": patch.patch_id,
        "description": patch.description,
        "when": patch.when,
    }
    if isinstance(patch, CapturePatch):
        payload["variable"] = str(patch.variable)
        payload["capture_id"] = patch.capture.capture_id
        return payload
    if isinstance(patch, JumpPatch):
        payload["target"] = patch.target
        return payload
    if isinstance(patch, PokePatch):
        payload["address"] = patch.address
        payload["value"] = patch.value
        return payload
    payload["invariant"] = patch.invariant.to_dict()
    payload["capture_id"] = (patch.capture.capture_id
                             if patch.capture is not None else None)
    if isinstance(patch, CheckPatch):
        return payload
    payload["action"] = int(patch.action)
    if isinstance(patch, SetValueRepair):
        payload["target_register"] = patch.target_register
        payload["value"] = patch.value
    elif isinstance(patch, SetFromVariableRepair):
        payload["target_register"] = patch.target_register
        payload["adjust_left"] = patch.adjust_left
    elif isinstance(patch, ReturnFromProcedureRepair):
        payload["sp_offset"] = patch.sp_offset
    return payload


def patch_from_dict(payload: dict, captures: dict[str, ValueCapture],
                    sink: "ObservationSink | None" = None) -> Patch:
    """Rebuild a patch in a worker process.

    ``captures`` is the worker's shared capture registry: every patch
    naming the same ``capture_id`` is linked to one local cell.  ``sink``
    receives check-patch observations (required to decode check patches).
    """
    try:
        kind = payload["type"]
        cls = _PATCH_TYPES.get(kind)
        if cls is None:
            raise WireError(f"unknown patch type {kind!r}")
        base = dict(pc=payload["pc"], failure_id=payload["failure_id"],
                    patch_id=payload["patch_id"],
                    description=payload["description"], when=payload["when"])

        def capture_cell(capture_id: str | None) -> ValueCapture | None:
            if capture_id is None:
                return None
            cell = captures.get(capture_id)
            if cell is None:
                cell = ValueCapture(capture_id=capture_id)
                captures[capture_id] = cell
            return cell

        if kind == "capture":
            return CapturePatch(
                variable=Variable.parse(payload["variable"]),
                capture=capture_cell(payload["capture_id"]), **base)
        if kind == "jump":
            return JumpPatch(target=payload["target"], **base)
        if kind == "poke":
            return PokePatch(address=payload["address"],
                             value=payload["value"], **base)
        invariant = invariant_from_dict(payload["invariant"])
        capture = capture_cell(payload.get("capture_id"))
        if kind == "check":
            if sink is None:
                raise WireError("check patches need an observation sink")
            return CheckPatch(invariant=invariant, sink=sink,
                              capture=capture, **base)
        action = RepairAction(payload["action"])
        if kind == "set-value":
            return SetValueRepair(
                invariant=invariant, action=action, capture=capture,
                target_register=payload["target_register"],
                value=payload["value"], **base)
        if kind == "set-from-variable":
            return SetFromVariableRepair(
                invariant=invariant, action=action, capture=capture,
                target_register=payload["target_register"],
                adjust_left=payload["adjust_left"], **base)
        if kind == "skip-call":
            return SkipCallRepair(invariant=invariant, action=action,
                                  capture=capture, **base)
        return ReturnFromProcedureRepair(
            invariant=invariant, action=action, capture=capture,
            sp_offset=payload["sp_offset"], **base)
    except WireError:
        raise
    except (KeyError, ValueError, TypeError) as error:
        raise WireError(f"malformed patch payload: {error}") from error
