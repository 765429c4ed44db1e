"""Property-style round-trip tests for the community wire codecs.

Seeded randomized instances of every wire payload — messages, invariant
databases, patches, run results — must survive encode -> decode as
identity, and the byte counts `Message.wire_size()` reports must equal
the bytes the codec actually produces, on both transports.
"""

from __future__ import annotations

import random

import pytest

from repro.community import CommunityManager, MessageBus
from repro.community import wire
from repro.community.transport import Message
from repro.core.checks import ValueCapture, build_check_patches
from repro.core.repair import (
    build_repair_patch,
    generate_candidate_repairs,
)
from repro.dynamo.execution import Outcome, RunResult
from repro.learning.database import InvariantDatabase
from repro.learning.invariants import (
    LessThan,
    LowerBound,
    OneOf,
    SPOffset,
    invariant_from_dict,
)
from repro.learning.variables import Variable

SLOTS = ("value", "target", "src", "dst", "left", "right", "size")


def random_variable(rng: random.Random) -> Variable:
    return Variable(pc=rng.randrange(0, 0x4000, 4), slot=rng.choice(SLOTS))


def random_invariant(rng: random.Random):
    kind = rng.randrange(4)
    samples = rng.randrange(500)
    if kind == 0:
        values = frozenset(rng.randrange(-2**31, 2**31)
                           for _ in range(rng.randrange(1, 8)))
        return OneOf(variable=random_variable(rng), values=values,
                     samples=samples)
    if kind == 1:
        return LowerBound(variable=random_variable(rng),
                          bound=rng.randrange(-2**31, 2**31),
                          samples=samples)
    if kind == 2:
        return LessThan(left=random_variable(rng),
                        right=random_variable(rng), samples=samples)
    return SPOffset(pc=rng.randrange(0, 0x4000, 4),
                    procedure=rng.randrange(0, 0x4000, 4),
                    offset=rng.randrange(-64, 64) * 4, samples=samples)


def random_database(rng: random.Random) -> InvariantDatabase:
    database = InvariantDatabase()
    for _ in range(rng.randrange(1, 40)):
        database.add(random_invariant(rng))
    for _ in range(rng.randrange(1, 30)):
        database.record_samples(rng.randrange(0, 0x4000, 4),
                                rng.randrange(1, 1000))
    return database


class TestInvariantRoundTrip:
    @pytest.mark.parametrize("seed", range(20))
    def test_invariant_identity(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            invariant = random_invariant(rng)
            decoded = invariant_from_dict(invariant.to_dict())
            assert decoded == invariant
            assert decoded.to_dict() == invariant.to_dict()

    @pytest.mark.parametrize("seed", range(10))
    def test_database_identity(self, seed):
        rng = random.Random(seed)
        database = random_database(rng)
        payload = database.to_dict()
        decoded = InvariantDatabase.from_dict(payload)
        # Bit-stable: a second trip produces the identical wire bytes.
        assert wire.encode(decoded.to_dict()) == wire.encode(payload)
        assert decoded.covered_pcs() == database.covered_pcs()
        assert len(decoded) == len(database)


class TestRunResultRoundTrip:
    @pytest.mark.parametrize("seed", range(10))
    def test_run_result_identity(self, seed):
        rng = random.Random(seed)
        result = RunResult(
            outcome=rng.choice(list(Outcome)),
            output=[rng.randrange(256) for _ in range(rng.randrange(40))],
            steps=rng.randrange(10**6),
            detail="x" * rng.randrange(20),
            failure_pc=rng.choice([None, rng.randrange(0x4000)]),
            monitor=rng.choice([None, "memory-firewall", "heap-guard"]),
            call_stack=tuple(rng.randrange(0x4000)
                             for _ in range(rng.randrange(5))),
            call_sites=tuple(rng.randrange(0x4000)
                             for _ in range(rng.randrange(5))),
            interrupted_pc=rng.choice([None, rng.randrange(0x4000)]),
            stats={"steps": rng.randrange(10**6)},
        )
        payload = wire.run_result_to_dict(result)
        decoded = wire.run_result_from_dict(wire.decode(
            wire.encode(payload)))
        assert decoded == result


class TestPatchRoundTrip:
    def real_patches(self, browser, seed: int):
        """Patch sets ClearView actually distributes, over real learned
        invariants: check patches and every repair family."""
        from repro.apps import learning_pages
        from repro.core.checks import ObservationSink
        from repro.learning import learn

        rng = random.Random(seed)
        learned = learn(browser.stripped(), learning_pages()[:4])
        binary = browser.stripped()
        sink = ObservationSink()
        invariants = learned.database.all_invariants()
        rng.shuffle(invariants)
        patch_sets = []
        for invariant in invariants[:30]:
            if isinstance(invariant, SPOffset):
                continue
            patch_sets.append(build_check_patches(
                invariant, f"test@{invariant.check_pc:#x}", sink,
                binary.decode_at))
            for candidate in generate_candidate_repairs(binary, invariant):
                try:
                    patch_sets.append(build_repair_patch(
                        binary, candidate, "fault@0x0",
                        database=learned.database))
                except ValueError:
                    continue
        return patch_sets

    def test_patch_identity_over_real_patch_sets(self, browser):
        from repro.core.checks import ObservationSink

        patch_sets = self.real_patches(browser, seed=7)
        assert len(patch_sets) > 20
        sink = ObservationSink()
        for patches in patch_sets:
            captures: dict[str, ValueCapture] = {}
            for patch in patches:
                payload = wire.patch_to_dict(patch)
                decoded = wire.patch_from_dict(
                    wire.decode(wire.encode(payload)), captures, sink=sink)
                assert wire.patch_to_dict(decoded) == payload
                assert type(decoded) is type(patch)
                assert decoded.patch_id == patch.patch_id

    def test_capture_cells_are_relinked(self, browser):
        """A capture/check pair decoded by two separate commands must
        share one worker-side cell, exactly like the server-side pair."""
        from repro.core.checks import CapturePatch, CheckPatch, \
            ObservationSink

        patch_sets = self.real_patches(browser, seed=3)
        pair = next(patches for patches in patch_sets
                    if len(patches) == 2 and
                    isinstance(patches[0], CapturePatch))
        captures: dict[str, ValueCapture] = {}
        sink = ObservationSink()
        decoded = [wire.patch_from_dict(wire.patch_to_dict(patch),
                                        captures, sink=sink)
                   for patch in pair]
        assert decoded[0].capture is decoded[1].capture
        assert len(captures) == 1

    def test_undistributable_patch_rejected(self):
        from repro.dynamo.patches import Patch

        class Marker(Patch):
            def execute(self, cpu, instruction):
                return None

        with pytest.raises(wire.WireError, match="not a distributable"):
            wire.patch_to_dict(Marker(pc=0))

    def test_garbage_rejected(self):
        with pytest.raises(wire.WireError):
            wire.decode(b"\xffnot json\x00")
        with pytest.raises(wire.WireError):
            wire.decode(b"[1,2,3]")
        with pytest.raises(wire.WireError):
            wire.patch_from_dict({"type": "teleport"}, {})


class TestWireSizeAccounting:
    def test_message_wire_size_is_encoded_bytes(self):
        rng = random.Random(11)
        bus = MessageBus()
        for _ in range(50):
            payload = {"values": [rng.randrange(2**32) for _ in
                                  range(rng.randrange(10))],
                       "text": "π" * rng.randrange(5)}
            message = bus.send("a", "b", "k", payload)
            assert message.wire_size() == len(wire.encode(message.payload))

    def test_send_copies_payload(self):
        """Logging is by value — the log never observes sender-side
        mutations after send()."""
        bus = MessageBus()
        payload = {"values": [1, 2, 3]}
        bus.send("node-0", "server", "upload", payload)
        payload["values"].append(4)
        payload["late"] = True
        assert bus.log[0].payload == {"values": [1, 2, 3]}

    def test_process_transport_log_matches_encoded_bytes(self, browser):
        """Every logged message on the process transport — commands,
        replies, replayed member messages — accounts its true encoded
        size."""
        from repro.apps import learning_pages

        with CommunityManager(browser, members=2,
                              transport="process") as manager:
            manager.learn_distributed(learning_pages()[:4])
            manager.members[0].probe(learning_pages()[0])
            log = manager.transport.log
            assert len(log) > 6
            kinds = {message.kind for message in log}
            assert "cmd:learn-shard" in kinds
            assert "reply:learn-shard" in kinds
            assert "invariant-upload" in kinds
            for message in log:
                assert message.wire_size() == \
                    len(wire.encode(message.payload))


class TestLifecycleCodecs:
    """The hello, which lists the patches a member holds, and the
    admission catch-up payload."""

    def test_hello_round_trip(self):
        payload = wire.hello_to_dict("node-3", held=[17, 4])
        assert wire.hello_from_dict(payload) == ("node-3", [17, 4])
        fresh = wire.hello_to_dict("node-3")
        assert wire.hello_from_dict(fresh) == ("node-3", [])

    @pytest.mark.parametrize("mutation", (
        {"op": "run"},              # wrong op
        {"name": ""},               # empty name
        {"name": 7},                # non-string name
        {"held": 3},                # not a list
        {"held": [True]},           # bool is not an id here
        {"held": ["3"]},            # stringly typed id
        {"held": None},
    ))
    def test_malformed_hellos_are_rejected(self, mutation):
        payload = wire.hello_to_dict("node-0", held=[2])
        payload.update(mutation)
        with pytest.raises(wire.WireError):
            wire.hello_from_dict(payload)

    def test_catch_up_round_trip(self):
        installs = [{"type": "CheckPatch", "pc": 8}]
        payload = wire.catch_up_to_dict([4, 9], installs)
        assert wire.catch_up_from_dict(payload) == ([4, 9], installs)

    @pytest.mark.parametrize("mutation", (
        {"removes": 4},             # not a list
        {"removes": ["4"]},         # stringly typed ids
        {"removes": None},
        {"installs": {}},           # not a list
        {"installs": [7]},          # entries must be dicts
    ))
    def test_malformed_catch_up_is_rejected(self, mutation):
        payload = wire.catch_up_to_dict([1], [])
        payload.update(mutation)
        with pytest.raises(wire.WireError):
            wire.catch_up_from_dict(payload)
