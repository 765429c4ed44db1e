"""Deadline-framed channels, socket/TLS members, and pipelining.

The regression suite for the wedged-worker hang window: a worker that
stops making progress *mid-write* (SIGSTOPped after a partial reply,
trickling slow-loris bytes, or disconnecting mid-frame) must be dropped
as promptly as one that never answered, on both real transports, with
its work re-sharded and no orphan process left behind.  Plus the wire
protocol satellites: exact on-wire byte accounting, the explicit per-op
deadline table, bounded per-worker pipelining, and TLS membership.
"""

from __future__ import annotations

import socket
import struct
import subprocess
import time

import pytest

from repro.apps import learning_pages
from repro.community import (
    CommunityManager,
    LoopbackTransport,
    MemberFailure,
    ProcessTransport,
    SocketTransport,
)
from repro.community.remote import (
    ChannelClosed,
    ChannelError,
    ChannelTimeout,
    FramedChannel,
    run_member,
)
from repro.dynamo import Outcome
from repro.errors import CommunityError
from repro.redteam import exploit

from test_process_community import (
    assert_no_orphans,
    database_fingerprint,
    run_learning,
    semantic_fingerprint,
)


@pytest.fixture
def make_manager(browser):
    """Manager factory that guarantees worker teardown per test.

    Tests here tune transports (frame deadlines, TLS) and hand the
    instance to the manager; ownership transfers with it, so a plain
    ``manager.close()`` tears the workers down like the string-selected
    transports do."""
    managers = []

    def build(**kwargs):
        manager = CommunityManager(browser, **kwargs)
        manager._owns_transport = True
        managers.append(manager)
        return manager

    yield build
    for manager in managers:
        manager.close()


@pytest.fixture(scope="session")
def tls_cert(tmp_path_factory):
    """A self-signed localhost certificate for the TLS channel tests,
    generated locally (cryptography if available, openssl CLI as the
    fallback); skips when neither generator exists."""
    directory = tmp_path_factory.mktemp("tls")
    certfile = directory / "cert.pem"
    keyfile = directory / "key.pem"
    try:
        _generate_cert_cryptography(certfile, keyfile)
    except ImportError:
        try:
            subprocess.run(
                ["openssl", "req", "-x509", "-newkey", "rsa:2048",
                 "-nodes", "-keyout", str(keyfile), "-out", str(certfile),
                 "-days", "30", "-subj", "/CN=localhost",
                 "-addext", "subjectAltName=IP:127.0.0.1,DNS:localhost"],
                check=True, capture_output=True, timeout=60)
        except (OSError, subprocess.SubprocessError):
            pytest.skip("no TLS certificate generator available")
    return str(certfile), str(keyfile)


def _generate_cert_cryptography(certfile, keyfile) -> None:
    import datetime
    import ipaddress

    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import rsa
    from cryptography.x509.oid import NameOID

    key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "localhost")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (x509.CertificateBuilder()
            .subject_name(name).issuer_name(name)
            .public_key(key.public_key())
            .serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(days=1))
            .not_valid_after(now + datetime.timedelta(days=30))
            .add_extension(x509.SubjectAlternativeName(
                [x509.DNSName("localhost"),
                 x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]),
                critical=False)
            .sign(key, hashes.SHA256()))
    keyfile.write_bytes(key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.TraditionalOpenSSL,
        serialization.NoEncryption()))
    certfile.write_bytes(cert.public_bytes(serialization.Encoding.PEM))


def _channel_pair(frame_deadline: float = 0.5):
    left, right = socket.socketpair()
    return (FramedChannel(left, frame_deadline=frame_deadline),
            FramedChannel(right, frame_deadline=frame_deadline))


# ---------------------------------------------------------------------------
# FramedChannel protocol
# ---------------------------------------------------------------------------

class TestFramedChannel:
    def test_roundtrip_and_buffered_pipeline(self):
        a, b = _channel_pair()
        for index in range(5):
            a.send_frame(f"frame-{index}".encode())
        # All five frames queue up on the peer — the substrate of the
        # bounded per-worker command pipeline.
        time.sleep(0.05)
        received = [b.recv_frame(timeout=1.0) for _ in range(5)]
        assert received == [f"frame-{index}".encode() for index in range(5)]
        a.close(), b.close()

    def test_byte_counters_match_both_ends(self):
        a, b = _channel_pair()
        sizes = [a.send_frame(payload)
                 for payload in (b"x", b"y" * 100, b"{}")]
        for _ in sizes:
            b.recv_frame(timeout=1.0)
        assert a.sent_bytes == sum(sizes)
        assert b.received_bytes == a.sent_bytes
        a.close(), b.close()

    def test_first_byte_timeout(self):
        a, b = _channel_pair()
        started = time.monotonic()
        with pytest.raises(ChannelTimeout) as info:
            b.recv_frame(timeout=0.2)
        assert not info.value.mid_frame
        assert time.monotonic() - started < 2.0
        a.close(), b.close()

    def test_partial_frame_stalls_within_frame_deadline(self):
        """The wedged-mid-write window at channel level: a frame that
        starts but stops progressing trips the *frame* deadline even
        though the op-level timeout is far away."""
        a, b = _channel_pair(frame_deadline=0.4)
        frame = struct.pack(">I", 100) + b"p" * 100
        a.send_raw(frame[:30])  # header + partial body, then silence
        started = time.monotonic()
        with pytest.raises(ChannelTimeout) as info:
            b.recv_frame(timeout=60.0)
        elapsed = time.monotonic() - started
        assert info.value.mid_frame
        assert elapsed < 5.0, "frame deadline did not bound the stall"
        a.close(), b.close()

    def test_slow_trickle_still_trips_frame_deadline(self):
        """Progress is not enough: the complete frame must land within
        the deadline of its first byte (slow-loris resistance)."""
        a, b = _channel_pair(frame_deadline=0.4)
        frame = struct.pack(">I", 40) + b"q" * 40

        import threading

        def trickle():
            for offset in range(0, len(frame), 2):
                try:
                    a.send_raw(frame[offset:offset + 2])
                except ChannelError:
                    return
                time.sleep(0.1)

        writer = threading.Thread(target=trickle, daemon=True)
        writer.start()
        with pytest.raises(ChannelTimeout) as info:
            b.recv_frame(timeout=60.0)
        assert info.value.mid_frame
        b.close()
        writer.join(timeout=5)
        a.close()

    def test_eof_mid_frame_is_closed_mid_frame(self):
        a, b = _channel_pair()
        a.send_raw(struct.pack(">I", 50) + b"partial")
        a.close()
        with pytest.raises(ChannelClosed) as info:
            b.recv_frame(timeout=1.0)
        assert info.value.mid_frame
        b.close()

    def test_oversized_header_rejected(self):
        a, b = _channel_pair()
        a.send_raw(struct.pack(">I", (1 << 30) + 1) + b"xx")
        with pytest.raises(ChannelError):
            b.recv_frame(timeout=1.0)
        a.close(), b.close()


# ---------------------------------------------------------------------------
# The per-op deadline table (no prefix games)
# ---------------------------------------------------------------------------

class TestDeadlineTable:
    def test_run_style_ops_get_long_deadlines(self):
        transport = ProcessTransport(timeout=7.0, learn_timeout=200.0)
        try:
            assert transport.timeout_for("learn-shard") == 200.0
            # evaluate-candidate executes full episodes under trial
            # patches; it must not race the short control-op timeout.
            assert transport.timeout_for("evaluate-candidate") == 200.0
            assert transport.timeout_for("run") == 200.0
            assert transport.timeout_for("probe") == 200.0
            assert transport.timeout_for("install-patch") == 7.0
            assert transport.timeout_for("ping") == 7.0
        finally:
            transport.close()

    def test_no_prefix_matching(self):
        """A hypothetical new `learn-profile` op must choose its own
        deadline table row; it does not inherit by name prefix."""
        transport = ProcessTransport(timeout=7.0, learn_timeout=200.0)
        try:
            assert transport.timeout_for("learn-profile") == 7.0
            assert transport.timeout_for("learnx") == 7.0
        finally:
            transport.close()

    def test_explicit_run_timeout_row(self):
        transport = SocketTransport(timeout=7.0, learn_timeout=200.0,
                                    run_timeout=42.0)
        try:
            assert transport.timeout_for("learn-shard") == 200.0
            assert transport.timeout_for("evaluate-candidate") == 42.0
            assert transport.op_timeouts["probe"] == 42.0
        finally:
            transport.close()


# ---------------------------------------------------------------------------
# The wedged-mid-write regression (the bug this PR closes)
# ---------------------------------------------------------------------------

class TestStallMidWrite:
    @pytest.mark.parametrize("transport_cls",
                             [ProcessTransport, SocketTransport])
    def test_stalled_worker_dropped_within_frame_deadline(
            self, make_manager, transport_cls):
        """A worker SIGSTOPped after writing half its reply frame is
        dropped as ``hang`` within the frame deadline — on the pipe
        transport too — instead of stalling the server forever in a
        blocking read, and its (stopped) process is killed, not
        orphaned."""
        transport = transport_cls(frame_deadline=1.0)
        manager = make_manager(members=2, transport=transport)
        member = manager.members[0]
        page = learning_pages()[0]
        member.inject_fault("stall-mid-write", at="probe")
        started = time.monotonic()
        with pytest.raises(MemberFailure) as info:
            member.probe(page)
        elapsed = time.monotonic() - started
        assert info.value.reason == "hang"
        # The stall is bounded by the 1s frame deadline (plus the
        # worker's compute time before it started writing) — nowhere
        # near the minutes-long run-style op timeout the old
        # time-to-first-byte poll() would have waited.
        assert elapsed < 15.0
        assert [d.reason for d in manager.dropped_members] == ["hang"]
        assert "stalled" in manager.dropped_members[0].detail
        # The SIGSTOPped worker ignores SIGTERM; the drop path must
        # have escalated to SIGKILL.
        member.process.join(timeout=5)
        assert not member.process.is_alive()
        # The survivor is untouched.
        result = manager.members[1].probe(page)
        assert result.outcome is Outcome.COMPLETED
        manager.close()
        assert_no_orphans(manager)

    def test_stall_mid_learning_is_resharded(self, make_manager):
        """The full failure policy on top of the detection: the stalled
        member's shard is redistributed and the model converges to what
        a healthy community learns."""
        manager = make_manager(
            members=3, transport=ProcessTransport(frame_deadline=1.0))
        manager.members[1].inject_fault("stall-mid-write",
                                        at="learn-shard")
        report = run_learning(manager)
        assert report.dropped_members == ["node-1"]
        assert [d.reason for d in manager.dropped_members] == ["hang"]
        healthy = run_learning(make_manager(members=3))
        assert semantic_fingerprint(report.database) == \
            semantic_fingerprint(healthy.database)
        manager.close()
        assert_no_orphans(manager)


# ---------------------------------------------------------------------------
# Socket-transport fault injection
# ---------------------------------------------------------------------------

class TestSocketFaultInjection:
    def test_slow_loris_dropped_and_resharded(self, make_manager):
        """A reply trickled slower than the frame deadline is a hang:
        progress alone does not keep a member alive."""
        manager = make_manager(
            members=3, transport=SocketTransport(frame_deadline=1.0))
        manager.members[0].inject_fault("slow-loris", at="learn-shard",
                                        seconds=0.4)
        report = run_learning(manager)
        assert report.dropped_members == ["node-0"]
        assert [d.reason for d in manager.dropped_members] == ["hang"]
        healthy = run_learning(make_manager(members=3))
        assert semantic_fingerprint(report.database) == \
            semantic_fingerprint(healthy.database)
        manager.close()
        assert_no_orphans(manager)

    def test_disconnect_mid_frame_is_a_crash(self, make_manager):
        manager = make_manager(members=3, transport=SocketTransport())
        manager.members[2].inject_fault("disconnect-mid-frame",
                                        at="learn-shard")
        report = run_learning(manager)
        assert report.dropped_members == ["node-2"]
        assert [d.reason for d in manager.dropped_members] == ["crash"]
        healthy = run_learning(make_manager(members=3))
        assert semantic_fingerprint(report.database) == \
            semantic_fingerprint(healthy.database)
        manager.close()
        assert_no_orphans(manager)

    def test_faulted_episode_verdicts_match_in_process(self, make_manager):
        """After a socket member is lost mid-learning, the surviving
        community still reaches the same protection verdicts as the
        in-process bus: the exploit converges to COMPLETED and every
        survivor is immune."""
        manager = make_manager(
            members=3, transport=SocketTransport(frame_deadline=1.0))
        manager.members[1].inject_fault("slow-loris", at="learn-shard",
                                        seconds=0.4)
        report = run_learning(manager)
        healthy = run_learning(make_manager(members=3))
        assert semantic_fingerprint(report.database) == \
            semantic_fingerprint(healthy.database)
        manager.protect()
        attack = exploit("gc-collect")
        outcomes = []
        for _ in range(6):
            outcomes.append(manager.attack(attack.page()).outcome)
            if outcomes[-1] is Outcome.COMPLETED:
                break
        assert outcomes[-1] is Outcome.COMPLETED
        assert manager.immune_members(attack.page()) == \
            len(manager.environment.alive_members()) == 2
        manager.close()
        assert_no_orphans(manager)


# ---------------------------------------------------------------------------
# TLS membership (the paper's SSL channel)
# ---------------------------------------------------------------------------

class TestTlsMembers:
    def test_tls_learning_bit_equal(self, make_manager, tls_cert):
        certfile, keyfile = tls_cert
        sharded = run_learning(make_manager(
            members=2, transport=SocketTransport(certfile=certfile,
                                                 keyfile=keyfile)))
        in_process = run_learning(make_manager(members=2))
        assert database_fingerprint(in_process.database) == \
            database_fingerprint(sharded.database)
        assert in_process.upload_bytes == sharded.upload_bytes

    def test_tls_handshake_failure_drops_member(self, make_manager,
                                                tls_cert):
        """A member that cannot complete the TLS handshake never joins:
        it is recorded as dropped (reason handshake) and the community
        proceeds with the survivors."""
        certfile, keyfile = tls_cert
        transport = SocketTransport(
            certfile=certfile, keyfile=keyfile, spawn_timeout=20.0,
            _plaintext_members=frozenset({"node-1"}))
        manager = make_manager(members=2, transport=transport)
        assert [d.reason for d in manager.dropped_members] == ["handshake"]
        assert [d.name for d in manager.dropped_members] == ["node-1"]
        assert len(manager.environment.alive_members()) == 1
        report = run_learning(manager)
        healthy = run_learning(make_manager(members=1))
        assert semantic_fingerprint(report.database) == \
            semantic_fingerprint(healthy.database)
        manager.close()
        assert_no_orphans(manager)


# ---------------------------------------------------------------------------
# Externally launched members (the --connect mode)
# ---------------------------------------------------------------------------

class TestExternalMembers:
    def test_external_member_joins_and_serves(self, browser, make_manager):
        import multiprocessing

        transport = SocketTransport(accept_external=True,
                                    spawn_timeout=30.0)
        host, port = transport.listen()
        context = multiprocessing.get_context("fork")
        worker = context.Process(
            target=run_member,
            args=(host, port, "dialed-in", browser.stripped(), None),
            daemon=True)
        worker.start()
        try:
            manager = make_manager(members=1, transport=transport)
            assert [member.name for member in manager.members] == \
                ["dialed-in"]
            result = manager.members[0].probe(learning_pages()[0])
            assert result.outcome is Outcome.COMPLETED
            manager.close()
        finally:
            worker.join(timeout=10)
            if worker.is_alive():  # pragma: no cover - cleanup only
                worker.kill()
                worker.join(timeout=5)
        assert worker.exitcode == 0

    def test_late_arrival_is_counted_where_it_learned(self, browser,
                                                       make_manager):
        """One membership list: a member that dials in after spawn is
        admitted at the next wave edge, learns a shard, and appears in
        the report's per-member entries, which sum to the full count."""
        import multiprocessing
        import select

        transport = SocketTransport(accept_external=True,
                                    spawn_timeout=30.0)
        host, port = transport.listen()
        context = multiprocessing.get_context("fork")
        workers = []

        def dial(name: str) -> None:
            worker = context.Process(
                target=run_member,
                args=(host, port, name, browser.stripped(), None),
                daemon=True)
            worker.start()
            workers.append(worker)

        try:
            dial("a")
            manager = make_manager(members=1, transport=transport)
            dial("b")
            # Wait for b's connection to be pending, so the wave-edge
            # sweep at the start of learning admits it.
            select.select([transport._listener], [], [], 30.0)
            report = manager.learn_distributed(learning_pages())
            assert [member.name for member in manager.members] == \
                ["a", "b"]
            assert report.per_node_observations == \
                [member.stats().traced_observations
                 for member in manager.members]
            assert all(report.per_node_observations)
            assert sum(report.per_node_observations) == \
                report.full_observations
            manager.close()
        finally:
            for worker in workers:
                worker.join(timeout=10)
                if worker.is_alive():  # pragma: no cover - cleanup only
                    worker.kill()
                    worker.join(timeout=5)


# ---------------------------------------------------------------------------
# Exact on-wire accounting
# ---------------------------------------------------------------------------

class TestWireAccounting:
    @pytest.mark.parametrize("transport_cls",
                             [LoopbackTransport, ProcessTransport,
                              SocketTransport])
    def test_per_kind_totals_sum_to_on_wire_bytes(self, make_manager,
                                                  transport_cls):
        """Every frame byte is attributed to exactly one log record:
        replayed piggyback messages under their own kind, the remainder
        under reply:<op> — so the per-kind totals reconcile against the
        channels' byte counters exactly."""
        manager = make_manager(members=2, transport=transport_cls())
        run_learning(manager)
        manager.protect()
        attack = exploit("gc-collect")
        for _ in range(6):
            if manager.attack(attack.page()).outcome is Outcome.COMPLETED:
                break
        manager.immune_members(attack.page())
        manager.close()  # the polite shutdown frames count too
        by_kind = manager.bus.channel_bytes_by_kind()
        assert sum(by_kind.values()) == manager.bus.wire_bytes_total()
        # Both directions actually appear.
        assert any(kind.startswith("cmd:") for kind in by_kind)
        assert any(kind.startswith("reply:") for kind in by_kind)
        # Piggybacked member messages were split out under their kinds.
        assert "invariant-upload" in by_kind
        assert "failure-notification" in by_kind
        # And every channel-borne record carries its frame attribution.
        for message in manager.bus.log:
            if message.kind.startswith(("cmd:", "reply:")):
                assert message.frame_size is not None

    def test_payload_accounting_is_transport_invariant(self, make_manager):
        """wire_size() keeps its §3.1 semantics — canonical payload
        bytes, identical across transports — while frame accounting
        reports the real channel cost on top."""
        in_process = run_learning(make_manager(members=2))
        sharded_manager = make_manager(members=2, transport="process")
        sharded = run_learning(sharded_manager)
        assert in_process.upload_bytes == sharded.upload_bytes
        by_kind = sharded_manager.bus.channel_bytes_by_kind()
        payload_kind = sharded_manager.bus.bytes_by_kind()
        # The channel attribution of an upload is never smaller than
        # its canonical payload (framing + envelope overhead).
        assert by_kind["invariant-upload"] >= \
            payload_kind["invariant-upload"]
        assert in_process.upload_bytes > 0


# ---------------------------------------------------------------------------
# Pipelining
# ---------------------------------------------------------------------------

class TestPipelining:
    def test_pipeline_capacity_is_bounded(self, make_manager):
        manager = make_manager(
            members=1, transport=ProcessTransport(pipeline_depth=2))
        member = manager.members[0]
        member.post("ping")
        member.post("ping")
        with pytest.raises(CommunityError, match="pipeline full"):
            member.post("ping")
        assert member.collect()["ok"] is True
        member.post("ping")  # capacity freed by the collect
        assert member.collect()["ok"] is True
        assert member.collect()["ok"] is True
        assert member.pending_ops == 0

    def test_pipelined_replies_correlate_fifo(self, make_manager):
        """Replies come back in command order; a pipeline of distinct
        commands lands each reply on the right collector."""
        manager = make_manager(members=1, transport="process")
        member = manager.members[0]
        pages = learning_pages()[:3]
        for page in pages:
            member.start_probe(page)
        results = [member.finish_probe() for _ in pages]
        expected = [member.probe(page) for page in pages]
        assert [r.outcome for r in results] == \
            [r.outcome for r in expected]
        assert [r.output for r in results] == \
            [r.output for r in expected]

    @pytest.mark.parametrize("transport_name", ["process", "socket"])
    def test_probe_many_matches_sequential(self, make_manager,
                                           transport_name):
        manager = make_manager(members=2, transport=transport_name)
        reference = make_manager(members=2)
        payloads = learning_pages()[:6]
        pipelined = manager.environment.probe_many(payloads)
        sequential = reference.environment.probe_many(payloads)
        assert [r.outcome for r in pipelined] == \
            [r.outcome for r in sequential]
        assert [r.output for r in pipelined] == \
            [r.output for r in sequential]

    def test_probe_many_reshards_around_casualty(self, make_manager):
        manager = make_manager(members=2, transport="process")
        payloads = learning_pages()[:6]
        manager.members[0].inject_fault("crash", at="probe")
        results = manager.environment.probe_many(payloads)
        assert len(results) == len(payloads)
        assert all(r.outcome is Outcome.COMPLETED for r in results)
        assert [d.reason for d in manager.dropped_members] == ["crash"]
        manager.close()
        assert_no_orphans(manager)


# ---------------------------------------------------------------------------
# CLI plumbing (cheap paths only; the heavy episode runs in the bench)
# ---------------------------------------------------------------------------

class TestCommunityCli:
    def test_listen_requires_socket_transport(self, capsys):
        from repro.cli import main

        assert main(["community", "--listen", "127.0.0.1:0"]) == 2
        assert "--transport socket" in capsys.readouterr().err

    def test_bad_endpoint_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["community", "--connect", "not-an-endpoint"])
