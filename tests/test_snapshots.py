"""Persistent code-cache snapshots (§4.4.5 save/restore on disk).

Pins the three guarantees the persistence tier makes: round-trip
identity (save → load reproduces the cache state bit-exactly, and
execution/learning from a warm start equals a cold run), strict
rejection of stale snapshots (schema, engine, and binary-digest
mismatches all raise instead of misloading), and community wiring
(process workers warm-started from a shared snapshot learn the
bit-identical database the cold community learns, on both transports).
"""

from __future__ import annotations

import json

import pytest

from repro.apps import evaluation_pages, learning_pages
from repro.cfg.discovery import DiscoveryPlugin, ProcedureDatabase
from repro.community import CommunityManager
from repro.dynamo import (
    EnvironmentConfig,
    ManagedEnvironment,
    Outcome,
    load_snapshot,
    save_snapshot,
)
from repro.dynamo.snapshot import (
    ENGINE_VERSION,
    SCHEMA_VERSION,
    encode_snapshot,
    read_snapshot,
)
from repro.errors import SnapshotError
from repro.learning.inference import InferenceEngine
from repro.learning.traces import TraceFrontEnd


@pytest.fixture
def warm_snapshot(browser, tmp_path):
    """A snapshot taken after one full-workload warming pass."""
    binary = browser.stripped()
    config = EnvironmentConfig.bare()
    config.reuse_cache = True
    environment = ManagedEnvironment(binary, config)
    for page in evaluation_pages():
        result = environment.run(page)
        assert result.outcome is Outcome.COMPLETED
    path = tmp_path / "cache.json"
    save_snapshot(path, environment.last_code_cache)
    return binary, path, environment.last_code_cache


class TestRoundTrip:
    def test_state_identity(self, warm_snapshot):
        """Load reproduces the reached starts in reach order exactly,
        and a cache restored from them holds the same blocks;
        re-encoding the loaded state is byte-identical (canonical
        form)."""
        binary, path, cache = warm_snapshot
        reached = load_snapshot(path, binary)
        assert [block.start for block in reached] == \
            list(cache.block_map.blocks)

        from repro.dynamo.code_cache import CodeCache
        reloaded = CodeCache(binary)
        reloaded.restore(reached)
        for start, block in cache.block_map.blocks.items():
            assert reloaded.block_map.blocks[start].instructions == \
                block.instructions
        assert encode_snapshot(reloaded, binary) == \
            encode_snapshot(cache, binary)

    def test_warm_execution_bit_equal_to_cold(self, warm_snapshot):
        binary, path, _ = warm_snapshot
        cold = ManagedEnvironment(binary, EnvironmentConfig.bare())
        warm_config = EnvironmentConfig.bare()
        warm_config.load_snapshot = str(path)
        warm = ManagedEnvironment(binary, warm_config)
        for page in evaluation_pages()[:8]:
            cold_result = cold.run(page)
            warm_result = warm.run(page)
            assert cold_result.output == warm_result.output
            assert cold_result.steps == warm_result.steps
            assert cold_result.outcome is warm_result.outcome
        # The whole point: warm instances rebuild nothing.
        assert warm_result.stats["block_builds"] == 0
        assert warm.last_code_cache.restored_blocks > 0

    def test_warm_learning_database_bit_equal(self, warm_snapshot):
        """Discovery replays restored blocks in original order, so a
        learning run from a warm start infers the bit-identical
        database a cold run does."""
        binary, path, _ = warm_snapshot
        pages = evaluation_pages()[:8]

        def learn(config) -> str:
            environment = ManagedEnvironment(binary, config)
            procedures = ProcedureDatabase(binary)
            environment.cache_plugins.append(DiscoveryPlugin(procedures))
            engine = InferenceEngine(procedures)
            environment.extra_hooks.append(
                TraceFrontEnd(engine, procedures))
            for page in pages:
                environment.run(page)
            return json.dumps(engine.finalize().to_dict(),
                              separators=(",", ":"))

        warm_config = EnvironmentConfig.full()
        warm_config.load_snapshot = str(path)
        assert learn(EnvironmentConfig.full()) == learn(warm_config)

    def test_edge_profile_round_trips(self, warm_snapshot):
        """Observed-run trace heat — the successor histograms driving
        hottest-successor selection — survives the disk round trip and
        seeds a fresh binary's shared profile."""
        binary, path, _ = warm_snapshot
        assert binary._edge_profile  # warming actually recorded edges
        payload = read_snapshot(path)
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["edge_profile"]
        fresh = binary.stripped()
        load_snapshot(path, fresh)
        assert fresh._edge_profile == binary._edge_profile

    def test_older_ledger_stamp_is_ignored(self, warm_snapshot, tmp_path):
        """Earlier builds could stamp a community patch-ledger epoch
        into the file; such a snapshot still loads, to the same
        state."""
        binary, path, _ = warm_snapshot
        payload = read_snapshot(path)
        payload["ledger_epoch"] = 4
        stamped = tmp_path / "stamped.json"
        stamped.write_text(json.dumps(payload))
        assert load_snapshot(stamped, binary.stripped()) == \
            load_snapshot(path, binary.stripped())


class TestStaleRejection:
    def _tamper(self, path, tmp_path, **overrides):
        payload = read_snapshot(path)
        payload.update(overrides)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        return tampered

    def test_schema_mismatch_rejected(self, warm_snapshot, tmp_path):
        binary, path, _ = warm_snapshot
        bad = self._tamper(path, tmp_path, schema=SCHEMA_VERSION + 1)
        with pytest.raises(SnapshotError, match="schema"):
            load_snapshot(bad, binary)

    def test_engine_mismatch_rejected(self, warm_snapshot, tmp_path):
        binary, path, _ = warm_snapshot
        bad = self._tamper(path, tmp_path, engine="ancient-kernel-0")
        with pytest.raises(SnapshotError, match="engine"):
            load_snapshot(bad, binary)

    def test_v1_payload_rejected(self, warm_snapshot, tmp_path):
        """A schema-1 file (pre-edge-profile) must be rejected, not
        half-loaded without its trace heat."""
        binary, path, _ = warm_snapshot
        payload = read_snapshot(path)
        del payload["edge_profile"]
        payload["schema"] = 1
        bad = tmp_path / "v1.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="missing field"):
            load_snapshot(bad, binary)

    def test_digest_mismatch_rejected(self, warm_snapshot, tmp_path):
        binary, path, _ = warm_snapshot
        bad = self._tamper(path, tmp_path, binary="00" * 32)
        with pytest.raises(SnapshotError, match="different binary"):
            load_snapshot(bad, binary)

    def test_garbage_rejected(self, browser, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_bytes(b"\xffnot a snapshot")
        with pytest.raises(SnapshotError, match="JSON"):
            load_snapshot(path, browser.stripped())

    def test_missing_file_rejected(self, browser, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "absent.json", browser.stripped())

    def test_corrupt_block_entry_rejected(self, warm_snapshot,
                                          tmp_path):
        """A digest-valid file whose reached entries are not start pcs
        (here an older layout's ``[start, count, truncated]`` extent)
        must still surface as SnapshotError, never a crash."""
        binary, path, _ = warm_snapshot
        payload = read_snapshot(path)
        payload["reached"][0] = [payload["reached"][0], 10 ** 6, False]
        bad = tmp_path / "corrupt.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="malformed"):
            load_snapshot(bad, binary)

    def test_unknown_cached_block_rejected(self, warm_snapshot,
                                           tmp_path):
        binary, path, _ = warm_snapshot
        payload = read_snapshot(path)
        payload["reached"] = list(payload["reached"]) + [999996]
        bad = tmp_path / "unknown.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="unknown blocks"):
            load_snapshot(bad, binary)

    def test_stale_snapshot_fails_launch_loudly(self, warm_snapshot,
                                                tmp_path):
        """The environment rejects a stale snapshot at launch instead
        of silently running cold."""
        binary, path, _ = warm_snapshot
        bad = self._tamper(path, tmp_path, engine="ancient-kernel-0")
        config = EnvironmentConfig.bare()
        config.load_snapshot = str(bad)
        environment = ManagedEnvironment(binary, config)
        with pytest.raises(SnapshotError):
            environment.run(evaluation_pages()[0])

    def test_engine_version_is_pinned(self):
        """Bumping the kernel generation must be a conscious act: this
        string gates every snapshot ever written."""
        assert ENGINE_VERSION == "superblock-trace-3"
        assert SCHEMA_VERSION == 3


class TestCommunityWarmStart:
    @pytest.mark.parametrize("transport", ["in-process", "process"])
    def test_warm_members_learn_bit_equal_database(self, browser,
                                                   tmp_path,
                                                   transport):
        """Freshly forked workers warm-started from a shared snapshot
        learn the bit-identical merged database a cold community does,
        on both transports."""
        pages = learning_pages()[:6]
        binary = browser.stripped()
        config = EnvironmentConfig.full()
        config.reuse_cache = True
        scout = ManagedEnvironment(binary, config)
        for page in pages:
            scout.run(page)
        path = tmp_path / "community.json"
        save_snapshot(path, scout.last_code_cache)

        def fingerprint(community_config) -> str:
            with CommunityManager(browser, members=3,
                                  config=community_config,
                                  transport=transport) as manager:
                report = manager.learn_distributed(pages)
                return json.dumps(report.database.to_dict(),
                                  separators=(",", ":"))

        warm_config = EnvironmentConfig.full()
        warm_config.load_snapshot = str(path)
        cold = fingerprint(EnvironmentConfig.full())
        warm = fingerprint(warm_config)
        assert cold == warm

    def test_warm_episode_produces_identical_patches(self, browser,
                                                     tmp_path):
        """A full attack episode from a warm start deploys the same
        patches with the same verdicts as a cold one."""
        from repro.redteam import exploit

        pages = learning_pages()
        binary = browser.stripped()
        config = EnvironmentConfig.full()
        config.reuse_cache = True
        scout = ManagedEnvironment(binary, config)
        for page in pages:
            scout.run(page)
        path = tmp_path / "episode.json"
        save_snapshot(path, scout.last_code_cache)

        def episode(community_config):
            with CommunityManager(browser, members=2,
                                  config=community_config) as manager:
                manager.learn_distributed(pages)
                manager.protect()
                item = exploit("gc-collect")
                presentations = 0
                outcome = None
                for _ in range(10):
                    presentations += 1
                    outcome = manager.attack(item.page()).outcome
                    if outcome is Outcome.COMPLETED:
                        break
                patches = [member.applied_patches()
                           for member in manager.members if member.alive]
                return presentations, outcome, patches

        warm_config = EnvironmentConfig.full()
        warm_config.load_snapshot = str(path)
        assert episode(EnvironmentConfig.full()) == episode(warm_config)


class TestCrashSafeSave:
    """``save_snapshot`` writes via a temp file + ``os.replace``: a
    writer killed mid-save can never leave a truncated snapshot where a
    valid one stood."""

    def test_failed_replace_preserves_the_prior_snapshot(
            self, warm_snapshot, monkeypatch):
        import os

        binary, path, cache = warm_snapshot
        before = path.read_bytes()

        def exploding_replace(src, dst):
            raise OSError("simulated crash mid-rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="mid-rename"):
            save_snapshot(path, cache, binary)
        monkeypatch.undo()
        # The prior snapshot is byte-for-byte intact, still loads, and
        # the aborted attempt left no temp litter behind.
        assert path.read_bytes() == before
        load_snapshot(path, binary)
        assert [stray.name for stray in path.parent.iterdir()] == \
            [path.name]

    def test_truncated_temp_sibling_never_shadows_the_snapshot(
            self, warm_snapshot):
        """A writer killed between temp-write and rename leaves only a
        ``.tmp`` sibling; readers of the real path are unaffected."""
        binary, path, _ = warm_snapshot
        stray = path.parent / (path.name + ".dead1234.tmp")
        stray.write_bytes(path.read_bytes()[:37])  # truncated mid-JSON
        assert load_snapshot(path, binary)  # the real snapshot, whole
        with pytest.raises(SnapshotError):
            read_snapshot(stray)  # the litter itself is rejected

    def test_save_overwrites_atomically_in_place(self, warm_snapshot):
        binary, path, cache = warm_snapshot
        inode_before = path.stat().st_ino
        save_snapshot(path, cache, binary)
        assert path.stat().st_ino != inode_before  # rename, not rewrite
        load_snapshot(path, binary)
