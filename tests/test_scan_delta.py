"""Incremental (delta) re-scans and the churned world model.

Pins the contract the delta engine is built on: churn is a pure
function of ``(seed, day)``, unchurned ranks stay byte-identical to the
pristine world, a delta re-scan merges to exactly the digest of a
from-scratch full scan of the evolved world, and the persisted baseline
survives save/load round-trips while rejecting corruption loudly.
"""

import json

import pytest

from repro.doctor import KIND_SCAN_BASELINE, diagnose_file
from repro.ecosystem import (
    ScanBaseline,
    WorldEvolution,
    WorldModel,
    build_scan_baseline,
    delta_scan,
    world_range_digest,
)
from repro.ecosystem.delta import SCAN_BASELINE_FORMAT, _width_ranges
from repro.ecosystem.world import _generated_count
from repro.experiment import run_sharded_scan
from repro.util.errors import CheckpointCorruptError, CheckpointMismatchError

SEED = 606
MAX_RANK = 600
RATE = 0.004


def _churn(days):
    return WorldEvolution(SEED, MAX_RANK, RATE).generations(days)


class TestChurnSchedule:
    def test_day_events_deterministic(self):
        schedule = WorldEvolution(SEED, MAX_RANK, RATE)
        assert schedule.day_events(1) == schedule.day_events(1)
        assert schedule.day_events(1) != schedule.day_events(2)

    def test_generations_accumulate_across_days(self):
        """The day-N map is the sum of day 1..N event sets."""
        schedule = WorldEvolution(SEED, MAX_RANK, RATE)
        by_hand = {}
        for day in (1, 2, 3):
            for rank in schedule.day_events(day):
                by_hand[rank] = by_hand.get(rank, 0) + 1
        assert schedule.generations(3) == by_hand

    def test_zero_days_or_rate_is_pristine(self):
        assert WorldEvolution(SEED, MAX_RANK, RATE).generations(0) == {}
        assert WorldEvolution(SEED, MAX_RANK, 0.0).generations(50) == {}

    def test_bad_arguments_raise(self):
        with pytest.raises(ValueError):
            WorldEvolution(SEED, 0, RATE)
        with pytest.raises(ValueError):
            WorldEvolution(SEED, MAX_RANK, 1.5)
        with pytest.raises(ValueError):
            WorldEvolution(SEED, MAX_RANK, RATE).day_events(0)
        with pytest.raises(ValueError):
            WorldEvolution(SEED, MAX_RANK, RATE).generations(-1)

    def test_unchurned_ranks_are_byte_identical(self):
        """Generation-0 ranks scan identically in churned and pristine
        worlds — the property range reuse rests on."""
        churn = _churn(3)
        assert churn, "expected some churn at this rate"
        pristine = WorldModel(SEED)
        evolved = WorldModel(SEED, churn=churn)
        changed = identical = 0
        for rank in range(1, 101):
            a = pristine.scan_ranks(rank, rank + 1, max_rank=MAX_RANK)
            b = evolved.scan_ranks(rank, rank + 1, max_rank=MAX_RANK)
            if rank in churn:
                changed += 1
            else:
                identical += 1
                assert a.digest() == b.digest(), f"rank {rank} drifted"
        assert identical > 0

    def test_churned_rank_rerolls_its_grid(self):
        """At least one churned rank in the head changes its scan."""
        churn = {rank: 1 for rank in range(1, 51)}
        pristine = WorldModel(SEED)
        evolved = WorldModel(SEED, churn=churn)
        a = pristine.scan_ranks(1, 51, max_rank=MAX_RANK)
        b = evolved.scan_ranks(1, 51, max_rank=MAX_RANK)
        assert a.digest() != b.digest()


class TestWorldRangeDigest:
    def test_covers_only_events_inside_the_range(self):
        base = world_range_digest(SEED, 1, 100, {})
        assert world_range_digest(SEED, 1, 100, {500: 2}) == base
        assert world_range_digest(SEED, 1, 100, {50: 1}) != base

    def test_sensitive_to_generation_and_bounds(self):
        assert (world_range_digest(SEED, 1, 100, {50: 1})
                != world_range_digest(SEED, 1, 100, {50: 2}))
        assert (world_range_digest(SEED, 1, 100, {})
                != world_range_digest(SEED, 1, 101, {}))


class TestDeltaScan:
    def test_baseline_total_equals_full_scan(self):
        baseline = build_scan_baseline(SEED, MAX_RANK, range_width=50,
                                       churn_rate=RATE)
        full = run_sharded_scan(SEED, MAX_RANK)
        assert baseline.total_digest() == full.digest()

    def test_delta_equals_full_scan_of_evolved_world(self):
        """The headline property: delta(baseline@0, day) is
        byte-identical to a from-scratch scan of the day-N world."""
        baseline = build_scan_baseline(SEED, MAX_RANK, range_width=50,
                                       churn_rate=RATE)
        delta = delta_scan(baseline, 3)
        full = run_sharded_scan(SEED, MAX_RANK,
                                churn=tuple(sorted(_churn(3).items())))
        assert delta.aggregates.digest() == full.digest()
        assert delta.ranges_reused + delta.ranges_rescanned == len(
            baseline.ranges)
        assert delta.ranges_reused > 0, (
            "at this rate some ranges must be clean — the delta "
            "otherwise degenerates to a full scan")
        assert delta.ranges_rescanned > 0

    def test_delta_chains_across_days(self):
        """Evolving day 0 -> 2 -> 5 equals evolving 0 -> 5 directly."""
        baseline = build_scan_baseline(SEED, MAX_RANK, range_width=50,
                                       churn_rate=RATE)
        stepped = delta_scan(delta_scan(baseline, 2).baseline, 5)
        direct = delta_scan(baseline, 5)
        assert stepped.aggregates.digest() == direct.aggregates.digest()
        assert (stepped.baseline.canonical_dict()
                == direct.baseline.canonical_dict())

    def test_no_churn_reuses_everything(self):
        baseline = build_scan_baseline(SEED, MAX_RANK, range_width=50,
                                       churn_rate=RATE)
        delta = delta_scan(baseline, 0)
        assert delta.ranges_rescanned == 0
        assert delta.aggregates.digest() == baseline.total_digest()

    def test_config_mismatch_is_loud(self):
        from repro.ecosystem import InternetConfig

        baseline = build_scan_baseline(SEED, 100, range_width=50)
        with pytest.raises(CheckpointMismatchError):
            delta_scan(baseline, 1,
                       config=InternetConfig(num_filler_targets=7))

    def test_parallel_delta_matches_serial(self):
        baseline = build_scan_baseline(SEED, MAX_RANK, range_width=50,
                                       churn_rate=RATE)
        serial = delta_scan(baseline, 3)
        parallel = delta_scan(baseline, 3, jobs=2)
        assert serial.aggregates.digest() == parallel.aggregates.digest()


class TestScanBaselinePersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        baseline = build_scan_baseline(SEED, 200, range_width=64)
        baseline.save(path)
        loaded = ScanBaseline.load(path)
        assert loaded == baseline
        assert loaded.total_digest() == baseline.total_digest()

    def test_torn_file_is_corrupt_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        baseline = build_scan_baseline(SEED, 200, range_width=64)
        baseline.save(path)
        path.write_text(path.read_text()[:80])
        with pytest.raises(CheckpointCorruptError):
            ScanBaseline.load(path)

    def test_wrong_format_tag_is_mismatch_error(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"format": "something-else@9"}))
        with pytest.raises(CheckpointMismatchError):
            ScanBaseline.load(path)

    def test_tampered_range_fails_its_digest(self, tmp_path):
        path = tmp_path / "baseline.json"
        build_scan_baseline(SEED, 200, range_width=64).save(path)
        data = json.loads(path.read_text())
        data["ranges"][0]["aggregates"]["registered_count"] += 1
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointCorruptError):
            ScanBaseline.load(path)

    def test_tampered_total_fails_the_merged_digest(self, tmp_path):
        path = tmp_path / "baseline.json"
        build_scan_baseline(SEED, 200, range_width=64).save(path)
        data = json.loads(path.read_text())
        data["total_digest"] = "0" * 64
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointCorruptError):
            ScanBaseline.load(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "baseline.json"
        build_scan_baseline(SEED, 100, range_width=50).save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["baseline.json"]


class TestDoctorScanBaseline:
    def test_healthy_baseline(self, tmp_path):
        path = tmp_path / "scan_baseline.json"
        build_scan_baseline(SEED, 200, range_width=64).save(path)
        diagnosis = diagnose_file(path)
        assert diagnosis.ok
        assert diagnosis.kind == KIND_SCAN_BASELINE
        assert diagnosis.details["ranges"] == len(_width_ranges(200, 64))

    def test_detection_beats_scan_checkpoint_heuristic(self, tmp_path):
        """The baseline has seed/max_rank too; the format tag must win
        over the scan-checkpoint shape test."""
        path = tmp_path / "ambiguous.json"
        baseline = build_scan_baseline(SEED, 100, range_width=50)
        data = baseline.canonical_dict()
        data["shards"] = {}  # adversarial: also matches the checkpoint shape
        path.write_text(json.dumps(data))
        assert diagnose_file(path).kind == KIND_SCAN_BASELINE

    def test_corrupt_baseline_exits_three(self, tmp_path):
        from repro.doctor import exit_code_for
        from repro.util.errors import EXIT_CORRUPT_CHECKPOINT

        path = tmp_path / "scan_baseline.json"
        build_scan_baseline(SEED, 100, range_width=50).save(path)
        data = json.loads(path.read_text())
        data["ranges"][0]["world_digest"] = data["ranges"][0]["world_digest"]
        data["total_digest"] = "f" * 64
        path.write_text(json.dumps(data))
        diagnosis = diagnose_file(path)
        assert not diagnosis.ok
        assert exit_code_for([diagnosis]) == EXIT_CORRUPT_CHECKPOINT

    def test_format_constant_matches_artifact(self, tmp_path):
        path = tmp_path / "scan_baseline.json"
        build_scan_baseline(SEED, 100, range_width=50).save(path)
        assert json.loads(path.read_text())["format"] == SCAN_BASELINE_FORMAT


class TestFastPathsMatchReference:
    def test_is_target_domain_matches_target_names(self):
        """The O(1) membership law agrees with the materialized set."""
        world = WorldModel(SEED)
        names = world.target_names(500)
        for name in list(names)[:300]:
            assert world.is_target_domain(name, 500)
        # names beyond the horizon, non-.com, malformed indexes
        assert not world.is_target_domain(world.target_domain(501), 500)
        assert not world.is_target_domain("nope.example", 500)
        assert not world.is_target_domain("ab1.com", 500)
        for rank in (1, 21, 22, 100, 499, 500):
            assert world.is_target_domain(world.target_domain(rank), 500)

    def test_is_target_domain_rejects_leading_zero_aliases(self):
        """bavu007.com must not alias bavu7.com — the index must
        round-trip through the canonical decimal spelling."""
        world = WorldModel(SEED)
        name = world.target_domain(100)
        label = name[:-4]
        stem = label.rstrip("0123456789")
        digits = label[len(stem):]
        if digits:
            padded = f"{stem}0{digits}.com"
            assert not world.is_target_domain(padded, 10_000)

    def test_filler_chunk_counts_match_generated_count(self):
        """The closed-form per-name gtypo count equals the enumerator's."""
        world = WorldModel(SEED)
        names, counts = world._chunk(0)
        for name, count in list(zip(names, counts))[:64]:
            assert count == _generated_count(name[:-4])
