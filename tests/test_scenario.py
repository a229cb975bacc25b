"""The living-internet scenario package: events, timeline, driver.

The acceptance contract: every draw is a pure hash of ``(seed, event,
day)``, so a ``(seed, scenario)`` pair replays byte-identically at any
``--jobs``; an empty scenario compiles to a world whose generations map
is always ``{}`` (today's static world); the persisted artifact follows
the repo's discipline (format tag, self-digest, atomic save, doctor
validation with the taxonomy's exit codes).
"""

import json

import pytest

from repro.doctor import diagnose_file, exit_code_for
from repro.ecosystem.delta import WorldEvent, WorldEvolution
from repro.scenario import (
    BUILTIN_METRICS,
    EcosystemEvent,
    Scenario,
    ScenarioDriver,
    drift_drill_scenario,
)
from repro.util.errors import (
    EXIT_BAD_INPUT,
    EXIT_CORRUPT_CHECKPOINT,
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigError,
)

SEED = 314


def _scenario(**overrides):
    params = dict(seed=SEED, name="unit", max_rank=500, events=(
        EcosystemEvent(kind="churn_burst", day=1, name="burst",
                       rank_lo=100, rank_hi=500, rate=0.1),
        EcosystemEvent(kind="defensive_registration", day=2,
                       name="defend", rank_lo=1, rank_hi=40, rate=0.5),
        EcosystemEvent(kind="squatter_campaign", day=3, name="campaign",
                       pool_size=50, evasion_bias=0.8),
    ), metrics=("registered_fraction", "defended_ranks",
                "active_campaigns"))
    params.update(overrides)
    return Scenario(**params)


class TestEventSchema:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario event"):
            EcosystemEvent(kind="meteor_strike", day=1, name="boom")

    def test_campaigns_need_a_pool(self):
        with pytest.raises(ConfigError, match="pool_size"):
            EcosystemEvent(kind="squatter_campaign", day=1, name="c")

    def test_days_are_one_based(self):
        with pytest.raises(ConfigError, match="1-based"):
            EcosystemEvent(kind="churn_burst", day=0, name="b", rate=0.1)

    def test_dict_round_trip(self):
        event = EcosystemEvent(kind="squatter_campaign", day=4, name="c",
                               pool_size=80, evasion_bias=0.7,
                               retrain=True)
        assert EcosystemEvent.from_dict(event.to_dict()) == event

    def test_churned_ranks_match_the_world_event_hash_law(self):
        event = EcosystemEvent(kind="churn_burst", day=1, name="burst",
                               rank_lo=10, rank_hi=200, rate=0.2)
        world = WorldEvent(name="burst", day=1, rank_lo=10, rank_hi=200,
                           rate=0.2)
        assert event.churned_ranks(SEED) == world.churned_ranks(SEED)
        assert event.churned_ranks(SEED) == event.churned_ranks(SEED)
        assert all(10 <= rank <= 200
                   for rank in event.churned_ranks(SEED))

    def test_rate_extremes(self):
        full = WorldEvent(name="x", day=1, rank_lo=5, rank_hi=9, rate=1.0)
        assert full.churned_ranks(SEED) == [5, 6, 7, 8, 9]
        off = EcosystemEvent(kind="churn_burst", day=1, name="x",
                             rank_lo=5, rank_hi=9, rate=0.0)
        assert off.churned_ranks(SEED) == []

    def test_campaigns_do_not_touch_the_world(self):
        campaign = EcosystemEvent(kind="squatter_campaign", day=1,
                                  name="c", pool_size=10)
        assert not campaign.touches_world
        assert campaign.churned_ranks(SEED) == []


class TestScenarioArtifact:
    def test_duplicate_event_names_are_rejected(self):
        event = EcosystemEvent(kind="churn_burst", day=1, name="dup",
                               rate=0.1)
        with pytest.raises(ConfigError, match="unique"):
            Scenario(seed=SEED, name="s", max_rank=100,
                     events=(event, event))

    def test_events_beyond_max_rank_are_rejected(self):
        with pytest.raises(ConfigError, match="beyond"):
            Scenario(seed=SEED, name="s", max_rank=100, events=(
                EcosystemEvent(kind="churn_burst", day=1, name="b",
                               rank_lo=1, rank_hi=101, rate=0.1),))

    def test_save_load_round_trip(self, tmp_path):
        scenario = _scenario()
        path = tmp_path / "scenario.json"
        scenario.save(path)
        loaded = Scenario.load(path)
        assert loaded == scenario
        assert loaded.digest() == scenario.digest()

    def test_torn_file_is_corrupt_exit_3(self, tmp_path):
        path = tmp_path / "scenario.json"
        _scenario().save(path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(CheckpointCorruptError):
            Scenario.load(path)

    def test_edited_file_fails_its_digest(self, tmp_path):
        path = tmp_path / "scenario.json"
        _scenario().save(path)
        data = json.loads(path.read_text())
        data["churn_rate"] = 0.9
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointCorruptError, match="digest"):
            Scenario.load(path)

    def test_wrong_format_tag_is_a_mismatch(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"format": "repro-scenario@99"}))
        with pytest.raises(CheckpointMismatchError):
            Scenario.load(path)

    def test_unknown_event_kind_is_config_error(self, tmp_path):
        payload = _scenario().to_dict()
        payload["events"][0]["kind"] = "meteor_strike"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="meteor_strike"):
            Scenario.load(path)


class TestWorldCompilation:
    def test_empty_scenario_is_the_static_world(self):
        empty = Scenario(seed=SEED, name="static", max_rank=300)
        assert empty.is_empty
        evolution = empty.world_evolution()
        assert evolution.generations(0) == {}
        for day in (1, 30, 365):
            assert evolution.generations(day) == {}
            assert evolution.day_events(day) == []

    def test_background_churn_matches_the_plain_schedule(self):
        scenario = Scenario(seed=SEED, name="churny", max_rank=300,
                            churn_rate=0.02)
        evolution = scenario.world_evolution()
        schedule = WorldEvolution(SEED, 300, 0.02)
        for day in (1, 5, 20):
            assert evolution.generations(day) == schedule.generations(day)

    def test_campaigns_are_not_compiled_into_world_events(self):
        evolution = _scenario().world_evolution()
        assert isinstance(evolution, WorldEvolution)
        assert {event.name for event in evolution.events} == \
            {"burst", "defend"}

    def test_event_generations_land_on_their_day(self):
        evolution = _scenario().world_evolution()
        before = evolution.generations(0)
        after = evolution.generations(1)
        assert before == {}
        burst = _scenario().events[0]
        assert set(after) == set(burst.churned_ranks(SEED))


class TestScenarioDriver:
    def test_replay_is_byte_identical(self):
        first = ScenarioDriver(_scenario())
        second = ScenarioDriver(_scenario())
        first.run(6)
        second.run(6)
        assert first.timeline_digest() == second.timeline_digest()
        assert first.samples == second.samples

    def test_state_round_trips_mid_run(self):
        reference = ScenarioDriver(_scenario())
        reference.run(6)
        partial = ScenarioDriver(_scenario())
        partial.run(3)
        resumed = ScenarioDriver(_scenario())
        resumed.restore_state(partial.state_dict())
        resumed.run(3)
        assert resumed.timeline_digest() == reference.timeline_digest()

    def test_defensive_bookkeeping_matches_the_hash_law(self):
        scenario = _scenario()
        driver = ScenarioDriver(scenario)
        driver.run(2)
        defend = scenario.events[1]
        assert driver.defended == sorted(defend.churned_ranks(SEED))

    def test_metrics_sample_at_event_boundaries(self):
        driver = ScenarioDriver(_scenario())
        samples = driver.run(3)
        assert [s["events"] for s in samples] == \
            [["burst"], ["defend"], ["campaign"]]
        assert samples[2]["metrics"]["active_campaigns"] == 1
        assert samples[1]["metrics"]["defended_ranks"] == \
            len(driver.defended)
        assert 0 < samples[0]["metrics"]["registered_fraction"] < 1

    def test_user_defined_metrics_ride_along(self):
        driver = ScenarioDriver(
            _scenario(),
            extra_metrics={"day_squared": lambda d, day: day * day})
        sample = driver.step()
        assert sample["metrics"]["day_squared"] == 1

    def test_unknown_metric_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario metric"):
            ScenarioDriver(_scenario(metrics=("coolness",)))

    def test_metric_name_collision_is_rejected(self):
        with pytest.raises(ConfigError, match="twice"):
            ScenarioDriver(
                _scenario(),
                extra_metrics={"defended_ranks": lambda d, day: 0})

    def test_builtin_metric_registry_is_complete(self):
        assert {"registered_fraction", "defended_ranks",
                "active_campaigns"} <= set(BUILTIN_METRICS)


class TestDriftDrillScenario:
    def test_drill_shape(self):
        scenario = drift_drill_scenario(SEED)
        kinds = [event.kind for event in scenario.events]
        assert kinds == ["churn_burst", "defensive_registration",
                         "squatter_campaign"]
        assert scenario.events[2].retrain
        assert scenario.last_event_day() == 2

    def test_drill_digest_is_seed_keyed(self):
        assert drift_drill_scenario(1).digest() != \
            drift_drill_scenario(2).digest()
        assert drift_drill_scenario(1).digest() == \
            drift_drill_scenario(1).digest()


class TestDoctorScenarioKind:
    def test_healthy_scenario_passes(self, tmp_path):
        path = tmp_path / "scenario.json"
        drift_drill_scenario(SEED).save(path)
        diagnosis = diagnose_file(path)
        assert diagnosis.ok and diagnosis.kind == "scenario"
        assert diagnosis.details["events"] == 3
        assert exit_code_for([diagnosis]) == 0

    def test_torn_scenario_exits_3(self, tmp_path):
        path = tmp_path / "my-scenario.json"
        drift_drill_scenario(SEED).save(path)
        path.write_text(path.read_text()[:25])
        diagnosis = diagnose_file(path)
        assert not diagnosis.ok and diagnosis.kind == "scenario"
        assert exit_code_for([diagnosis]) == EXIT_CORRUPT_CHECKPOINT

    def test_unknown_event_kind_exits_2_with_one_line(self, tmp_path):
        payload = drift_drill_scenario(SEED).to_dict()
        payload["events"][0]["kind"] = "meteor_strike"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload))
        diagnosis = diagnose_file(path)
        assert not diagnosis.ok and diagnosis.kind == "scenario"
        assert len(diagnosis.problems) == 1
        assert "meteor_strike" in diagnosis.problems[0]
        assert exit_code_for([diagnosis]) == EXIT_BAD_INPUT
