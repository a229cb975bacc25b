"""The shared artifact envelope and its backward-compatibility pins.

Every durable kind persists through :mod:`repro.util.artifact`; these
tests pin the envelope itself (canonical bytes, self-digest, atomic
write, typed load errors), the compatibility of files written by the
builds before the envelope existed (``tests/fixtures/artifacts``), and
two doctor contracts: a path that is not a regular file is a one-line
failure, and a scan checkpoint must carry an integer identity.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.doctor import REGISTRY, diagnose_file
from repro.ecosystem.delta import ScanBaseline
from repro.experiment import ScanCheckpoint, StudyCheckpoint
from repro.faultsim.plan import FaultPlan
from repro.learned.model import load_model, save_model
from repro.scenario.timeline import Scenario
from repro.service import TypoRiskIndex
from repro.util.artifact import (
    ArtifactKind,
    canonical_json,
    payload_digest,
    read_artifact,
    write_artifact,
)
from repro.util.errors import (
    EXIT_BAD_INPUT,
    EXIT_CORRUPT_CHECKPOINT,
    CheckpointCorruptError,
    CheckpointMismatchError,
)

FIXTURES = Path(__file__).parent / "fixtures" / "artifacts"
EXPECTED = json.loads((FIXTURES / "expected.json").read_text())

TAGGED = ArtifactKind("test artifact", "test-artifact@1",
                      digest_field="digest", remedy="recreate it")
OPTIONAL = ArtifactKind("test input", "test-artifact@1",
                        digest_field="digest", digest_optional=True)


class TestEnvelope:
    def test_write_is_canonical_and_self_digested(self, tmp_path):
        path = tmp_path / "a.json"
        payload = {"format": "test-artifact@1", "b": [1, 2], "a": {"z": 1}}
        digest = write_artifact(path, payload, TAGGED)
        assert digest == payload_digest(payload)
        assert path.read_text() == canonical_json({**payload,
                                                   "digest": digest})
        assert read_artifact(path, TAGGED) == {**payload, "digest": digest}
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_digest_ignores_whitespace(self, tmp_path):
        path = tmp_path / "a.json"
        write_artifact(path, {"format": "test-artifact@1", "x": 1}, TAGGED)
        data = json.loads(path.read_text())
        path.write_text(json.dumps(data, indent=2))
        assert read_artifact(path, TAGGED)["x"] == 1

    def test_edit_fails_the_digest(self, tmp_path):
        path = tmp_path / "a.json"
        write_artifact(path, {"format": "test-artifact@1", "x": 1}, TAGGED)
        path.write_text(path.read_text().replace('"x":1', '"x":2'))
        with pytest.raises(CheckpointCorruptError, match="digest"):
            read_artifact(path, TAGGED)

    def test_foreign_format_is_a_mismatch(self, tmp_path):
        path = tmp_path / "a.json"
        write_artifact(path, {"format": "other@9"}, TAGGED)
        with pytest.raises(CheckpointMismatchError, match="other@9"):
            read_artifact(path, TAGGED)

    @pytest.mark.parametrize("text", ['{"format": "te', "[1, 2]", "\xff"])
    def test_torn_or_non_object_is_unreadable(self, tmp_path, text):
        path = tmp_path / "a.json"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            read_artifact(path, TAGGED)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointCorruptError, match="does not exist"):
            read_artifact(tmp_path / "absent.json", TAGGED)

    def test_optional_digest_may_be_absent_but_not_wrong(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"format": "test-artifact@1", "x": 1}))
        assert read_artifact(path, OPTIONAL)["x"] == 1
        with pytest.raises(CheckpointCorruptError, match="digest"):
            read_artifact(path, TAGGED)
        path.write_text(json.dumps({"format": "test-artifact@1", "x": 1,
                                    "digest": "0" * 64}))
        with pytest.raises(CheckpointCorruptError, match="digest"):
            read_artifact(path, OPTIONAL)

    def test_fsync_lives_in_one_module(self):
        src = Path(__file__).parent.parent / "src"
        owners = sorted(str(path.relative_to(src))
                        for path in src.rglob("*.py")
                        if "os.fsync" in path.read_text())
        assert owners == ["repro/util/artifact.py"]


def _fixture_digest(name: str):
    """The digest each fixture's kind reports, through the new loaders."""
    path = FIXTURES / name
    if name == "study.ckpt":
        return StudyCheckpoint(path).load()["payload_sha256"]
    if name == "scan.ckpt":
        checkpoint = ScanCheckpoint(path, seed=9, max_rank=200)
        return [checkpoint.get(1, 101).digest(),
                checkpoint.get(101, 201).digest()]
    if name == "scan-baseline.json":
        return ScanBaseline.load(path).total_digest()
    if name == "risk.index":
        return TypoRiskIndex.load(path).canonical_dict()["digest"]
    if name == "typo-model.json":
        return load_model(str(path)).digest()
    if name == "scenario.json":
        return Scenario.load(path).digest()
    if name == "plan.json":
        return FaultPlan.load(path).digest()
    return None                      # the perf baseline carries none


class TestCompatibilityFixtures:
    """Files written by the pre-envelope build still load unchanged."""

    def test_one_fixture_per_registry_kind(self):
        assert sorted(entry["kind"] for entry in EXPECTED.values()) == \
            sorted(entry.kind for entry in REGISTRY)
        for name in EXPECTED:
            assert (FIXTURES / name).stat().st_size < 50_000

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_loads_with_the_same_digest(self, name):
        assert _fixture_digest(name) == EXPECTED[name]["digest"]

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_doctor_prints_the_same_line(self, name):
        diagnosis = diagnose_file(FIXTURES / name)
        line = diagnosis.summary_line().replace(str(FIXTURES / name), name)
        assert line == EXPECTED[name]["doctor_line"]

    def test_resaved_fixtures_keep_their_digests(self, tmp_path):
        """Re-saving through the envelope changes at most whitespace."""
        model = load_model(str(FIXTURES / "typo-model.json"))
        assert save_model(model, str(tmp_path / "m.json")) == \
            EXPECTED["typo-model.json"]["digest"]
        index = TypoRiskIndex.load(FIXTURES / "risk.index")
        index.save(tmp_path / "risk.index")
        assert json.loads((tmp_path / "risk.index").read_text()) == \
            json.loads((FIXTURES / "risk.index").read_text())


class TestNotARegularFile:
    """A directory where an artifact should be is a typed error."""

    def test_study_checkpoint_loader(self, tmp_path):
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            StudyCheckpoint(tmp_path).load()

    def test_scan_checkpoint_loader(self, tmp_path):
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            ScanCheckpoint(tmp_path, seed=1, max_rank=10)

    def test_doctor_reports_one_line_and_exits_two(self, tmp_path, capsys):
        diagnosis = diagnose_file(tmp_path)
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_BAD_INPUT
        assert main(["doctor", str(tmp_path)]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 1
        assert captured.out.startswith("FAIL")
        assert "Traceback" not in captured.err


class TestScanCheckpointIdentityTypes:
    """The doctor passes only scan checkpoints the engine accepts."""

    @pytest.mark.parametrize("identity", [
        {"seed": 1, "max_rank": "10"},
        {"seed": "1", "max_rank": 10},
        {"seed": 1, "max_rank": 10.0},
        {"seed": True, "max_rank": 10},
    ])
    def test_non_integer_identity_is_corrupt(self, tmp_path, identity):
        path = tmp_path / "scan.ckpt"
        path.write_text(json.dumps({**identity, "shards": {}}))
        diagnosis = diagnose_file(path)
        assert not diagnosis.ok
        assert diagnosis.exit_code == EXIT_CORRUPT_CHECKPOINT
        with pytest.raises(CheckpointCorruptError, match="non-integer"):
            ScanCheckpoint(path, seed=1, max_rank=10)

    def test_shard_outside_the_universe_is_corrupt(self, tmp_path):
        source = FIXTURES / "scan.ckpt"
        data = json.loads(source.read_text())
        data["shards"]["101-999"] = data["shards"].pop("101-201")
        path = tmp_path / "scan.ckpt"
        path.write_text(json.dumps(data))
        assert diagnose_file(path).exit_code == EXIT_CORRUPT_CHECKPOINT
        with pytest.raises(CheckpointCorruptError, match="outside"):
            ScanCheckpoint(path, seed=9, max_rank=200)

    def test_integer_identity_round_trips(self, tmp_path):
        path = tmp_path / "scan.ckpt"
        path.write_text(json.dumps({"seed": 1, "max_rank": 10,
                                    "shards": {}}))
        assert diagnose_file(path).ok
        assert ScanCheckpoint(path, seed=1, max_rank=10).completed_count == 0
