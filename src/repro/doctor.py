"""Artifact integrity doctor: validate on-disk run artifacts.

A long campaign leaves a trail of durable files — study checkpoints,
scan checkpoints, delta-scan baselines, risk indexes, typo models,
scenarios, fault plans and the performance baseline — and each of them
can rot: torn writes from a crash mid-save, manual edits, copies from a
different run.  ``repro doctor`` examines each file, detects what kind
of artifact it is, and validates it, reporting problems through the
:mod:`repro.util.errors` taxonomy instead of raw tracebacks.

Every kind is one :class:`DoctorKind` entry in :data:`REGISTRY`: how to
recognize it (a format tag or a shape rule), the loader the runtime
itself uses, a filename hint for files too torn to parse, and the
details worth printing.  Because the loader is the engine's own, a file
the doctor passes is a file the engine will accept — there is no
second, drifting schema.  Adding a kind means adding one entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.ecosystem.delta import SCAN_BASELINE_FORMAT, ScanBaseline
from repro.experiment.checkpoint import (
    STUDY_CHECKPOINT_FORMAT,
    StudyCheckpoint,
)
from repro.experiment.parallel import ScanCheckpoint
from repro.faultsim.plan import FaultPlan
from repro.learned.model import LEARNED_MODEL_FORMAT, load_model
from repro.scenario.timeline import SCENARIO_FORMAT, Scenario
from repro.service.index import RISK_INDEX_FORMAT, TypoRiskIndex
from repro.util.errors import (
    EXIT_BAD_INPUT,
    EXIT_CORRUPT_CHECKPOINT,
    ConfigError,
    ReproError,
)

__all__ = ["Diagnosis", "DoctorKind", "REGISTRY", "diagnose_file",
           "diagnose_paths", "exit_code_for"]

#: artifact kinds :func:`diagnose_file` can identify
KIND_STUDY_CHECKPOINT = "study-checkpoint"
KIND_SCAN_CHECKPOINT = "scan-checkpoint"
KIND_SCAN_BASELINE = "scan-baseline"
KIND_FAULT_PLAN = "fault-plan"
KIND_PERF_BASELINE = "perf-baseline"
KIND_RISK_INDEX = "risk-index"
KIND_TYPO_MODEL = "typo-model"
KIND_SCENARIO = "scenario"
KIND_UNKNOWN = "unknown"


@dataclass
class Diagnosis:
    """One examined file: what it is and whether it is healthy."""

    path: Path
    kind: str
    ok: bool
    problems: List[str] = field(default_factory=list)
    #: small artifact facts worth showing (day counts, digests, shards…)
    details: Dict[str, object] = field(default_factory=dict)
    #: the taxonomy exit code this failure maps to (0 when healthy)
    exit_code: int = 0

    def summary_line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        extra = ""
        if self.ok and self.details:
            extra = " (" + ", ".join(f"{key}={value}" for key, value
                                     in sorted(self.details.items())) + ")"
        elif self.problems:
            extra = f": {self.problems[0]}"
        return f"{status:4s} {self.kind:17s} {self.path}{extra}"


@dataclass(frozen=True)
class DoctorKind:
    """One artifact kind the doctor recognizes and validates."""

    kind: str
    #: the loader the runtime uses; raises only :class:`ReproError`
    load: Callable[[Path], object]
    #: facts worth printing about a healthy loaded artifact
    details: Callable[[object], Dict[str, object]]
    #: the ``format`` tag that identifies the kind ...
    format_tag: Optional[str] = None
    #: ... or, for untagged kinds, a rule over the parsed JSON object
    shape: Optional[Callable[[Dict], bool]] = None
    #: filename substrings that identify a file too torn to parse
    name_hints: Tuple[str, ...] = ()
    #: exit code for such a torn file: durable state (3) or input (2)
    torn_exit: int = EXIT_CORRUPT_CHECKPOINT

    def matches(self, data: Dict) -> bool:
        if self.format_tag is not None:
            return data.get("format") == self.format_tag
        return self.shape(data)


def diagnose_file(path: Union[str, Path]) -> Diagnosis:
    """Identify and validate one artifact file."""
    path = Path(path)
    if not path.exists():
        return _failure(path, KIND_UNKNOWN, "file does not exist",
                        EXIT_BAD_INPUT)
    if not path.is_file():
        return _failure(path, KIND_UNKNOWN, "not a regular file",
                        EXIT_BAD_INPUT)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        # can't even parse it, so kind detection falls back to the
        # filename; a torn checkpoint should still exit 3
        entry = next((entry for entry in REGISTRY
                      if any(hint in path.name.lower()
                             for hint in entry.name_hints)), None)
        return _failure(
            path, entry.kind if entry else KIND_UNKNOWN,
            f"not valid JSON ({error}); the file is torn or truncated",
            entry.torn_exit if entry else EXIT_BAD_INPUT)
    if not isinstance(data, dict):
        return _failure(path, KIND_UNKNOWN, "JSON root is not an object",
                        EXIT_BAD_INPUT)
    entry = next((entry for entry in REGISTRY if entry.matches(data)), None)
    if entry is None:
        return _failure(path, KIND_UNKNOWN,
                        "not a recognized repro artifact (" +
                        ", ".join(entry.kind for entry in REGISTRY) + ")",
                        EXIT_BAD_INPUT)
    try:
        artifact = entry.load(path)
    except ReproError as error:
        return _failure(path, entry.kind, str(error), error.exit_code)
    return Diagnosis(path=path, kind=entry.kind, ok=True,
                     details=entry.details(artifact))


def diagnose_paths(paths) -> List[Diagnosis]:
    return [diagnose_file(path) for path in paths]


def exit_code_for(diagnoses: List[Diagnosis]) -> int:
    """The doctor's process exit code: the worst finding wins.

    Corrupt checkpoints (3) outrank bad input files (2) outrank healthy
    (0) — a supervisor script keying on the exit code learns the most
    severe category it must deal with.
    """
    codes = [d.exit_code for d in diagnoses if not d.ok]
    if not codes:
        return 0
    if EXIT_CORRUPT_CHECKPOINT in codes:
        return EXIT_CORRUPT_CHECKPOINT
    return max(codes)


def _failure(path: Path, kind: str, problem: str, code: int) -> Diagnosis:
    return Diagnosis(path=path, kind=kind, ok=False, problems=[problem],
                     exit_code=code)


# -- the registry --------------------------------------------------------------


def _load_perf_baseline(path: Path) -> Dict:
    """The ``baseline`` block of a ``BENCH_perf.json``, shape-checked."""
    try:
        baseline = json.loads(path.read_text(encoding="utf-8"))["baseline"]
        study = baseline["study"]
        for key in ("wall_seconds", "emails_sent", "records"):
            if not study[key] >= 0:
                raise ValueError(f"baseline.study.{key} is negative")
        for section in ("scan", "streaming_scan"):
            block = baseline.get(section)
            if block is not None and not isinstance(block, dict):
                raise ValueError(f"baseline.{section} is not an object")
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise ConfigError(f"invalid perf baseline {path} "
                          f"({type(error).__name__}: {error})") from error
    return baseline


_PLAN_KEYS = {"collector_outages", "dns_spells", "smtp_spells",
              "shard_crashes", "study_crashes", "service_spells", "retry"}

#: every kind the doctor knows; format-tagged kinds come first because
#: the shape rules below them test generic keys such as ``seed``
REGISTRY: Tuple[DoctorKind, ...] = (
    DoctorKind(
        KIND_SCENARIO, Scenario.load,
        lambda scenario: {"seed": scenario.seed, "name": scenario.name,
                          "events": len(scenario.events),
                          "last_day": scenario.last_event_day(),
                          "digest": scenario.digest()[:12]},
        format_tag=SCENARIO_FORMAT, name_hints=("scenario",)),
    DoctorKind(
        KIND_STUDY_CHECKPOINT, lambda path: StudyCheckpoint(path).load(),
        lambda payload: {"next_day": payload["next_day"],
                         "mode": payload["state"].get("mode"),
                         "sent": payload["state"].get("sent"),
                         "digest": str(payload["payload_sha256"])[:12]},
        format_tag=STUDY_CHECKPOINT_FORMAT,
        # a torn study or scan checkpoint can't be told apart by name;
        # either way the remedy (and exit code) is the same
        name_hints=("ckpt", "checkpoint")),
    DoctorKind(
        KIND_SCAN_BASELINE, ScanBaseline.load,
        lambda baseline: {"seed": baseline.seed,
                          "max_rank": baseline.max_rank,
                          "day": baseline.day,
                          "ranges": len(baseline.ranges),
                          "digest": baseline.total_digest()[:12]},
        format_tag=SCAN_BASELINE_FORMAT, name_hints=("baseline",)),
    DoctorKind(
        KIND_RISK_INDEX, TypoRiskIndex.load,
        lambda index: {"seed": index.seed, "max_rank": index.max_rank,
                       "day": index.day,
                       "head_buckets": index.head_bucket_count},
        format_tag=RISK_INDEX_FORMAT, name_hints=("index",)),
    DoctorKind(
        KIND_TYPO_MODEL, load_model,
        lambda model: {"seed": model.seed, "schema": model.schema_version,
                       "stumps": (len(model.domain.stumps)
                                  + len(model.message.stumps)),
                       "digest": model.digest()[:12]},
        format_tag=LEARNED_MODEL_FORMAT, name_hints=("model",)),
    DoctorKind(
        KIND_SCAN_CHECKPOINT, ScanCheckpoint.from_file,
        lambda checkpoint: {"seed": checkpoint.seed,
                            "max_rank": checkpoint.max_rank,
                            "shards_done": checkpoint.completed_count},
        shape=lambda data: {"seed", "max_rank", "shards"} <= set(data)),
    DoctorKind(
        KIND_PERF_BASELINE, _load_perf_baseline,
        lambda baseline: {"sections": len([key for key in baseline
                                           if isinstance(baseline[key],
                                                         dict)])},
        shape=lambda data: isinstance(data.get("baseline"), dict)),
    DoctorKind(
        KIND_FAULT_PLAN, FaultPlan.load,
        lambda plan: {"digest": plan.digest()[:12], "empty": plan.is_empty,
                      "service_spells": len(plan.service_spells)},
        shape=lambda data: "seed" in data and bool(_PLAN_KEYS & set(data)),
        name_hints=("plan",), torn_exit=EXIT_BAD_INPUT),
)
