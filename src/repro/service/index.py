"""Precomputed candidate index for the resident typo-risk query service.

Answering "which targets of the top-``max_rank`` universe sit within one
edit of this domain?" by brute force costs a Damerau-Levenshtein call per
target — a million kernel invocations per lookup at paper scale.  This
module turns that scan inside-out using the two structural facts of the
lazy :class:`~repro.ecosystem.world.WorldModel`:

* the **head targets** (the study's ~20 email providers) are few, so
  their *deletion neighbourhoods* can be inverted at build time into
  ``(suffix, variant) -> ranks`` buckets — the symmetric-delete trick:
  two strings are within DL-1 iff they are equal, one is a deletion of
  the other, or they share a single-character deletion.  A lookup probes
  the query label and each of its deletions (O(len) dict probes) and
  confirms survivors with the linear :func:`within_one_edit` check;
* the **filler targets** obey the world's membership law
  (:meth:`WorldModel.target_rank` — ``<letters><index>.com`` with the
  slot's derived name matching), so the DL<=1 candidates among them are
  found by asking which *slots* a single edit can reach.  An edit that
  leaves the query's trailing digit run behind a non-digit yields a
  label with that same run, so the only filler it can produce is the
  slot the run names; a letter in place of the run's first digit can
  only produce the slot the rest of the run names.  Those edits — most
  of the ~900 single edits of a label — collapse into two
  :func:`within_one_edit` checks against slot labels.  The few edits
  that change the run with digits only are built explicitly, gated by
  the filler shape, and confirmed by the O(1) law: 20-35 law probes
  per lookup on a served mix, down from 130-185 when every single edit
  was enumerated.

Both paths are *pure acceleration*: :meth:`TypoRiskIndex.candidate_ranks`
is pinned equal to :meth:`brute_force_candidate_ranks` — a literal scan
of every materialized target — by the property suite, for arbitrary
query strings (unicode and over-length inputs return empty, never
raise).

The index also derives, lazily and per rank, the set of typo labels the
world actually *registered* (the ctypos), which the risk scorer uses to
escalate live squats over merely-possible typos; churn deltas
(:meth:`apply_delta`) invalidate only the ranks whose generation
changed.  A built index persists as a ``repro-risk-index@1`` artifact
with the same atomic-write + self-digest discipline as the scan
baseline, and ``repro doctor`` validates it through the same loader.
"""

from __future__ import annotations

import re
from pathlib import Path
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.core.distances import damerau_levenshtein, within_one_edit
from repro.core.targets import EMAIL_TARGETS
from repro.core.typogen import apply_edit, split_domain
from repro.ecosystem.delta import WorldEvolution, _config_digest
from repro.ecosystem.internet import InternetConfig
from repro.ecosystem.world import WorldModel
from repro.util.artifact import (
    ArtifactKind,
    corrupt_payload,
    payload_digest,
    read_artifact,
    write_artifact,
)
from repro.util.errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    ConfigError,
)
from repro.util.perf import PerfRegistry

__all__ = ["RISK_INDEX_FORMAT", "TypoRiskIndex", "normalize_query"]

#: artifact format tag; bump when the on-disk schema changes
RISK_INDEX_FORMAT = "repro-risk-index@1"

RISK_INDEX = ArtifactKind("risk index", RISK_INDEX_FORMAT,
                          digest_field="digest",
                          remedy="rebuild it with serve-bench --save-index")

#: fillers are ``<letters><index>``: lowercase letters then digits
_DIGITS = "0123456789"
_FILLER_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz" + _DIGITS)


def normalize_query(query: str) -> str:
    """Canonical lookup form of a raw query string.

    Accepts what mail software actually holds at signup/delivery time:
    an address (``user@gmial.com``), a host with a trailing dot, mixed
    case, stray whitespace.  Never raises — malformed input normalizes
    to something :func:`split_domain` will reject downstream.
    """
    q = query.strip().lower().rstrip(".")
    if "@" in q:
        q = q.rsplit("@", 1)[1]
    return q


def _digit_run_edits(label: str, stem_len: int, shape) -> Set[str]:
    """Filler-shaped single edits of ``label`` that change its digit run
    without bringing in a letter.

    ``label[stem_len:]`` is the trailing digit run.  Only edits at or
    right of the last non-digit can change it: deletions from there
    rightwards, transpositions from one position earlier, and digits
    substituted from there or inserted from the run's start rightwards.
    ``shape`` is the index's filler-shape gate; the label itself is
    left out, its own slot is checked directly.
    """
    length = len(label)
    last = max(stem_len - 1, 0)
    edits = [label[:i] + label[i + 1:] for i in range(last, length)]
    edits.extend(label[:i] + label[i + 1] + label[i] + label[i + 2:]
                 for i in range(max(stem_len - 2, 0), length - 1))
    for i in range(last, length):
        head, tail = label[:i], label[i + 1:]
        edits.extend(head + digit + tail for digit in _DIGITS)
    for i in range(stem_len, length + 1):
        head, tail = label[:i], label[i:]
        edits.extend(head + digit + tail for digit in _DIGITS)
    fullmatch = shape.fullmatch
    shaped = {edit for edit in edits if fullmatch(edit)}
    shaped.discard(label)
    return shaped


class TypoRiskIndex:
    """Inverted DL-1 candidate structures over the lazy world model.

    Construction cost is O(head targets) — independent of ``max_rank``,
    because the filler side of the universe is served by the membership
    law instead of a materialized set.  All retrieval state is a pure
    function of ``(seed, max_rank, config, churn)``.
    """

    def __init__(self, seed: int, max_rank: int, *,
                 config: Optional[InternetConfig] = None,
                 churn: Optional[Dict[int, int]] = None,
                 day: int = 0,
                 perf: Optional[PerfRegistry] = None) -> None:
        if max_rank < 1:
            raise ConfigError("max_rank must be >= 1")
        start = perf_counter()
        self.seed = seed
        self.max_rank = max_rank
        self.day = day
        self._churn: Dict[int, int] = dict(churn) if churn else {}
        self.world = WorldModel(seed, config, churn=self._churn or None)
        self.config = self.world.config
        #: monotone epoch, bumped by every applied delta so resident
        #: engines know to drop memoized verdicts
        self.epoch = 0
        #: lazily derived per-rank registered typo labels (the ctypos)
        self._registered_labels: Dict[int, FrozenSet[str]] = {}

        n_head = min(max_rank, len(EMAIL_TARGETS))
        buckets: Dict[Tuple[str, str], List[int]] = {}
        head_len_max = 0
        for rank in range(1, n_head + 1):
            label, suffix = self.world.target_parts(rank)
            head_len_max = max(head_len_max, len(label))
            variants = {label}
            variants.update(label[:i] + label[i + 1:]
                            for i in range(len(label)))
            for variant in variants:
                buckets.setdefault((suffix, variant), []).append(rank)
        self._head_buckets: Dict[Tuple[str, str], Tuple[int, ...]] = {
            key: tuple(ranks) for key, ranks in buckets.items()}
        #: a query label longer than the longest head label + 1 cannot be
        #: within one edit of any head target
        self._head_len_max = head_len_max
        max_filler_index = max_rank - len(EMAIL_TARGETS) - 1
        width = len(str(max_filler_index)) if max_filler_index >= 0 else 0
        #: longest possible filler label (9-letter stem + widest index),
        #: 0 when the universe has no filler ranks at all
        self._filler_len_max = 9 + width if width else 0
        #: the filler label shape: a 4-9 letter stem then an index of at
        #: most ``width`` digits with no leading zero (``str`` never
        #: prints one) — a *gate*, not the oracle; every surviving probe
        #: is confirmed against the membership law
        self._filler_shape = re.compile(
            rf"[a-z]{{4,9}}(?:0|[1-9][0-9]{{0,{max(width - 1, 0)}}})")
        self.build_seconds = perf_counter() - start
        if perf is not None:
            perf.add_seconds("service.index_build", self.build_seconds)

    # -- identity ----------------------------------------------------------

    def churn_map(self) -> Dict[int, int]:
        """A copy of the index's rank -> generation churn map."""
        return dict(self._churn)

    @property
    def head_bucket_count(self) -> int:
        """How many (suffix, variant) deletion buckets the index holds."""
        return len(self._head_buckets)

    def target_rank(self, domain: str) -> Optional[int]:
        """The domain's rank in this index's universe, or ``None``."""
        return self.world.target_rank(domain, self.max_rank)

    # -- candidate retrieval ----------------------------------------------

    def candidate_ranks(self, domain: str) -> Tuple[int, ...]:
        """Ranks of every target within DL-1 of ``domain`` (same suffix).

        Includes the exact match (distance 0) when ``domain`` is itself
        a target, so the set is literally ``{rank : DL(query, target) <=
        1, same suffix}`` — the contract the brute-force parity suite
        pins.  Unparseable input (no TLD, empty label) returns ``()``.
        """
        try:
            label, suffix = split_domain(normalize_query(domain))
        except ValueError:
            return ()
        return self._candidate_ranks(label, suffix)

    def _candidate_ranks(self, label: str, suffix: str) -> Tuple[int, ...]:
        """:meth:`candidate_ranks` of an already split query."""
        found: Set[int] = set()
        # head targets: symmetric-delete buckets + linear DL<=1 confirm
        if len(label) <= self._head_len_max + 1:
            buckets = self._head_buckets
            world_parts = self.world.target_parts
            probes = [label]
            probes.extend(label[:i] + label[i + 1:]
                          for i in range(len(label)))
            for probe in probes:
                ranks = buckets.get((suffix, probe))
                if not ranks:
                    continue
                for rank in ranks:
                    if rank not in found and within_one_edit(
                            label, world_parts(rank)[0]):
                        found.add(rank)
        if suffix == "com" and self._filler_len_max:
            self._add_filler_ranks(label, found)
        return tuple(sorted(found))

    def _add_filler_ranks(self, label: str, found: Set[int]) -> None:
        """Add the rank of every filler within one edit of ``label``.

        Let ``run`` be the label's trailing digit run.  An edit that
        leaves ``run`` in place behind a non-digit — any edit strictly
        left of the last non-digit, or a letter substituted for it or
        inserted after it — yields a label whose digit run is still
        ``run``, so the only filler it can produce is slot ``int(run)``.
        A letter substituted for the run's first digit can only produce
        slot ``int(run[1:])``, and a letter put anywhere deeper leaves a
        digit in the stem, which no filler has.  All of these collapse
        into a :func:`within_one_edit` check against one of those two
        slots' labels (skipped when the digits are empty, have a leading
        zero or name no slot); the first check also covers the label
        being a filler itself.  Of the remaining edits only those that
        change the run using digits can reach a filler (fillers hold
        nothing but letters and digits); :func:`_digit_run_edits`
        builds them and the membership law confirms each survivor.
        """
        length = len(label)
        if length < 4 or length > self._filler_len_max + 1:
            return
        # a single edit removes/replaces at most one character, so two or
        # more out-of-class characters can never reach a filler label
        if sum(1 for ch in label if ch not in _FILLER_CHARS) >= 2:
            return
        stem_len = len(label.rstrip(_DIGITS))
        run = label[stem_len:]
        parts = self.world.target_parts
        for digits in (run, run[1:]):
            if digits and (digits[0] != "0" or len(digits) == 1):
                rank = len(EMAIL_TARGETS) + int(digits) + 1
                if rank <= self.max_rank and within_one_edit(
                        label, parts(rank)[0]):
                    found.add(rank)
        target_rank = self.world.target_rank
        max_rank = self.max_rank
        for candidate in _digit_run_edits(label, stem_len,
                                          self._filler_shape):
            rank = target_rank(candidate + ".com", max_rank)
            if rank is not None:
                found.add(rank)

    def brute_force_candidate_ranks(self, domain: str) -> Tuple[int, ...]:
        """Reference retrieval: a DL scan over every materialized target.

        The oracle the parity suite compares :meth:`candidate_ranks`
        against — O(max_rank) kernel calls, exact by definition.
        """
        try:
            label, suffix = split_domain(normalize_query(domain))
        except ValueError:
            return ()
        return self._brute_force_candidate_ranks(label, suffix)

    def _brute_force_candidate_ranks(self, label: str,
                                     suffix: str) -> Tuple[int, ...]:
        """:meth:`brute_force_candidate_ranks` of an already split query."""
        out = []
        parts = self.world.target_parts
        for rank in range(1, self.max_rank + 1):
            t_label, t_suffix = parts(rank)
            if t_suffix == suffix and damerau_levenshtein(
                    label, t_label) <= 1:
                out.append(rank)
        return tuple(out)

    # -- registration ground truth ----------------------------------------

    def registered_typo_labels(self, rank: int) -> FrozenSet[str]:
        """The typo labels rank ``rank`` actually registered (its ctypos).

        Derived once per rank from the world's registration grid and
        cached; :meth:`apply_delta` drops exactly the churned entries.
        """
        cached = self._registered_labels.get(rank)
        if cached is None:
            grid = self.world.rank_grid(rank)
            label = grid.label
            decode = grid.decode
            cached = frozenset(
                apply_edit(label, *decode(int(flat)))
                for flat in grid.registered.tolist())
            self._registered_labels[rank] = cached
        return cached

    def is_registered_typo(self, label: str, rank: int) -> bool:
        """Is ``label`` (under the rank's suffix) a live ctypo of ``rank``?"""
        return label in self.registered_typo_labels(rank)

    # -- churn deltas ------------------------------------------------------

    def _delta_against(self, schedule: WorldEvolution,
                       day: int) -> Tuple[Dict[int, int], List[int]]:
        """Validate ``schedule`` and diff its day-``day`` churn vs ours."""
        if schedule.seed != self.seed:
            raise ConfigError(
                f"churn schedule seed {schedule.seed} does not match "
                f"index seed {self.seed}")
        if schedule.max_rank < self.max_rank:
            raise ConfigError(
                f"churn schedule covers ranks 1..{schedule.max_rank}, "
                f"index needs 1..{self.max_rank}")
        new_churn = schedule.generations(day)
        old_churn = self._churn
        changed = [rank for rank in set(old_churn) | set(new_churn)
                   if rank <= self.max_rank
                   and old_churn.get(rank, 0) != new_churn.get(rank, 0)]
        return new_churn, changed

    def apply_delta(self, schedule: WorldEvolution, day: int) -> int:
        """Evolve the index to churn day ``day``; returns ranks touched.

        Target *identities* never churn, so the candidate buckets and
        the membership law are untouched; only the registered-ctypo
        caches of ranks whose generation changed are invalidated, and
        the world's per-rank streams re-key.  The delta tests pin the
        result equal to a fresh index built over the evolved world.

        An *empty* delta — no rank's generation moves (and so every
        memoized verdict is still valid) — is a no-op: the epoch does
        not bump, so resident engines keep their warm memos.  Only the
        bookkeeping ``day`` advances.
        """
        new_churn, changed = self._delta_against(schedule, day)
        if not changed:
            self.day = day
            return 0
        for rank in changed:
            self._registered_labels.pop(rank, None)
        self.world = self.world.evolved(new_churn or None)
        self._churn = new_churn
        self.day = day
        self.epoch += 1
        return len(changed)

    def evolved_generation(self, schedule: WorldEvolution,
                           day: int) -> Tuple["TypoRiskIndex", int]:
        """Phase one of a hot swap: build the next generation off to the
        side, leaving this index untouched and serving.

        Returns ``(new_index, changed)``.  The new index shares the
        world's immutable chunk caches and every unchurned rank's warm
        registered-ctypo cache, carries ``epoch = self.epoch + 1`` so a
        publishing engine's epoch guard retires stale memos, and is
        pinned byte-identical (``canonical_dict``) to a fresh build
        over the evolved world.  When nothing churned the caller should
        skip the swap entirely — this method still returns a coherent
        generation for callers that want one.
        """
        new_churn, changed = self._delta_against(schedule, day)
        new_index = TypoRiskIndex(self.seed, self.max_rank,
                                  config=self.config,
                                  churn=new_churn, day=day)
        # share the immutable world caches and the still-valid per-rank
        # ctypo caches; only churned ranks re-derive lazily
        new_index.world = self.world.evolved(new_churn or None)
        changed_set = set(changed)
        new_index._registered_labels = {
            rank: labels
            for rank, labels in self._registered_labels.items()
            if rank not in changed_set}
        new_index.epoch = self.epoch + 1
        return new_index, len(changed)

    # -- persistence (repro-risk-index@1) ----------------------------------

    def canonical_dict(self) -> Dict:
        payload = self._payload_dict()
        payload["digest"] = payload_digest(payload)
        return payload

    def _payload_dict(self) -> Dict:
        return {
            "format": RISK_INDEX_FORMAT,
            "seed": self.seed,
            "max_rank": self.max_rank,
            "day": self.day,
            "churn": [[rank, generation] for rank, generation
                      in sorted(self._churn.items())],
            "config_digest": _config_digest(self.config),
            "head_buckets": {
                suffix: {variant: list(ranks)
                         for (s, variant), ranks
                         in self._head_buckets.items() if s == suffix}
                for suffix in sorted({s for s, _ in self._head_buckets})},
        }

    def save(self, path: Union[str, Path]) -> None:
        """Atomically persist the index."""
        write_artifact(path, self._payload_dict(), RISK_INDEX)

    @classmethod
    def load(cls, path: Union[str, Path], *,
             config: Optional[InternetConfig] = None) -> "TypoRiskIndex":
        """Load and validate an index written by :meth:`save`.

        Validation is belt and braces: the self-digest catches torn or
        edited files, and the candidate buckets are *re-derived* from
        the file's identity and compared — the artifact can therefore
        never make the service disagree with the world law it claims to
        serve.  Unreadable/tampered files raise
        :class:`CheckpointCorruptError`; a file built against a
        different world config raises :class:`CheckpointMismatchError`.
        """
        data = read_artifact(path, RISK_INDEX)
        with corrupt_payload(path, RISK_INDEX):
            churn = {int(rank): int(generation)
                     for rank, generation in data["churn"]}
            index = cls(int(data["seed"]), int(data["max_rank"]),
                        config=config, churn=churn, day=int(data["day"]))
        if _config_digest(index.config) != data.get("config_digest"):
            raise CheckpointMismatchError(
                f"risk index {path} was built for a different world config")
        derived = index._payload_dict()["head_buckets"]
        if derived != data.get("head_buckets"):
            raise CheckpointCorruptError(
                f"risk index {path} candidate buckets do not match the "
                f"world law for seed {index.seed}; the file was tampered "
                f"with or belongs to another build")
        return index
