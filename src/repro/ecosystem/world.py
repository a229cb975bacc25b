"""Lazy, deterministic world model behind the paper-scale ecosystem scan.

:func:`~repro.ecosystem.internet.build_internet` materializes every wild
domain, registry zone, and SMTP host up front — fine for a ~300-target
world, hopeless for the paper's Alexa top one million.  This module holds
the *law* of that world in a form that can be evaluated per ``(seed,
rank)`` on demand:

* the ranked target list is derived per rank (the study's email targets
  first, then pronounceable filler domains derived in seed-keyed chunks);
* each rank's DL-1 candidate grid gets its registration draw from a
  rank-keyed counter-based stream, with the squatter quality law (edit
  type, fat-finger, visual distance) evaluated only where it can matter —
  candidate *strings* are only built for the few that register;
* registered candidates draw owner, support, MX, DNS, and WHOIS state
  from a rank-keyed uniform stream, and the zmap-style probe observation
  from another.

Every stream is a pure function of ``(seed, purpose, rank)``: uniforms
come from a Philox counter-based generator whose key is
``derive_seed(seed, purpose)`` and whose 256-bit counter starts at
``[0, 0, 0, rank]``.  Counter-based streams make the derivation
*shard-independent* — any partition of the rank space produces identical
per-rank results, which is the property the sharded scanner's digest
tests pin down — and repositioning one reused bit generator costs ~2us
where constructing a fresh ``default_rng`` per rank costs ~16us.
``build_internet`` is a materializer of this same law, so a lazily
scanned world and an eagerly built one agree on ground truth.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.targets import EMAIL_TARGETS
from repro.core.typogen import (
    DOMAIN_ALPHABET,
    TypoCandidate,
    registrable_domain,
    split_domain,
)
from repro.core.distances import (
    char_visual_cost,
    fat_finger_for_edit,
    visual_distance_for_edit,
)
from repro.core.keyboard import qwerty_adjacency
from repro.ecosystem.aggregates import ScanAggregates
from repro.ecosystem.internet import (
    _CESSPOOL_NAMESERVERS,
    _NORMAL_NAMESERVERS,
    _PRONOUNCEABLE_ONSETS,
    _PRONOUNCEABLE_VOWELS,
    _RESELLER_SUPPORT_MIX,
    AlexaEntry,
    InternetConfig,
    OwnerType,
    SQUATTER_MX_POOL,
    SmtpSupport,
)
from repro.ecosystem.whois import PRIVACY_PROXIES, RegistrantPersona, make_registrant
from repro.util.perf import PerfRegistry
from repro.util.rand import SeededRng, derive_seed

__all__ = ["DomainState", "WorldModel", "PARKED_MX_HOSTS", "WEB_MX_HOSTS"]

#: The dark mail hosts bulk squatters park non-mail inventory on, matching
#: the hosts ``build_internet`` materializes.
PARKED_MX_HOSTS: Tuple[str, ...] = tuple(
    f"parked-mx-{i}.example" for i in range(3))
WEB_MX_HOSTS: Tuple[str, ...] = tuple(
    f"web-mx-{i}.example" for i in range(3))

_EDIT_TYPE_QUALITY = {
    "deletion": 6.0,
    "transposition": 5.0,
    "substitution": 1.0,
    "addition": 0.45,
}

#: owner classes by the small integer code the hot path switches on
_OWNER_BY_CODE: Tuple[OwnerType, ...] = (
    OwnerType.DEFENSIVE, OwnerType.LEGITIMATE, OwnerType.BULK_SQUATTER,
    OwnerType.MEDIUM_SQUATTER, OwnerType.SMALL_SQUATTER)
_OWNER_VALUE_BY_CODE: Tuple[str, ...] = tuple(
    owner.value for owner in _OWNER_BY_CODE)
_SUPPORT_VALUE: Dict[SmtpSupport, str] = {s: s.value for s in SmtpSupport}

#: SMTP support by the small integer code the hot path switches on —
#: records carry codes so the streaming fold never hashes an enum
_SUPPORT_BY_CODE: Tuple[SmtpSupport, ...] = (
    SmtpSupport.NO_DNS, SmtpSupport.NO_INFO, SmtpSupport.NO_EMAIL,
    SmtpSupport.PLAIN, SmtpSupport.STARTTLS_ERRORS, SmtpSupport.STARTTLS_OK)
_SUPPORT_CODE: Dict[SmtpSupport, int] = {
    s: i for i, s in enumerate(_SUPPORT_BY_CODE)}
_SUPPORT_VALUE_BY_CODE: Tuple[str, ...] = tuple(
    s.value for s in _SUPPORT_BY_CODE)


@dataclass(frozen=True)
class DomainState:
    """Ground truth about one registered ctypo, derived — not stored.

    Carries everything ``build_internet`` needs to materialize the domain
    (zone records, SMTP server flags, WHOIS record) and everything the
    streaming scanner needs to emulate the probe.
    """

    domain: str
    target: str
    rank: int
    edit_op: str
    edit_index: int
    edit_char: str
    owner_id: str
    owner_type: OwnerType
    profile: str                    # "collector" | "reseller" | ""
    support: SmtpSupport            # ground truth (Table 4 category)
    mx_domain: Optional[str]        # explicit MX host, None => A-record only
    has_address: bool               # domain itself carries an A record
    nameserver: str
    private_whois: bool
    privacy_proxy: Optional[str]
    whois_fields_filled: int
    #: small-squatter / legitimate recipient policy: "catch_all",
    #: "reject_unknown", "domain", or None when no listener exists
    longtail_policy: Optional[str]

    @property
    def is_squatting(self) -> bool:
        return self.owner_type in (OwnerType.BULK_SQUATTER,
                                   OwnerType.MEDIUM_SQUATTER,
                                   OwnerType.SMALL_SQUATTER)

    def candidate(self) -> TypoCandidate:
        """The generator-equivalent :class:`TypoCandidate` for this ctypo."""
        label, _ = split_domain(self.target)
        return TypoCandidate(
            domain=self.domain, target=self.target, edit_type=self.edit_op,
            edit_index=self.edit_index,
            fat_finger=fat_finger_for_edit(label, self.edit_op,
                                           self.edit_index, self.edit_char),
            visual=visual_distance_for_edit(label, self.edit_op,
                                            self.edit_index, self.edit_char))


# -- rank-keyed uniform streams ------------------------------------------------


def _rank_uniforms(seed: int, purpose: str, rank: int,
                   count: int) -> np.ndarray:
    """The canonical uniform stream of ``(seed, purpose, rank)``.

    One-shot reference form of the law; :class:`_RankKeyedStream` produces
    byte-identical output by repositioning a reused bit generator.
    """
    bitgen = np.random.Philox(key=derive_seed(seed, purpose),
                              counter=[0, 0, 0, rank])
    return np.random.Generator(bitgen).random(count)


class _RankKeyedStream:
    """A reusable Philox generator repositioned to ``counter=[0,0,0,rank]``.

    Philox is counter-based: output is a pure function of (key, counter),
    so seeking is exact and O(1).  Drawing advances the low counter word,
    leaving rank streams (separated in the high word) disjoint for 2**192
    blocks.  Resetting state on a live bit generator avoids the ~16us
    construction cost of a fresh Generator per rank.
    """

    __slots__ = ("_bitgen", "_gen", "_state", "_counter", "_buffers")

    def __init__(self, seed: int, purpose: str) -> None:
        self._bitgen = np.random.Philox(key=derive_seed(seed, purpose))
        self._gen = np.random.Generator(self._bitgen)
        self._state = self._bitgen.state
        self._counter = self._state["state"]["counter"]
        self._buffers: Dict[int, np.ndarray] = {}

    def uniforms(self, rank: int, count: int) -> np.ndarray:
        """The rank's stream prefix.  The returned array is a reused
        scratch buffer: consume it before the next ``uniforms`` call."""
        buf = self._buffers.get(count)
        if buf is None:
            buf = np.empty(count)
            self._buffers[count] = buf
        return self.uniforms_into(rank, buf)

    def uniforms_into(self, rank: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (contiguous float64) with the rank's stream prefix.

        Byte-identical to :meth:`uniforms` of the same length; the
        caller-owned destination lets the feature sweep draw many ranks
        into one matrix and preselect with a single vector compare."""
        counter = self._counter
        counter[0] = 0
        counter[1] = 0
        counter[2] = 0
        counter[3] = rank
        self._state["buffer_pos"] = 4
        self._state["has_uint32"] = 0
        self._bitgen.state = self._state
        return self._gen.random(out=out)


# -- vectorised registration grid ---------------------------------------------
#
# The raw DL-1 grid of a label of length L is laid out flat as
#   [ deletions: L ][ transpositions: L-1 ][ substitutions: L*A ][ additions: (L+1)*A ]
# position-major with the alphabet innermost — exactly the order
# ``enumerate_edit_ops`` walks.  Validity/dedup masks reproduce its skip
# rules, so ``valid.sum()`` equals the generator's candidate count, and a
# flat index decodes back to ``(op, index, char)`` arithmetically.  The
# registration uniforms are drawn over the *raw* grid (invalid slots
# included), which makes the stream independent of the masks' consumers.

_ALPHA_SIZE = len(DOMAIN_ALPHABET)
_ALPHA_CODES = np.frombuffer(DOMAIN_ALPHABET.encode("ascii"), dtype=np.uint8)
_ALPHA_CODE_LIST = [ord(c) for c in DOMAIN_ALPHABET]
_HYPHEN = ord("-")
_HYPHEN_IDX = DOMAIN_ALPHABET.index("-")

#: the quality law's per-section maxima: base * fat-finger * qf <= base*1.6*1.5
_QUALITY_MAX = 6.0 * 1.6 * 1.5

_ADJ37: Optional[np.ndarray] = None
_COST37: Optional[np.ndarray] = None
_ADJ_LIST: Optional[list] = None
_COST_LIST: Optional[list] = None


def _char_tables() -> Tuple[np.ndarray, np.ndarray]:
    """(adjacency, visual-cost) matrices over the domain alphabet."""
    global _ADJ37, _COST37, _ADJ_LIST, _COST_LIST
    if _ADJ37 is None:
        adj = np.zeros((_ALPHA_SIZE, _ALPHA_SIZE), dtype=bool)
        cost = np.zeros((_ALPHA_SIZE, _ALPHA_SIZE), dtype=np.float64)
        for i, a in enumerate(DOMAIN_ALPHABET):
            neighbours = qwerty_adjacency(a)
            for j, b in enumerate(DOMAIN_ALPHABET):
                adj[i, j] = b in neighbours
                cost[i, j] = char_visual_cost(a, b)
        _ADJ37, _COST37 = adj, cost
        _ADJ_LIST, _COST_LIST = adj.tolist(), cost.tolist()
    return _ADJ37, _COST37


_CODE2IDX = np.full(128, -1, dtype=np.int64)
for _i, _c in enumerate(DOMAIN_ALPHABET):
    _CODE2IDX[ord(_c)] = _i
_CODE2IDX_LIST = _CODE2IDX.tolist()

#: per-alphabet-index character classes, for the feature sweep's
#: delta-computed lexical stats
_IDX_IS_DIGIT = [c.isdigit() for c in DOMAIN_ALPHABET]
_IDX_IS_VOWEL = [c in "aeiou" for c in DOMAIN_ALPHABET]
_IDX_IS_HYPHEN = [c == "-" for c in DOMAIN_ALPHABET]

# -- packed feature-row layout -------------------------------------------------
#
# ``WorldModel.featurize_ranks`` emits one (packed int, visual float) pair
# per wild registered ctypo; everything else a feature row needs is either
# inside the packed word or shared per rank.  Bit layout (LSB up):
#
#   op:2  index:6  char:6  digits:6  hyphens:6  vowels:6  mx:3  addr:1
#   ns:2  private:1  fields:3  policy:2  support:3  squat:1  adjacent:1
#
# 49 bits total — comfortably inside an int64, so a whole block converts
# to numpy with one ``np.array`` call and unpacks with vector shifts.
# Decoders live in :mod:`repro.features.domains`; the op codes are
# 0 deletion, 1 transposition, 2 substitution, 3 addition, the mx codes
# 0 none, 1 parked, 2 web, 3 pool, 4 self, 5 mx.<target>, and the ns
# codes 0 cesspool, 1 normal, 2 ns.<target>.

FEATURE_PACK_SHIFTS = {
    "op": 0, "index": 2, "char": 8, "digits": 14, "hyphens": 20,
    "vowels": 26, "mx": 32, "addr": 35, "ns": 36, "private": 38,
    "fields": 39, "policy": 42, "support": 44, "squat": 47,
    "adjacent": 48,
}

#: ranks per batched registration draw in the feature sweep — large
#: enough to amortize the per-slab numpy dispatch, small enough that the
#: draw matrix stays a few MB
_FEATURE_BATCH = 256

#: sentinel marking a rank whose registration draw needs the dense path
_DENSE = ("dense",)


def _position_weights(length: int) -> np.ndarray:
    """``position_weight(i, length)`` for i in 0..length (vectorised)."""
    out = np.empty(length + 1, dtype=np.float64)
    if length <= 1:
        out[:] = 1.0
        return out
    rel = np.arange(length + 1, dtype=np.float64) / (length - 1)
    out[:] = 0.85 + 0.3 * np.abs(rel - 0.5)
    out[0] = 1.3
    out[length - 1:] = 1.15
    return out


_POSW_CACHE: Dict[int, list] = {}


def _position_weight_list(length: int) -> list:
    posw = _POSW_CACHE.get(length)
    if posw is None:
        posw = _position_weights(length).tolist()
        _POSW_CACHE[length] = posw
    return posw


def _sections(length: int) -> Tuple[int, int, int, int]:
    return (length, max(0, length - 1), length * _ALPHA_SIZE,
            (length + 1) * _ALPHA_SIZE)


def _grid_total(length: int) -> int:
    n_del, n_trans, n_sub, n_add = _sections(length)
    return n_del + n_trans + n_sub + n_add


_SECTION_UPPER_CACHE: Dict[int, np.ndarray] = {}


def _section_upper(length: int) -> np.ndarray:
    """Per-slot quality upper bound (by section), for sparse preselection."""
    upper = _SECTION_UPPER_CACHE.get(length)
    if upper is None:
        n_del, n_trans, n_sub, n_add = _sections(length)
        upper = np.concatenate([
            np.full(n_del, 6.0 * 1.6 * 1.5),
            np.full(n_trans, 5.0 * 1.6 * 1.5),
            np.full(n_sub, 1.6 * 1.5),
            np.full(n_add, 0.45 * 1.6 * 1.5),
        ])
        _SECTION_UPPER_CACHE[length] = upper
    return upper


@dataclass(frozen=True)
class RankGrid:
    """The registration draw of one rank's raw DL-1 edit grid."""

    label: str
    generated: int               # valid (deduped) gtypos in the grid
    registered: np.ndarray       # flat raw-grid indices that registered
    section_sizes: Tuple[int, int, int, int]

    def decode(self, flat: int) -> Tuple[str, int, str]:
        """Flat raw-grid index -> ``(op, index, char)``."""
        n_del, n_trans, n_sub, _ = self.section_sizes
        if flat < n_del:
            return "deletion", flat, ""
        flat -= n_del
        if flat < n_trans:
            return "transposition", flat, ""
        flat -= n_trans
        if flat < n_sub:
            return ("substitution", flat // _ALPHA_SIZE,
                    DOMAIN_ALPHABET[flat % _ALPHA_SIZE])
        flat -= n_sub
        return ("addition", flat // _ALPHA_SIZE,
                DOMAIN_ALPHABET[flat % _ALPHA_SIZE])


def _grid_masks(label: str) -> Tuple[np.ndarray, np.ndarray,
                                     Tuple[int, int, int, int]]:
    """(valid mask, quality, section sizes) over the raw DL-1 grid.

    ``valid`` reproduces :func:`enumerate_edit_ops`' dedup/validity rules
    slot for slot (a property the parity tests pin down); ``quality`` is
    the squatter preference law of ``internet._typo_quality`` evaluated
    for every slot.
    """
    codes = np.frombuffer(label.encode("ascii"), dtype=np.uint8)
    idx = _CODE2IDX[codes]
    if np.any(idx < 0):
        raise ValueError(f"label {label!r} has characters outside the "
                         "domain alphabet")
    length = len(label)
    adj, cost = _char_tables()
    posw = _position_weights(length)
    inv_len = 3.0 / max(1, length)

    def quality_factor(vis: np.ndarray) -> np.ndarray:
        return np.maximum(0.2, 1.5 - vis * inv_len)

    # deletions --------------------------------------------------------------
    del_valid = np.zeros(length, dtype=bool)
    if 2 <= length <= 64:
        del_valid[:] = True
        del_valid[1:] = codes[1:] != codes[:-1]
        if codes[1] == _HYPHEN:
            del_valid[0] = False
        if codes[length - 2] == _HYPHEN:
            del_valid[length - 1] = False
    doubled = np.zeros(length, dtype=bool)
    doubled[:-1] |= codes[:-1] == codes[1:]
    doubled[1:] |= codes[1:] == codes[:-1]
    del_vis = np.where(doubled, 0.3, 0.9) * posw[:length]
    del_q = 6.0 * 1.6 * quality_factor(del_vis)

    # transpositions ---------------------------------------------------------
    n_trans = max(0, length - 1)
    trans_valid = np.zeros(n_trans, dtype=bool)
    if n_trans and length <= 63:
        trans_valid[:] = codes[:-1] != codes[1:]
        if codes[1] == _HYPHEN:
            trans_valid[0] = False
        if codes[length - 2] == _HYPHEN:
            trans_valid[n_trans - 1] = False
    trans_q = 5.0 * 1.6 * quality_factor(0.5 * posw[:n_trans])

    # substitutions (position-major, alphabet innermost) ---------------------
    same_char = _ALPHA_CODES[None, :] == codes[:, None]        # (L, A)
    sub_valid = ~same_char
    if length > 63:
        sub_valid[:] = False
    else:
        hyphen_col = _ALPHA_CODES == _HYPHEN
        sub_valid[0, hyphen_col] = False
        sub_valid[length - 1, hyphen_col] = False
    sub_adj = adj[idx]                                          # (L, A)
    sub_vis = cost[idx] * posw[:length, None]
    sub_q = np.where(sub_adj, 1.6, 1.0) * quality_factor(sub_vis)

    # additions --------------------------------------------------------------
    prev_eq = np.zeros((length + 1, _ALPHA_SIZE), dtype=bool)
    prev_eq[1:] = same_char
    next_eq = np.zeros((length + 1, _ALPHA_SIZE), dtype=bool)
    next_eq[:length] = same_char
    prev_adj = np.zeros((length + 1, _ALPHA_SIZE), dtype=bool)
    prev_adj[1:] = sub_adj
    next_adj = np.zeros((length + 1, _ALPHA_SIZE), dtype=bool)
    next_adj[:length] = sub_adj
    add_ff1 = prev_eq | prev_adj | next_eq | next_adj
    add_doubles = prev_eq | next_eq
    add_valid = ~prev_eq                       # run dedup: same as earlier slot
    if length + 1 > 63:
        add_valid[:] = False
    else:
        hyphen_col = _ALPHA_CODES == _HYPHEN
        add_valid[0, hyphen_col] = False
        add_valid[length, hyphen_col] = False
    add_vis = np.where(add_doubles, 0.3, 1.0) * posw[:, None]
    add_q = (0.45 * np.where(add_ff1, 1.6, 1.0) * quality_factor(add_vis))

    quality = np.concatenate([del_q, trans_q, sub_q.ravel(), add_q.ravel()])
    valid = np.concatenate([del_valid, trans_valid, sub_valid.ravel(),
                            add_valid.ravel()])
    return valid, quality, _sections(length)


def _generated_count(label: str) -> int:
    """``len(enumerate_edit_ops(label))`` in O(L), no grid materialized.

    Mirrors the generator's validity/dedup rules section by section; the
    parity tests pin it against the enumerator and against
    ``_grid_masks(label)[0].sum()``.
    """
    length = len(label)
    c = label
    if 2 <= length <= 62 and "-" not in c:
        # hyphen-free closed form: only the adjacent-duplicate dedup
        # bites, once in the deletion section and once in transpositions
        dups = 0
        prev = c[0]
        for ch in c[1:]:
            if ch == prev:
                dups += 1
            prev = ch
        return 74 * length + 32 - 2 * dups
    total = 0
    if 2 <= length <= 64:                       # deletions
        for i in range(length):
            if i > 0 and c[i] == c[i - 1]:
                continue
            if i == 0 and c[1] == "-":
                continue
            if i == length - 1 and c[length - 2] == "-":
                continue
            total += 1
    if 2 <= length <= 63:                       # transpositions
        n_trans = length - 1
        for i in range(n_trans):
            if c[i] == c[i + 1]:
                continue
            if i == 0 and c[1] == "-":
                continue
            if i == n_trans - 1 and c[length - 2] == "-":
                continue
            total += 1
    if length <= 63:                            # substitutions
        for i in range(length):
            slots = _ALPHA_SIZE - 1             # minus the original char
            if (i == 0 or i == length - 1) and c[i] != "-":
                slots -= 1                      # boundary hyphen
            total += slots
    if length + 1 <= 63:                        # additions
        for i in range(length + 1):
            slots = _ALPHA_SIZE
            if i >= 1:
                slots -= 1                      # run dedup vs previous char
            if i == 0:
                slots -= 1                      # leading hyphen
            elif i == length and c[length - 1] != "-":
                slots -= 1                      # trailing hyphen
            total += slots
    return total


#: per-length (threshold, hit-mask) scratch pair for the sparse preselect
_PRESELECT_SCRATCH: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _grid_draw(label: str, reg_p: float,
               uniforms: np.ndarray) -> Tuple[int, List[int]]:
    """(generated count, registered flat indices) of one rank's raw grid."""
    return _generated_count(label), _registered_flats(label, reg_p, uniforms)


def _registered_flats(label: str, reg_p: float,
                      uniforms: np.ndarray) -> List[int]:
    """The registered flat indices of one rank's raw grid.

    Dense regime (the 0.95 probability cap can bind): evaluate the full
    validity/quality masks.  Sparse regime (every slot's probability is
    below the cap): preselect ``u < reg_p * section_max`` — a strict
    superset of the registrations — then confirm the few survivors with
    the scalar law.  Both paths compute the identical registered set; the
    parity tests pin that.  Split from :func:`_grid_draw` so the chunked
    scan loop can pair it with precomputed generated counts.
    """
    length = len(label)
    if reg_p * _QUALITY_MAX >= 0.95:
        valid, quality, _ = _grid_masks(label)
        probability = np.minimum(0.95, reg_p * quality)
        return np.nonzero(valid & (uniforms < probability))[0].tolist()

    scratch = _PRESELECT_SCRATCH.get(length)
    if scratch is None:
        total = _grid_total(length)
        scratch = (np.empty(total), np.empty(total, dtype=bool))
        _PRESELECT_SCRATCH[length] = scratch
    thresh, hits = scratch
    np.multiply(_section_upper(length), reg_p, out=thresh)
    np.less(uniforms, thresh, out=hits)
    cand_arr = hits.nonzero()[0]
    if not cand_arr.size:
        return []
    return _confirm_flats(label, reg_p, cand_arr.tolist(),
                          uniforms[cand_arr].tolist())


def _confirm_flats(label: str, reg_p: float, cand_flats: List[int],
                   uvals: List[float]) -> List[int]:
    """Confirm preselected raw-grid slots with the scalar quality law.

    ``cand_flats`` must be a superset of the registrations produced by
    any bound of the form ``u < reg_p * upper`` with per-section
    ``upper >= quality``; the scalar law then keeps exactly the slots the
    dense path would.  Split out of :func:`_registered_flats` so the
    feature sweep's batched (multi-rank) preselect shares the confirm
    step verbatim.
    """
    length = len(label)
    registered: List[int] = []
    if cand_flats:
        _char_tables()
        adj, cost = _ADJ_LIST, _COST_LIST
        codes = label.encode("ascii")
        idx = [_CODE2IDX_LIST[b] for b in codes]
        if min(idx) < 0:
            raise ValueError(f"label {label!r} has characters outside the "
                             "domain alphabet")
        posw = _position_weight_list(length)
        inv_len = 3.0 / max(1, length)
        n_del = length
        n_trans = length - 1 if length > 1 else 0
        sub_base = n_del + n_trans
        add_base = sub_base + length * _ALPHA_SIZE
        for flat, u in zip(cand_flats, uvals):
            if flat < n_del:
                i = flat
                if length < 2 or length > 64:
                    continue
                if i > 0 and codes[i] == codes[i - 1]:
                    continue
                if i == 0 and codes[1] == _HYPHEN:
                    continue
                if i == length - 1 and codes[length - 2] == _HYPHEN:
                    continue
                doubled = ((i < length - 1 and codes[i] == codes[i + 1])
                           or (i > 0 and codes[i] == codes[i - 1]))
                vis = (0.3 if doubled else 0.9) * posw[i]
                q = 6.0 * 1.6 * max(0.2, 1.5 - vis * inv_len)
            elif flat < sub_base:
                i = flat - n_del
                if length > 63:
                    continue
                if codes[i] == codes[i + 1]:
                    continue
                if i == 0 and codes[1] == _HYPHEN:
                    continue
                if i == n_trans - 1 and codes[length - 2] == _HYPHEN:
                    continue
                q = 5.0 * 1.6 * max(0.2, 1.5 - (0.5 * posw[i]) * inv_len)
            elif flat < add_base:
                rem = flat - sub_base
                i, a = divmod(rem, _ALPHA_SIZE)
                if length > 63:
                    continue
                ch = _ALPHA_CODE_LIST[a]
                if ch == codes[i]:
                    continue
                if a == _HYPHEN_IDX and (i == 0 or i == length - 1):
                    continue
                row = idx[i]
                vis = cost[row][a] * posw[i]
                q = ((1.6 if adj[row][a] else 1.0)
                     * max(0.2, 1.5 - vis * inv_len))
            else:
                rem = flat - add_base
                i, a = divmod(rem, _ALPHA_SIZE)
                if length + 1 > 63:
                    continue
                ch = _ALPHA_CODE_LIST[a]
                if i >= 1 and ch == codes[i - 1]:
                    continue
                if a == _HYPHEN_IDX and (i == 0 or i == length):
                    continue
                next_eq = i < length and ch == codes[i]
                ff1 = (next_eq or (i >= 1 and adj[idx[i - 1]][a])
                       or (i < length and adj[idx[i]][a]))
                vis = (0.3 if next_eq else 1.0) * posw[i]
                q = (0.45 * (1.6 if ff1 else 1.0)
                     * max(0.2, 1.5 - vis * inv_len))
            if u < reg_p * q:
                registered.append(flat)
    return registered


def _confirm_decoded(lidx: List[int], posw: List[float], reg_p: float,
                     cand_flats: List[int],
                     uvals: Optional[List[float]],
                     base_digits: int, base_hyphens: int,
                     base_vowels: int) -> List[tuple]:
    """Confirm candidate slots and decode the survivors in one pass.

    The feature sweep's fused twin of :func:`_confirm_flats`: the same
    validity + quality law decides registration (``uvals is None`` skips
    the uniform test for already-registered flats from the dense path),
    but instead of flat indices it returns ``(pack_lex, vis, op, index,
    char)`` per kept slot — the lexical half of the packed feature word
    (op, index, char, digit/hyphen/vowel counts, adjacency bit, see
    ``FEATURE_PACK_SHIFTS``) plus the visual cost, so the record walk
    never re-decodes.  ``lidx`` is the label's alphabet-index list; the
    parity tests pin the kept set against :func:`_confirm_flats` and the
    decoded fields against the scalar reference featurizer.
    """
    length = len(lidx)
    decoded: List[tuple] = []
    if not cand_flats:
        return decoded
    adj, cost = _ADJ_LIST, _COST_LIST
    is_digit, is_vowel = _IDX_IS_DIGIT, _IDX_IS_VOWEL
    is_hyphen = _IDX_IS_HYPHEN
    hyphen_i = _HYPHEN_IDX
    inv_len = 3.0 / max(1, length)
    n_del = length
    n_trans = length - 1 if length > 1 else 0
    sub_base = n_del + n_trans
    add_base = sub_base + length * _ALPHA_SIZE
    check = uvals is not None
    append = decoded.append
    for k, flat in enumerate(cand_flats):
        if flat < n_del:
            i = flat
            if length < 2 or length > 64:
                continue
            if i > 0 and lidx[i] == lidx[i - 1]:
                continue
            if i == 0 and lidx[1] == hyphen_i:
                continue
            if i == length - 1 and lidx[length - 2] == hyphen_i:
                continue
            rm = lidx[i]
            doubled = ((i < length - 1 and rm == lidx[i + 1])
                       or (i > 0 and rm == lidx[i - 1]))
            vis = (0.3 if doubled else 0.9) * posw[i]
            if check and uvals[k] >= (reg_p * 6.0 * 1.6
                                      * max(0.2, 1.5 - vis * inv_len)):
                continue
            op = 0
            a = 0
            adjacent = 1 << 48
            digits = base_digits - (1 if is_digit[rm] else 0)
            hyphens = base_hyphens - (1 if is_hyphen[rm] else 0)
            vowels = base_vowels - (1 if is_vowel[rm] else 0)
        elif flat < sub_base:
            i = flat - n_del
            if length > 63:
                continue
            if lidx[i] == lidx[i + 1]:
                continue
            if i == 0 and lidx[1] == hyphen_i:
                continue
            if i == n_trans - 1 and lidx[length - 2] == hyphen_i:
                continue
            vis = 0.5 * posw[i]
            if check and uvals[k] >= (reg_p * 5.0 * 1.6
                                      * max(0.2, 1.5 - vis * inv_len)):
                continue
            op = 1
            a = 0
            adjacent = 1 << 48
            digits = base_digits
            hyphens = base_hyphens
            vowels = base_vowels
        elif flat < add_base:
            i, a = divmod(flat - sub_base, _ALPHA_SIZE)
            if length > 63:
                continue
            rm = lidx[i]
            if a == rm:
                continue
            if a == hyphen_i and (i == 0 or i == length - 1):
                continue
            vis = cost[rm][a] * posw[i]
            adj_f = adj[rm][a]
            if check and uvals[k] >= (reg_p * (1.6 if adj_f else 1.0)
                                      * max(0.2, 1.5 - vis * inv_len)):
                continue
            op = 2
            adjacent = (1 << 48) if adj_f else 0
            digits = (base_digits - (1 if is_digit[rm] else 0)
                      + (1 if is_digit[a] else 0))
            hyphens = (base_hyphens - (1 if is_hyphen[rm] else 0)
                       + (1 if is_hyphen[a] else 0))
            vowels = (base_vowels - (1 if is_vowel[rm] else 0)
                      + (1 if is_vowel[a] else 0))
        else:
            i, a = divmod(flat - add_base, _ALPHA_SIZE)
            if length + 1 > 63:
                continue
            if i >= 1 and a == lidx[i - 1]:
                continue
            if a == hyphen_i and (i == 0 or i == length):
                continue
            next_eq = i < length and a == lidx[i]
            ff1 = (next_eq or (i >= 1 and adj[lidx[i - 1]][a])
                   or (i < length and adj[lidx[i]][a]))
            vis = (0.3 if next_eq else 1.0) * posw[i]
            if check and uvals[k] >= (reg_p * 0.45 * (1.6 if ff1 else 1.0)
                                      * max(0.2, 1.5 - vis * inv_len)):
                continue
            op = 3
            adjacent = (1 << 48) if ff1 else 0
            digits = base_digits + (1 if is_digit[a] else 0)
            hyphens = base_hyphens + (1 if is_hyphen[a] else 0)
            vowels = base_vowels + (1 if is_vowel[a] else 0)
        append((op | (i << 2) | (a << 8) | (digits << 14)
                | (hyphens << 20) | (vowels << 26) | adjacent,
                vis, op, i, a))
    return decoded


def _registration_grid(label: str, seed: int, rank: int,
                       config: InternetConfig) -> RankGrid:
    """The registration draw for one rank's whole candidate grid."""
    reg_p = (config.peak_registration_probability
             / (rank ** config.rank_decay))
    uniforms = _rank_uniforms(seed, "reg", rank, _grid_total(len(label)))
    generated, registered = _grid_draw(label, reg_p, uniforms)
    return RankGrid(label=label, generated=generated,
                    registered=np.asarray(registered, dtype=np.int64),
                    section_sizes=_sections(len(label)))


# -- filler targets ------------------------------------------------------------

_FILLER_CHUNK = 1024

_SYL_TABLE: Optional[List[str]] = None


def _syllable_table() -> List[str]:
    """Onset+vowel syllables, flat-indexed ``onset * n_vowels + vowel``."""
    global _SYL_TABLE
    if _SYL_TABLE is None:
        _SYL_TABLE = [onset + vowel for onset in _PRONOUNCEABLE_ONSETS
                      for vowel in _PRONOUNCEABLE_VOWELS]
    return _SYL_TABLE


def _filler_chunk(seed: int, chunk: int) -> Tuple[List[str], List[int]]:
    """(names, generated counts) for filler indices [chunk*N, (chunk+1)*N).

    Chunked so a 100k-target universe costs ~100 stream constructions
    instead of one per domain; each name stays a pure function of
    ``(seed, index)``.  The generated count rides along because every
    filler label is hyphen-free letters followed by decimal digits, so
    the closed form of :func:`_generated_count` reduces to
    ``74*L + 32 - 2*dups`` where adjacent duplicates can only occur
    inside the digit run (onset+vowel syllables never repeat a
    character across a boundary) — the chunk parity test pins this
    against the general-purpose counter.
    """
    uniforms = _rank_uniforms(seed, "fillers", chunk, _FILLER_CHUNK * 7)
    u = uniforms.reshape(_FILLER_CHUNK, 7)
    syl = _syllable_table()
    n_onsets = len(_PRONOUNCEABLE_ONSETS)
    n_vowels = len(_PRONOUNCEABLE_VOWELS)
    # columns are (u0, o1, v1, o2, v2, o3, v3); the truncating casts
    # reproduce the scalar ``min(int(u * n), n - 1)`` law exactly
    onset_i = np.minimum((u[:, 1::2] * n_onsets).astype(np.intp),
                         n_onsets - 1)
    vowel_i = np.minimum((u[:, 2::2] * n_vowels).astype(np.intp),
                         n_vowels - 1)
    flat_i = (onset_i * n_vowels + vowel_i).tolist()
    third = (u[:, 0] >= 0.5).tolist()
    base = chunk * _FILLER_CHUNK
    names: List[str] = []
    counts: List[int] = []
    append_name, append_count = names.append, counts.append
    for j in range(_FILLER_CHUNK):
        s1, s2, s3 = flat_i[j]
        label = (syl[s1] + syl[s2] + syl[s3] if third[j]
                 else syl[s1] + syl[s2])
        digits = str(base + j)
        dups = 0
        prev = ""
        for ch in digits:
            if ch == prev:
                dups += 1
            prev = ch
        append_count(74 * (len(label) + len(digits)) + 32 - 2 * dups)
        append_name(f"{label}{digits}.com")
    return names, counts


# -- the world model ----------------------------------------------------------


class WorldModel:
    """Derives the simulated Internet per ``(seed, rank)`` on demand.

    ``churn`` maps rank -> generation for a world evolved by daily
    registration/expiration churn (see :mod:`repro.ecosystem.delta`):
    a churned rank's registration, wild-state, and probe streams are
    re-keyed by generation, so its DL-1 grid re-rolls — some ctypos
    expire, others register — while every generation-0 rank stays
    byte-identical to the day-0 world.
    """

    def __init__(self, seed: int, config: Optional[InternetConfig] = None,
                 probe_attempts: int = 3,
                 churn: Optional[Dict[int, int]] = None) -> None:
        self.seed = seed
        self.config = config or InternetConfig()
        self.probe_attempts = probe_attempts
        config = self.config
        #: the study's email targets occupy the head ranks; fillers are
        #: derived lazily in seed-keyed chunks below
        self._head_names: List[str] = [t.name for t in EMAIL_TARGETS]
        self._head_parts: List[Tuple[str, str]] = []
        for name in self._head_names:
            label, _ = split_domain(name)
            self._head_parts.append((label, name[len(label) + 1:]))
        self._head_gen_counts: List[int] = [
            _generated_count(label) for label, _ in self._head_parts]
        self._head_rank: Dict[str, int] = {
            name: index + 1 for index, name in enumerate(self._head_names)}
        #: filler chunks, built on demand and kept for the world's
        #: lifetime — a scan touches each chunk O(1) times (its own rank
        #: window plus collision probes from digit-edited candidates),
        #: so chunks never need rebuilding and the total stays bounded
        #: by the target universe, far below the eager builder's
        #: list+frozenset materialization
        self._chunks: Dict[int, Tuple[List[str], List[int]]] = {}
        self.chunk_builds = 0
        self._target_set: FrozenSet[str] = frozenset()
        self._target_set_size = 0
        self._churn: Optional[Dict[int, int]] = dict(churn) if churn else None
        self._streams: Dict[str, _RankKeyedStream] = {}
        # hot-path tables: cumulative weights for bisect draws, interned
        # owner-id strings, and the MX-host -> registrable-domain map
        self._bulk_cum, self._bulk_total = _cumulative(
            [1.8 ** -i for i in range(config.bulk_registrant_count)])
        self._bulk_ids = tuple(
            f"bulk-{i:02d}" for i in range(config.bulk_registrant_count))
        self._medium_ids = tuple(
            f"medium-{i:03d}" for i in range(config.medium_registrant_count))
        self._support_mixes = {
            name: (tuple(_SUPPORT_CODE[s] for s in mix),
                   *_cumulative(list(mix.values())))
            for name, mix in (
                ("squatter", config.squatter_support_mix),
                ("reseller", _RESELLER_SUPPORT_MIX),
                ("longtail", config.longtail_support_mix))}
        self._pool_hosts = tuple(h for h, _, _ in SQUATTER_MX_POOL)
        self._pool_broken = tuple(b for _, _, b in SQUATTER_MX_POOL)
        self._pool_cum, self._pool_total = _cumulative(
            [w for _, w, _ in SQUATTER_MX_POOL])
        self._mx_key = {
            host: registrable_domain(host)
            for host in (*PARKED_MX_HOSTS, *WEB_MX_HOSTS, *self._pool_hosts)}

    def _stream(self, purpose: str) -> _RankKeyedStream:
        stream = self._streams.get(purpose)
        if stream is None:
            stream = _RankKeyedStream(self.seed, purpose)
            self._streams[purpose] = stream
        return stream

    # -- the ranked target list -------------------------------------------

    def _chunk(self, chunk: int) -> Tuple[List[str], List[int]]:
        """The (names, generated counts) of one filler chunk, cached."""
        cached = self._chunks.get(chunk)
        if cached is None:
            cached = _filler_chunk(self.seed, chunk)
            self._chunks[chunk] = cached
            self.chunk_builds += 1
        return cached

    def target_domain(self, rank: int) -> str:
        """The rank-``rank`` domain of the simulated Alexa list."""
        if rank < 1:
            raise ValueError("ranks start at 1")
        head = self._head_names
        if rank <= len(head):
            return head[rank - 1]
        chunk, offset = divmod(rank - 1 - len(head), _FILLER_CHUNK)
        return self._chunk(chunk)[0][offset]

    def alexa_entry(self, rank: int) -> AlexaEntry:
        return AlexaEntry(domain=self.target_domain(rank), rank=rank,
                          monthly_visitors=5e8 / (rank ** 0.9))

    def alexa_entries(self, count: int) -> List[AlexaEntry]:
        return [self.alexa_entry(rank) for rank in range(1, count + 1)]

    def target_names(self, max_rank: int) -> FrozenSet[str]:
        """The target-domain universe of a ``max_rank``-sized world.

        Materializes ``max_rank`` names, so it is the reference form for
        small worlds and parity tests; the streaming scan uses the O(1)
        :meth:`is_target_domain` law instead.
        """
        if self._target_set_size != max_rank:
            names = list(self._head_names[:max_rank])
            chunk = 0
            while len(names) < max_rank:
                names.extend(self._chunk(chunk)[0])
                chunk += 1
            self._target_set = frozenset(names[:max_rank])
            self._target_set_size = max_rank
        return self._target_set

    def is_target_domain(self, domain: str, max_rank: int) -> bool:
        """O(1) membership in the ``max_rank`` target universe.

        Equivalent to ``domain in target_names(max_rank)`` (pinned by
        tests) without materializing the universe, so shard setup cost
        no longer scales with ``max_rank``.
        """
        return self.target_rank(domain, max_rank) is not None

    def target_rank(self, domain: str, max_rank: int) -> Optional[int]:
        """The domain's rank in the ``max_rank`` universe, or ``None``.

        The membership law inverted, with the rank recovered: a domain
        is a target iff it is one of the email-study heads, or it
        parses as ``<letters><index>.com`` where ``index`` (decimal,
        no leading zeros — ``str`` never prints them) addresses a
        filler slot inside the universe and the slot's derived name
        matches exactly.  This is the single membership oracle: the
        scan's :meth:`is_target_domain` and the query service's
        candidate index both probe it, so they can never disagree.
        """
        rank = self._head_rank.get(domain)
        if rank is not None:
            return rank if rank <= max_rank else None
        if not domain.endswith(".com"):
            return None
        label = domain[:-4]
        stem = label.rstrip("0123456789")
        nstem = len(stem)
        # no digit suffix, or a stem no 2-3 onset+vowel syllables can
        # spell (syllables are 2-3 chars, so derived stems are 4-9)
        if nstem == len(label) or nstem < 4 or nstem > 9:
            return None
        digits = label[nstem:]
        if digits[0] == "0" and len(digits) > 1:
            return None                    # str(index) has no leading zeros
        index = int(digits)
        if index >= max_rank - len(self._head_names):
            return None
        chunk, offset = divmod(index, _FILLER_CHUNK)
        cached = self._chunks.get(chunk)
        if cached is None:
            cached = self._chunk(chunk)
        if cached[0][offset] != domain:
            return None
        return len(self._head_names) + index + 1

    def evolved(self, churn: Optional[Dict[int, int]]) -> "WorldModel":
        """A world over the same ``(seed, config)`` at different churn.

        Target *identities* never churn — only per-rank registration,
        wild-state, and probe streams are generation-keyed — so the
        filler chunk cache and any materialized target set transfer to
        the new world unchanged.  This is what lets a resident index
        apply a churn delta without re-deriving the target universe.
        """
        world = WorldModel(self.seed, self.config,
                           probe_attempts=self.probe_attempts, churn=churn)
        world._chunks = self._chunks
        world.chunk_builds = self.chunk_builds
        world._target_set = self._target_set
        world._target_set_size = self._target_set_size
        return world

    def persona(self, owner_id: str) -> RegistrantPersona:
        """The stable WHOIS persona behind an owner id."""
        return make_registrant(
            SeededRng(derive_seed(self.seed, owner_id)), owner_id)

    # -- per-rank derivation ----------------------------------------------

    def target_parts(self, rank: int) -> Tuple[str, str]:
        """(label, suffix) of the rank's target domain."""
        head = self._head_parts
        if 1 <= rank <= len(head):
            return head[rank - 1]
        name = self.target_domain(rank)
        return name[:-4], "com"

    def rank_generation(self, rank: int) -> int:
        """The rank's churn generation (0 = the day-0 world)."""
        if self._churn is None:
            return 0
        return self._churn.get(rank, 0)

    def _rank_purpose(self, base: str, rank: int) -> str:
        """Stream purpose of ``base`` at the rank's churn generation."""
        generation = self.rank_generation(rank)
        return base if generation == 0 else f"{base}@{generation}"

    def rank_grid(self, rank: int) -> RankGrid:
        label, _ = self.target_parts(rank)
        reg_p = (self.config.peak_registration_probability
                 / (rank ** self.config.rank_decay))
        uniforms = self._stream(self._rank_purpose("reg", rank)).uniforms(
            rank, _grid_total(len(label)))
        generated, registered = _grid_draw(label, reg_p, uniforms)
        return RankGrid(label=label, generated=generated,
                        registered=np.asarray(registered, dtype=np.int64),
                        section_sizes=_sections(len(label)))

    def rank_states(self, rank: int) -> List[DomainState]:
        """Ground truth of every ctypo this rank registers, in grid order."""
        return list(self.iter_rank_states(rank, self.rank_grid(rank)))

    def iter_rank_states(self, rank: int,
                         grid: RankGrid) -> Iterable[DomainState]:
        """Stream the rank's registered-domain states (never a list)."""
        target = self.target_domain(rank)
        label = grid.label
        suffix = target[len(label) + 1:]
        for rec in self._iter_rank_records(rank, target, label, suffix,
                                           grid.registered.tolist()):
            (domain, owner_id, cls, profile, support, mx_domain, _mx_key,
             has_address, nameserver, private, proxy, fields, policy,
             op, index, char) = rec
            yield DomainState(
                domain=domain, target=target, rank=rank, edit_op=op,
                edit_index=index, edit_char=char, owner_id=owner_id,
                owner_type=_OWNER_BY_CODE[cls], profile=profile,
                support=_SUPPORT_BY_CODE[support], mx_domain=mx_domain,
                has_address=has_address, nameserver=nameserver,
                private_whois=private, privacy_proxy=proxy,
                whois_fields_filled=fields, longtail_policy=policy)

    def _iter_rank_records(self, rank: int, target: str, label: str,
                           suffix: str, registered: List[int]
                           ) -> Iterator[tuple]:
        """The rank's registered ctypos as plain tuples (the hot path).

        Each decision consumes exactly one uniform from the rank's "wild"
        stream, so the derivation is independent of how the consumer
        iterates.  Tuple layout: (domain, owner_id, owner class code,
        profile, support code, mx_domain, mx registrable domain,
        has_address, nameserver, private, proxy, whois fields, longtail
        policy, op, index, char); support travels as its
        ``_SUPPORT_BY_CODE`` index.
        """
        if not registered:
            return
        config = self.config
        n = len(registered)
        wu = self._stream(self._rank_purpose("wild", rank)).uniforms(
            rank, 12 * n + 4).tolist()
        wi = 0
        def_frac = config.defensive_fraction
        legit_cut = def_frac + config.legitimate_fraction
        bulk_share = config.bulk_share
        medium_cut = bulk_share + config.medium_share
        bulk_cum, bulk_total = self._bulk_cum, self._bulk_total
        bulk_ids, medium_ids = self._bulk_ids, self._medium_ids
        n_bulk, n_medium = len(bulk_ids), len(medium_ids)
        mixes = self._support_mixes
        pool_hosts, pool_broken = self._pool_hosts, self._pool_broken
        pool_cum, pool_total = self._pool_cum, self._pool_total
        mx_key_of = self._mx_key
        normal_ns, cesspool_ns = _NORMAL_NAMESERVERS, _CESSPOOL_NAMESERVERS
        n_normal, n_cesspool = len(normal_ns), len(cesspool_ns)
        proxies = PRIVACY_PROXIES
        n_proxies = len(proxies)
        catch_all = config.longtail_catch_all_rate
        reject_cut = catch_all + config.longtail_reject_all_rate
        n_del = len(label)
        n_trans = n_del - 1 if n_del > 1 else 0
        sub_base = n_del + n_trans
        add_base = sub_base + n_del * _ALPHA_SIZE
        dot_suffix = "." + suffix
        legit_count = 0
        small_count = 0
        for flat in registered:
            if flat < n_del:
                op, index, char = "deletion", flat, ""
                domain = label[:flat] + label[flat + 1:] + dot_suffix
            elif flat < sub_base:
                index = flat - n_del
                op, char = "transposition", ""
                domain = (label[:index] + label[index + 1]
                          + label[index] + label[index + 2:] + dot_suffix)
            elif flat < add_base:
                index, a = divmod(flat - sub_base, _ALPHA_SIZE)
                op, char = "substitution", DOMAIN_ALPHABET[a]
                domain = label[:index] + char + label[index + 1:] + dot_suffix
            else:
                index, a = divmod(flat - add_base, _ALPHA_SIZE)
                op, char = "addition", DOMAIN_ALPHABET[a]
                domain = label[:index] + char + label[index:] + dot_suffix

            owner_u = wu[wi]
            wi += 1
            if owner_u < def_frac:
                yield (domain, f"owner-{target}", 0, "", 5,
                       f"mx.{target}", target, False, f"ns.{target}",
                       False, None, 6, None, op, index, char)
                continue
            if owner_u < legit_cut:
                nameserver = normal_ns[min(int(wu[wi] * n_normal),
                                           n_normal - 1)]
                wi += 1
                private = wu[wi] < 0.25
                wi += 1
                proxy = None
                if private:
                    proxy = proxies[min(int(wu[wi] * n_proxies),
                                        n_proxies - 1)]
                    wi += 1
                policy = "catch_all" if wu[wi] < 0.1 else "reject_unknown"
                wi += 1
                yield (domain, f"legit-r{rank}-{legit_count}", 1, "", 5,
                       None, None, True, nameserver, private, proxy, 6,
                       policy, op, index, char)
                legit_count += 1
                continue

            # squatters --------------------------------------------------
            squatter_u = wu[wi]
            wi += 1
            if squatter_u < bulk_share:
                bulk_index = min(bisect_right(bulk_cum, wu[wi] * bulk_total),
                                 n_bulk - 1)
                wi += 1
                owner_id = bulk_ids[bulk_index]
                profile = "reseller" if bulk_index < 3 else "collector"
                cls = 2
            elif squatter_u < medium_cut:
                medium_index = min(int(wu[wi] * n_medium), n_medium - 1)
                wi += 1
                owner_id = medium_ids[medium_index]
                profile = "collector" if medium_index % 2 == 0 else "reseller"
                cls = 3
            else:
                owner_id = f"small-r{rank}-{small_count}"
                small_count += 1
                profile = "collector"
                cls = 4

            mix_names, mix_cum, mix_total = mixes[
                "longtail" if cls == 4 else
                ("reseller" if profile == "reseller" else "squatter")]
            support = mix_names[min(bisect_right(mix_cum, wu[wi] * mix_total),
                                    len(mix_names) - 1)]
            wi += 1

            if cls != 4:
                cesspool = True
            else:
                cesspool = wu[wi] < config.small_cesspool_rate
                wi += 1
            if cesspool:
                nameserver = cesspool_ns[min(int(wu[wi] * n_cesspool),
                                             n_cesspool - 1)]
            else:
                nameserver = normal_ns[min(int(wu[wi] * n_normal),
                                           n_normal - 1)]
            wi += 1

            mx_domain = None
            mx_key = None
            has_address = False
            policy = None
            if support != 0:
                if cls != 4:
                    if support == 1:
                        mx_domain = PARKED_MX_HOSTS[min(int(wu[wi] * 3), 2)]
                        wi += 1
                    elif support == 2:
                        mx_domain = WEB_MX_HOSTS[min(int(wu[wi] * 3), 2)]
                        wi += 1
                    else:
                        pool_index = min(
                            bisect_right(pool_cum, wu[wi] * pool_total),
                            len(pool_hosts) - 1)
                        wi += 1
                        mx_domain = pool_hosts[pool_index]
                        if pool_broken[pool_index]:
                            support = 4
                    mx_key = mx_key_of[mx_domain]
                else:
                    has_address = True
                    if wu[wi] < 0.1:
                        mx_domain = domain
                        mx_key = domain
                    wi += 1
                    if support != 2 and support != 1:
                        roll = wu[wi]
                        wi += 1
                        if roll < catch_all:
                            policy = "catch_all"
                        elif roll < reject_cut:
                            policy = "reject_unknown"
                        else:
                            policy = "domain"

            if cls != 4:
                privacy_rate = (0.05 if profile == "reseller"
                                else config.bulk_privacy_rate)
            elif policy == "catch_all":
                privacy_rate = 0.75
            else:
                privacy_rate = config.small_privacy_rate
            private = wu[wi] < privacy_rate
            wi += 1
            proxy = None
            fields = 6
            if private:
                proxy = proxies[min(int(wu[wi] * n_proxies), n_proxies - 1)]
                wi += 1
            elif wu[wi] >= 0.8:
                wi += 1
                fields = 2 + min(int(wu[wi] * 4), 3)
                wi += 1
            else:
                wi += 1

            yield (domain, owner_id, cls, profile, support, mx_domain,
                   mx_key, has_address, nameserver, private, proxy, fields,
                   policy, op, index, char)

    # -- the streaming scan ------------------------------------------------

    def scan_ranks(self, start_rank: int, stop_rank: int, *,
                   max_rank: Optional[int] = None,
                   exclude: Iterable[str] = (),
                   aggregates: Optional[ScanAggregates] = None,
                   retain: Optional[list] = None,
                   perf: Optional["PerfRegistry"] = None) -> ScanAggregates:
        """Scan ranks ``[start_rank, stop_rank)`` into streaming aggregates.

        ``max_rank`` is the size of the world's target universe (candidate
        strings colliding with a target domain are never wild typo
        registrations); it defaults to ``stop_rank - 1`` and must be held
        constant across the shards of one scan.  ``retain`` is the opt-in
        result sink for small scans: when given a list, each observation
        is appended as ``(DomainState, observed SmtpSupport)``; on the
        paper-scale path nothing per-result is kept.

        Setup is O(1) and the loop touches only this window's filler
        chunks: target collisions resolve through the O(1)
        :meth:`is_target_domain` law, never a materialized universe, so
        a shard's cost depends on its own width — not on ``stop_rank``
        or ``max_rank``.  ``perf`` (optional) accumulates
        ``scan.setup_seconds`` / ``scan.draw_seconds`` /
        ``scan.probe_seconds`` phase timers; when omitted the loop pays
        only a dead branch per rank.

        The probe emulation mirrors :meth:`EcosystemScanner._probe`
        against the host behaviours ``build_internet`` attaches: per
        attempt a timeout draw, then a network-error draw, then either a
        deterministic refusal (no listener) or the listening server's
        STARTTLS classification.  Hosts whose behaviour is deterministic
        (defensive mail, parked or web-only hosts) resolve without
        consuming probe uniforms.
        """
        timing = perf is not None
        entry_t = perf_counter() if timing else 0.0
        aggregates = aggregates if aggregates is not None else ScanAggregates()
        max_rank = max_rank or (stop_rank - 1)
        excluded = {domain.lower() for domain in exclude}
        check_exclude = bool(excluded)
        churn = self._churn
        probe_stream = self._stream("probe")
        attempts = self.probe_attempts
        config = self.config
        peak = config.peak_registration_probability
        decay = config.rank_decay
        reg_stream = self._stream("reg")
        small_timeout = config.longtail_timeout_probability
        small_neterr = config.longtail_network_error_probability
        support_by_code = _SUPPORT_BY_CODE
        is_target = self.is_target_domain
        head_n = len(self._head_names)
        head_parts = self._head_parts
        generated = 0
        registered_n = 0
        # categorical folds are flat index lists; dict folds only where the
        # key space is open-ended (MX domains, owners, targets)
        support_l = [0] * 6
        truth_l = [0] * 6
        owner_type_l = [0] * 5
        mx_c: Dict[str, int] = {}
        owner_dom_c: Dict[str, int] = {}
        per_target_c: Dict[str, int] = {}
        private_n = 0
        implicit_n = 0
        draw_s = 0.0
        probe_s = 0.0
        setup_s = (perf_counter() - entry_t) if timing else 0.0

        rank = start_rank
        while rank < stop_rank:
            # one block: the email-target head, or one filler chunk's
            # overlap with the scan window (chunk lookups, generated
            # counts, and name slicing amortize across the block)
            if rank <= head_n:
                base_rank = 1
                block_stop = min(stop_rank, head_n + 1)
                names = self._head_names
                counts = self._head_gen_counts
                filler = False
            else:
                chunk, _ = divmod(rank - 1 - head_n, _FILLER_CHUNK)
                names, counts = self._chunk(chunk)
                base_rank = head_n + chunk * _FILLER_CHUNK + 1
                block_stop = min(stop_rank, base_rank + _FILLER_CHUNK)
                filler = True
            for r in range(rank, block_stop):
                idx = r - base_rank
                name = names[idx]
                if filler:
                    label = name[:-4]
                    suffix = "com"
                else:
                    label, suffix = head_parts[idx]
                reg_p = peak / (r ** decay)
                if churn is not None and churn.get(r, 0):
                    generation = churn[r]
                    rank_reg = self._stream(f"reg@{generation}")
                    rank_probe = self._stream(f"probe@{generation}")
                else:
                    rank_reg = reg_stream
                    rank_probe = probe_stream
                if timing:
                    t0 = perf_counter()
                uniforms = rank_reg.uniforms(r, 76 * len(label) + 36)
                regs = _registered_flats(label, reg_p, uniforms)
                if timing:
                    draw_s += perf_counter() - t0
                generated += counts[idx]
                if not regs:
                    continue
                if timing:
                    t1 = perf_counter()
                target = name
                pu: Optional[list] = None
                pi = 0
                n = len(regs)
                scanned = 0
                for rec in self._iter_rank_records(r, target, label,
                                                   suffix, regs):
                    (domain, owner_id, cls, profile, support, mx_domain,
                     mx_key, has_address, nameserver, private, proxy,
                     fields, policy, op, index, char) = rec
                    if ((check_exclude and domain in excluded)
                            or is_target(domain, max_rank)):
                        continue
                    # probe emulation (all codes: 0 NO_DNS, 1 NO_INFO,
                    # 2 NO_EMAIL, 3 PLAIN, 4 STARTTLS_ERRORS,
                    # 5 STARTTLS_OK)
                    if support == 0:
                        observed = 0
                    elif cls == 0:
                        observed = 5
                    elif support == 2 or (cls != 4 and cls != 1
                                          and support == 1):
                        # web-parked or refused hosts answer
                        # deterministically
                        observed = support
                    else:
                        if cls == 1:
                            timeout_p, neterr_p = 0.05, 0.03
                            starttls, broken = True, False
                            listener = True
                        elif cls != 4:
                            timeout_p, neterr_p = 0.03, 0.02
                            starttls, broken = True, support == 4
                            listener = True
                        elif support == 1:
                            timeout_p, neterr_p = 0.97, 0.03
                            listener = False
                        else:
                            timeout_p, neterr_p = (small_timeout,
                                                   small_neterr)
                            starttls, broken = support != 3, support == 4
                            listener = True
                        if pu is None:
                            pu = rank_probe.uniforms(
                                r, 2 * attempts * n + 2).tolist()
                        observed = -1
                        refused = False
                        for _ in range(attempts):
                            if pu[pi] < timeout_p:
                                pi += 1
                                continue
                            pi += 1
                            if pu[pi] < neterr_p:
                                pi += 1
                                continue
                            pi += 1
                            if not listener:
                                refused = True
                                continue
                            observed = (4 if broken
                                        else (5 if starttls else 3))
                            break
                        if observed < 0:
                            observed = 2 if refused else 1
                    # fold --------------------------------------------
                    scanned += 1
                    support_l[observed] += 1
                    truth_l[support] += 1
                    if mx_key is not None:
                        mx_c[mx_key] = mx_c.get(mx_key, 0) + 1
                    elif has_address:
                        implicit_n += 1
                    if cls == 2 or cls == 3:
                        owner_dom_c[owner_id] = (
                            owner_dom_c.get(owner_id, 0) + 1)
                    owner_type_l[cls] += 1
                    if private:
                        private_n += 1
                    if retain is not None:
                        retain.append((DomainState(
                            domain=domain, target=target, rank=r,
                            edit_op=op, edit_index=index, edit_char=char,
                            owner_id=owner_id,
                            owner_type=_OWNER_BY_CODE[cls],
                            profile=profile,
                            support=support_by_code[support],
                            mx_domain=mx_domain, has_address=has_address,
                            nameserver=nameserver, private_whois=private,
                            privacy_proxy=proxy,
                            whois_fields_filled=fields,
                            longtail_policy=policy),
                            support_by_code[observed]))
                if scanned:
                    registered_n += scanned
                    per_target_c[target] = (
                        per_target_c.get(target, 0) + scanned)
                if timing:
                    probe_s += perf_counter() - t1
            rank = block_stop

        aggregates.fold_flat(
            generated, registered_n, support_l, truth_l, owner_type_l,
            _SUPPORT_VALUE_BY_CODE, _OWNER_VALUE_BY_CODE,
            mx_c, owner_dom_c, per_target_c, private_n, implicit_n)
        if timing:
            perf.add_seconds("scan.setup_seconds", setup_s)
            perf.add_seconds("scan.draw_seconds", draw_s)
            perf.add_seconds("scan.probe_seconds", probe_s)
            perf.count("scan.ranks", stop_rank - start_rank)
        return aggregates

    # -- the feature sweep -------------------------------------------------

    def _stem_syllables(self, cache: Dict[int, tuple],
                        chunk: int) -> tuple:
        """(flat syllable indices, third-syllable flags) of a filler chunk.

        The collision confirm of :meth:`featurize_ranks` only needs the
        *stem* of a candidate filler name, so it derives the chunk's
        syllable draws (pure numpy, ~60us) without paying
        :func:`_filler_chunk`'s per-name Python loop, and keeps them in a
        sweep-local cache the caller bounds.
        """
        cached = cache.get(chunk)
        if cached is None:
            uniforms = _rank_uniforms(self.seed, "fillers", chunk,
                                      _FILLER_CHUNK * 7)
            u = uniforms.reshape(_FILLER_CHUNK, 7)
            n_onsets = len(_PRONOUNCEABLE_ONSETS)
            n_vowels = len(_PRONOUNCEABLE_VOWELS)
            onset_i = np.minimum((u[:, 1::2] * n_onsets).astype(np.intp),
                                 n_onsets - 1)
            vowel_i = np.minimum((u[:, 2::2] * n_vowels).astype(np.intp),
                                 n_vowels - 1)
            cached = ((onset_i * n_vowels + vowel_i).astype(np.uint16),
                      u[:, 0] >= 0.5)
            if len(cache) >= 4096:
                cache.clear()          # keep a 10x-scale sweep bounded
            cache[chunk] = cached
        return cached

    def _featurize_batch(self, rb0: int, rb1: int, base_rank: int,
                         names: List[str], filler: bool,
                         bufh: list) -> tuple:
        """Batched registration draws + preselect for ranks ``[rb0, rb1)``.

        Draws every rank's registration stream into one reused matrix
        (rows grouped by label length) and preselects candidates with a
        single vector compare per length slab, replacing ~5 small numpy
        dispatches per rank with ~3 per 256 ranks.  Returns ``(labels,
        cands, rows, churned)``: per-rank labels; preselect outcome
        (``None`` no candidates, ``_DENSE`` run the dense scalar path on
        the stored draw row, else ``(flats, uniforms)`` for
        :func:`_confirm_flats`); each rank's draw-matrix row; and per-rank
        churn generations (``None`` for a churn-free window — churned
        ranks draw from re-keyed streams, so the caller resolves them
        rank-at-a-time and their matrix rows stay unfilled).
        """
        m = rb1 - rb0
        head_parts = self._head_parts
        labels: List[str] = []
        if filler:
            for r in range(rb0, rb1):
                labels.append(names[r - base_rank][:-4])
        else:
            for r in range(rb0, rb1):
                labels.append(head_parts[r - base_rank][0])
        churn = self._churn
        churned = ([churn.get(r, 0) for r in range(rb0, rb1)]
                   if churn is not None else None)
        order = sorted(range(m), key=lambda p: len(labels[p]))
        g_max = 76 * len(labels[order[-1]]) + 36
        buf = bufh[0]
        if buf is None or buf.shape[1] < g_max:
            buf = np.empty((_FEATURE_BATCH, g_max))
            bufh[0] = buf
        fill = self._stream("reg").uniforms_into
        rows = [0] * m
        for j, p in enumerate(order):
            rows[p] = j
            if churned is not None and churned[p]:
                continue
            fill(rb0 + p, buf[j, :76 * len(labels[p]) + 36])
        peak = self.config.peak_registration_probability
        decay = self.config.rank_decay
        # np.power can differ from the scalar ``peak / r ** decay`` law
        # in the last ulp, so both derived tests are padded to stay
        # conservative: the preselect must remain a superset (the exact
        # scalar confirm decides), and a rank flagged dense merely runs
        # the exact dense/sparse split inside _registered_flats
        reg_all = (peak * (1.0 + 1e-9)) * np.power(
            np.array(order, dtype=np.float64) + rb0, -decay)
        dense_all = reg_all * _QUALITY_MAX >= 0.95 * (1.0 - 1e-9)
        cands: List[Optional[tuple]] = [None] * m
        j0 = 0
        while j0 < m:
            length = len(labels[order[j0]])
            j1 = j0 + 1
            while j1 < m and len(labels[order[j1]]) == length:
                j1 += 1
            slab = buf[j0:j1, :76 * length + 36]
            reg_ps = reg_all[j0:j1]
            hits = slab < reg_ps[:, None] * _section_upper(length)
            dense = dense_all[j0:j1]
            if dense.any():
                hits[dense] = False
                for jj in np.nonzero(dense)[0].tolist():
                    cands[order[j0 + jj]] = _DENSE
            rows_h, cols_h = np.nonzero(hits)
            if rows_h.size:
                uv = slab[rows_h, cols_h].tolist()
                rlist = rows_h.tolist()
                clist = cols_h.tolist()
                nh = len(rlist)
                k = 0
                while k < nh:
                    row = rlist[k]
                    k2 = k + 1
                    while k2 < nh and rlist[k2] == row:
                        k2 += 1
                    cands[order[j0 + row]] = (clist[k:k2], uv[k:k2])
                    k = k2
            j0 = j1
        return labels, cands, rows, churned

    def featurize_ranks(self, start_rank: int, stop_rank: int, *,
                        max_rank: Optional[int] = None,
                        on_block=None, block_records: int = 65536,
                        perf: Optional["PerfRegistry"] = None
                        ) -> Tuple[int, int, int]:
        """Stream packed feature rows for every wild ctypo in the window.

        The columnar twin of :meth:`scan_ranks`: the same registration
        law, the same wild-state stream consumption (the parity tests pin
        every row against :meth:`iter_rank_states`), but instead of
        probing it emits one ``(packed int64, visual float)`` pair per
        wild registered ctypo plus per-rank shared context, batched into
        blocks for vectorized featurization downstream.  ``on_block``
        receives ``(rank_l, nrows_l, len_l, tdigit_l, tadj_l, packed_l,
        vis_l)`` — the first five parallel per contributing rank, the
        last two per row — whenever ``block_records`` rows accumulate.

        Returns ``(rows, excluded, generated)``; ``excluded`` counts
        registrations skipped because the candidate string collides with
        a target domain of the ``max_rank`` universe (the same wildness
        rule the scan applies, via the same membership law — confirmed
        against chunk *stems* so a deep sweep never materializes foreign
        filler chunks).  Bounded memory: per-block lists, a capped
        stem cache, and the window's own filler chunks only.
        """
        timing = perf is not None
        entry_t = perf_counter() if timing else 0.0
        max_rank = max_rank or (stop_rank - 1)
        churn = self._churn
        config = self.config
        peak = config.peak_registration_probability
        decay = config.rank_decay
        wild_stream = self._stream("wild")
        head_n = len(self._head_names)
        head_parts = self._head_parts
        head_rank = self._head_rank
        chunks_cache = self._chunks
        stem_cache: Dict[int, tuple] = {}
        stem_tbl: Dict[str, tuple] = {}
        bufh: list = [None]   # reused draw matrix across batches
        syl = _syllable_table()
        head_com = {lbl: rk for rk, (lbl, sfx0)
                    in enumerate(head_parts, start=1) if sfx0 == "com"}
        # the digit-run collision fast path assumes no head label
        # contains a digit (a filler typo that keeps digits in place
        # can then never spell a head); disable it should the target
        # list ever grow one
        prefilter_ok = not any(any(ch.isdigit() for ch in lbl)
                               for lbl, _ in head_parts)

        def_frac = config.defensive_fraction
        legit_cut = def_frac + config.legitimate_fraction
        bulk_share = config.bulk_share
        medium_cut = bulk_share + config.medium_share
        bulk_cum, bulk_total = self._bulk_cum, self._bulk_total
        n_bulk = len(self._bulk_ids)
        n_medium = len(self._medium_ids)
        mix_sq, mix_rs, mix_lt = (self._support_mixes["squatter"],
                                  self._support_mixes["reseller"],
                                  self._support_mixes["longtail"])
        pool_broken = self._pool_broken
        pool_cum, pool_total = self._pool_cum, self._pool_total
        n_pool = len(self._pool_hosts)
        catch_all = config.longtail_catch_all_rate
        reject_cut = catch_all + config.longtail_reject_all_rate
        small_cess = config.small_cesspool_rate
        bulk_privacy = config.bulk_privacy_rate
        small_privacy = config.small_privacy_rate

        code2idx = _CODE2IDX_LIST
        is_digit, is_vowel = _IDX_IS_DIGIT, _IDX_IS_VOWEL
        is_hyphen = _IDX_IS_HYPHEN
        _char_tables()
        adj_t = _ADJ_LIST
        alpha = DOMAIN_ALPHABET

        # branch-constant packed partials (see FEATURE_PACK_SHIFTS)
        pack_defensive = ((5 << 32) | (2 << 36) | (6 << 39) | (5 << 44))
        pack_legit = ((1 << 35) | (1 << 36) | (6 << 39) | (5 << 44))
        squat_bit = 1 << 47

        rank_l: List[int] = []
        nrows_l: List[int] = []
        len_l: List[int] = []
        tdigit_l: List[float] = []
        tadj_l: List[float] = []
        packed_l: List[int] = []
        vis_l: List[float] = []
        pack_append = packed_l.append
        vis_append = vis_l.append

        n_rows = 0
        n_excluded = 0
        generated = 0
        setup_s = (perf_counter() - entry_t) if timing else 0.0

        rank = start_rank
        while rank < stop_rank:
            if rank <= head_n:
                base_rank = 1
                block_stop = min(stop_rank, head_n + 1)
                names = self._head_names
                counts = self._head_gen_counts
                filler = False
            else:
                chunk, _ = divmod(rank - 1 - head_n, _FILLER_CHUNK)
                names, counts = self._chunk(chunk)
                base_rank = head_n + chunk * _FILLER_CHUNK + 1
                block_stop = min(stop_rank, base_rank + _FILLER_CHUNK)
                filler = True
            generated += sum(counts[rank - base_rank:
                                    block_stop - base_rank])
            batch = None
            batch_base = rank
            for r in range(rank, block_stop):
                p = r - batch_base
                if batch is None or p == len(batch[0]):
                    batch_base = r
                    batch = self._featurize_batch(
                        r, min(r + _FEATURE_BATCH, block_stop),
                        base_rank, names, filler, bufh)
                    p = 0
                labels_b, cands, row_of, churned = batch
                label = labels_b[p]
                L = len(label)
                if churned is not None and churned[p]:
                    generation = churned[p]
                    reg_p = peak / (r ** decay)
                    rank_wild = self._stream(f"wild@{generation}")
                    src_flats = _registered_flats(
                        label, reg_p,
                        self._stream(f"reg@{generation}").uniforms(
                            r, 76 * L + 36))
                    if not src_flats:
                        continue
                    uv = None
                else:
                    rank_wild = wild_stream
                    c = cands[p]
                    if c is None:
                        continue
                    reg_p = peak / (r ** decay)
                    if c is _DENSE:
                        src_flats = _registered_flats(
                            label, reg_p, bufh[0][row_of[p], :76 * L + 36])
                        if not src_flats:
                            continue
                        uv = None
                    else:
                        src_flats, uv = c

                # per-rank shared tables; filler labels are stem+digits
                # with the stem drawn from a bounded syllable vocabulary,
                # so stem-side stats come from a capped cache and only
                # the short digit suffix is walked per rank
                if filler:
                    dstr = str(r - head_n - 1)
                    nd = len(dstr)
                    nstem = L - nd
                    stem = label[:nstem]
                    ent = stem_tbl.get(stem)
                    if ent is None:
                        s_lidx = [code2idx[ord(ch)] for ch in stem]
                        svow = 0
                        sadj = 0
                        prev = -1
                        for a0 in s_lidx:
                            if is_vowel[a0]:
                                svow += 1
                            if prev >= 0 and adj_t[prev][a0]:
                                sadj += 1
                            prev = a0
                        if len(stem_tbl) >= 131072:
                            stem_tbl.clear()
                        ent = (s_lidx, svow, sadj)
                        stem_tbl[stem] = ent
                    s_lidx, svow, sadj = ent
                    d_lidx = [code2idx[ord(ch)] for ch in dstr]
                    lidx = s_lidx + d_lidx
                    base_digits = nd
                    base_hyphens = 0
                    base_vowels = svow
                    adj_pairs = sadj
                    prev = s_lidx[nstem - 1]
                    for a0 in d_lidx:
                        if adj_t[prev][a0]:
                            adj_pairs += 1
                        prev = a0
                    tgt_dig_frac = nd / L
                    tgt_adj_frac = adj_pairs / (L - 1)
                    # collision prefilter: only edits at or after the
                    # last stem letter can change the trailing digit
                    # run, and an unchanged run decodes to the target's
                    # own slot — never a typo match (heads always check)
                    safe_below = nstem - 1 if prefilter_ok else 0
                else:
                    lidx = [code2idx[ord(ch)] for ch in label]
                    base_digits = 0
                    base_hyphens = 0
                    base_vowels = 0
                    adj_pairs = 0
                    prev = -1
                    for a0 in lidx:
                        if is_digit[a0]:
                            base_digits += 1
                        elif is_vowel[a0]:
                            base_vowels += 1
                        elif is_hyphen[a0]:
                            base_hyphens += 1
                        if prev >= 0 and adj_t[prev][a0]:
                            adj_pairs += 1
                        prev = a0
                    tgt_dig_frac = base_digits / L
                    tgt_adj_frac = adj_pairs / (L - 1) if L > 1 else 0.0
                    safe_below = 0

                posw = _position_weight_list(L)
                decoded = _confirm_decoded(lidx, posw, reg_p, src_flats,
                                           uv, base_digits, base_hyphens,
                                           base_vowels)
                if not decoded:
                    continue
                sfx = "com" if filler else head_parts[r - base_rank][1]
                fast = filler and prefilter_ok

                n = len(decoded)
                wu = rank_wild.uniforms(r, 12 * n + 4).tolist()
                wi = 0
                rank_rows = 0

                for pack_lex, vis, op, index, a in decoded:
                    # the wild-state walk: stream consumption identical
                    # to _iter_rank_records (the parity tests pin it) ---
                    owner_u = wu[wi]
                    wi += 1
                    if owner_u < def_frac:
                        packed = pack_defensive
                    elif owner_u < legit_cut:
                        wi += 1                     # nameserver pick
                        private = wu[wi] < 0.25
                        wi += 1
                        if private:
                            wi += 1                 # proxy pick
                        policy = 1 if wu[wi] < 0.1 else 2
                        wi += 1
                        packed = (pack_legit | (policy << 42)
                                  | ((1 << 38) if private else 0))
                    else:
                        squatter_u = wu[wi]
                        wi += 1
                        if squatter_u < bulk_share:
                            bulk_index = min(
                                bisect_right(bulk_cum, wu[wi] * bulk_total),
                                n_bulk - 1)
                            wi += 1
                            reseller = bulk_index < 3
                            cls4 = False
                        elif squatter_u < medium_cut:
                            medium_index = min(int(wu[wi] * n_medium),
                                               n_medium - 1)
                            wi += 1
                            reseller = medium_index % 2 != 0
                            cls4 = False
                        else:
                            reseller = False
                            cls4 = True
                        mix_names, mix_cum, mix_total = (
                            mix_lt if cls4
                            else (mix_rs if reseller else mix_sq))
                        support = mix_names[min(
                            bisect_right(mix_cum, wu[wi] * mix_total),
                            len(mix_names) - 1)]
                        wi += 1
                        if cls4:
                            cesspool = wu[wi] < small_cess
                            wi += 1
                        else:
                            cesspool = True
                        wi += 1                     # nameserver pick
                        mx_code = 0
                        addr = 0
                        policy = 0
                        if support != 0:
                            if not cls4:
                                if support == 1:
                                    mx_code = 1
                                    wi += 1
                                elif support == 2:
                                    mx_code = 2
                                    wi += 1
                                else:
                                    pool_index = min(
                                        bisect_right(pool_cum,
                                                     wu[wi] * pool_total),
                                        n_pool - 1)
                                    wi += 1
                                    mx_code = 3
                                    if pool_broken[pool_index]:
                                        support = 4
                            else:
                                addr = 1
                                if wu[wi] < 0.1:
                                    mx_code = 4
                                wi += 1
                                if support != 2 and support != 1:
                                    roll = wu[wi]
                                    wi += 1
                                    if roll < catch_all:
                                        policy = 1
                                    elif roll < reject_cut:
                                        policy = 2
                                    else:
                                        policy = 3
                        if not cls4:
                            privacy_rate = (0.05 if reseller
                                            else bulk_privacy)
                        elif policy == 1:
                            privacy_rate = 0.75
                        else:
                            privacy_rate = small_privacy
                        private = wu[wi] < privacy_rate
                        wi += 1
                        fields = 6
                        if private:
                            wi += 1                 # proxy pick
                        elif wu[wi] >= 0.8:
                            wi += 1
                            fields = 2 + min(int(wu[wi] * 4), 3)
                            wi += 1
                        else:
                            wi += 1
                        packed = (squat_bit | (mx_code << 32) | (addr << 35)
                                  | ((0 if cesspool else 1) << 36)
                                  | ((1 << 38) if private else 0)
                                  | (fields << 39) | (policy << 42)
                                  | (support << 44))

                    # wildness: drop candidates colliding with a target.
                    # Fast path (fillers, digit-free head list): a typo
                    # can only match a filler name if it still reads as
                    # letters(4-9)+digits — edits confined to the digit
                    # run keep the stem and just move the slot (compare
                    # that slot's stem), letter/hyphen edits inside the
                    # run break the shape, and boundary edits that keep
                    # the shape decode to the target's own slot.  The
                    # few stem-changing shapes fall back to the generic
                    # membership walk, as do all head ranks.
                    if index >= safe_below:
                        if fast:
                            digits2 = None
                            generic = False
                            if op == 0:
                                if index < nstem:
                                    generic = True
                                else:
                                    kk = index - nstem
                                    d2 = dstr[:kk] + dstr[kk + 1:]
                                    if not d2:
                                        hit = head_com.get(stem)
                                        if (hit is not None
                                                and hit <= max_rank):
                                            n_excluded += 1
                                            continue
                                    elif not (d2[0] == "0" and nd > 2):
                                        digits2 = d2
                            elif op == 1:
                                if index >= nstem:
                                    kk = index - nstem
                                    d2 = (dstr[:kk] + dstr[kk + 1]
                                          + dstr[kk] + dstr[kk + 2:])
                                    if not (d2[0] == "0" and nd > 1):
                                        digits2 = d2
                            elif op == 2:
                                if index >= nstem:
                                    if is_digit[a]:
                                        kk = index - nstem
                                        d2 = (dstr[:kk] + alpha[a]
                                              + dstr[kk + 1:])
                                        if not (d2[0] == "0" and nd > 1):
                                            digits2 = d2
                                    elif index == nstem:
                                        generic = True
                                elif is_digit[a]:
                                    generic = True
                            else:
                                if index >= nstem and is_digit[a]:
                                    kk = index - nstem
                                    d2 = (dstr[:kk] + alpha[a]
                                          + dstr[kk:])
                                    if d2[0] != "0":
                                        digits2 = d2
                            if digits2 is not None:
                                index2 = int(digits2)
                                if index2 < max_rank - head_n:
                                    chunk2, off2 = divmod(
                                        index2, _FILLER_CHUNK)
                                    known = chunks_cache.get(chunk2)
                                    if known is not None:
                                        match = (known[0][off2]
                                                 == stem + digits2
                                                 + ".com")
                                    else:
                                        flat_i, third = \
                                            self._stem_syllables(
                                                stem_cache, chunk2)
                                        s1, s2, s3 = flat_i[off2]
                                        cand = (syl[s1] + syl[s2]
                                                + syl[s3]
                                                if third[off2]
                                                else syl[s1] + syl[s2])
                                        match = cand == stem
                                    if match:
                                        n_excluded += 1
                                        continue
                            if not generic:
                                pack_append(packed | pack_lex)
                                vis_append(vis)
                                rank_rows += 1
                                continue
                        if op == 0:
                            typo = label[:index] + label[index + 1:]
                        elif op == 1:
                            typo = (label[:index] + label[index + 1]
                                    + label[index] + label[index + 2:])
                        elif op == 2:
                            typo = (label[:index] + alpha[a]
                                    + label[index + 1:])
                        else:
                            typo = (label[:index] + alpha[a]
                                    + label[index:])
                        hit = head_rank.get(typo + "." + sfx)
                        if hit is not None and hit <= max_rank:
                            n_excluded += 1
                            continue
                        if sfx == "com":
                            stem2 = typo.rstrip("0123456789")
                            nstem2 = len(stem2)
                            if 4 <= nstem2 <= 9 and nstem2 < len(typo):
                                digits2 = typo[nstem2:]
                                if not (digits2[0] == "0"
                                        and len(digits2) > 1):
                                    index2 = int(digits2)
                                    if index2 < max_rank - head_n:
                                        chunk2, off2 = divmod(
                                            index2, _FILLER_CHUNK)
                                        known = chunks_cache.get(chunk2)
                                        if known is not None:
                                            match = (known[0][off2]
                                                     == typo + ".com")
                                        else:
                                            flat_i, third = \
                                                self._stem_syllables(
                                                    stem_cache, chunk2)
                                            s1, s2, s3 = flat_i[off2]
                                            cand = (syl[s1] + syl[s2]
                                                    + syl[s3]
                                                    if third[off2]
                                                    else syl[s1] + syl[s2])
                                            match = cand == stem2
                                        if match:
                                            n_excluded += 1
                                            continue

                    pack_append(packed | pack_lex)
                    vis_append(vis)
                    rank_rows += 1

                if rank_rows:
                    n_rows += rank_rows
                    rank_l.append(r)
                    nrows_l.append(rank_rows)
                    len_l.append(L)
                    tdigit_l.append(tgt_dig_frac)
                    tadj_l.append(tgt_adj_frac)
                    if len(packed_l) >= block_records and on_block is not None:
                        on_block((rank_l, nrows_l, len_l, tdigit_l,
                                  tadj_l, packed_l, vis_l))
                        rank_l, nrows_l, len_l = [], [], []
                        tdigit_l, tadj_l = [], []
                        packed_l, vis_l = [], []
                        pack_append = packed_l.append
                        vis_append = vis_l.append
            rank = block_stop

        if packed_l and on_block is not None:
            on_block((rank_l, nrows_l, len_l, tdigit_l, tadj_l,
                      packed_l, vis_l))
        if timing:
            perf.add_seconds("featurize.setup_seconds", setup_s)
            perf.add_seconds("featurize.walk_seconds",
                             perf_counter() - entry_t - setup_s)
            perf.count("featurize.ranks", stop_rank - start_rank)
            perf.count("featurize.rows", n_rows)
        return n_rows, n_excluded, generated


def _cumulative(weights: List[float]) -> Tuple[List[float], float]:
    """(inclusive cumulative sums, total) for bisect-based weighted draws."""
    cum: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight
        cum.append(acc)
    if acc <= 0:
        raise ValueError("weights must have a positive sum")
    return cum, acc
