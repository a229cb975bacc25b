"""The resident typo-risk index: retrieval parity with brute force.

The tentpole guarantee of the service layer is that the precomputed
candidate index is *pure acceleration*: for any query string whatsoever
— clean, typo, unicode, junk, over-long — :meth:`candidate_ranks`
returns exactly the set a brute-force DL scan over every materialized
target would, and never raises.  These tests pin that with hypothesis
over arbitrary text plus crafted adversarial shapes (digit-boundary
filler edits, deletion bridges between neighbouring head targets).
"""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EMAIL_TARGETS
from repro.core.distances import damerau_levenshtein
from repro.core.typogen import apply_edit, enumerate_edit_ops, split_domain
from repro.service import TypoRiskIndex, normalize_query
from repro.service.workload import _EDGE_QUERIES, LookupWorkload
from repro.util.errors import ConfigError
from repro.util.rand import SeededRng

SEED = 606
MAX_RANK = 1200


@pytest.fixture(scope="module")
def index():
    return TypoRiskIndex(SEED, MAX_RANK)


# text that exercises the parser and both retrieval layers: plain
# labels, dots, digits, hyphens, the "@" address form, unicode
QUERY_ALPHABET = string.ascii_lowercase + string.digits + ".-@" + "AZ" \
    + "áñм"
QUERIES = st.text(alphabet=QUERY_ALPHABET, min_size=0, max_size=24)


class TestRetrievalParity:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(QUERIES)
    def test_arbitrary_text(self, index, query):
        assert index.candidate_ranks(query) == \
            index.brute_force_candidate_ranks(query)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=1, max_value=MAX_RANK),
           st.randoms(use_true_random=False))
    def test_single_edits_of_targets(self, index, rank, rnd):
        """One random DL-1 edit of any target must retrieve that target."""
        label, suffix = index.world.target_parts(rank)
        ops = enumerate_edit_ops(label)
        op, edit_index, char = ops[rnd.randrange(len(ops))]
        typo = f"{apply_edit(label, op, edit_index, char)}.{suffix}"
        ranks = index.candidate_ranks(typo)
        assert ranks == index.brute_force_candidate_ranks(typo)
        # the edited rank is itself within one edit, so it must appear
        # (unless the edit produced another target exactly — then the
        # exact rank is still included, distance 0)
        assert rank in ranks

    def test_edge_queries_never_raise(self, index):
        for query in _EDGE_QUERIES:
            assert index.candidate_ranks(query) == \
                index.brute_force_candidate_ranks(query)

    def test_exact_targets_retrieve_themselves(self, index):
        rng = SeededRng(7)
        ranks = {1, 2, len(EMAIL_TARGETS), len(EMAIL_TARGETS) + 1,
                 MAX_RANK} | {rng.randint(1, MAX_RANK) for _ in range(24)}
        for rank in sorted(ranks):
            domain = index.world.target_domain(rank)
            assert rank in index.candidate_ranks(domain)
            assert index.target_rank(domain) == rank

    def test_digit_boundary_filler_edits(self, index):
        """Edits in the numeric tail hop between filler indexes."""
        first_filler = len(EMAIL_TARGETS) + 1
        for rank in (first_filler, first_filler + 9, first_filler + 99,
                     MAX_RANK - 1, MAX_RANK):
            label, suffix = index.world.target_parts(rank)
            stem = label.rstrip(string.digits)
            digits = label[len(stem):]
            # substitute every digit position with every digit — these
            # are the collisions most likely to hit *other* fillers
            for position in range(len(digits)):
                for digit in "0123456789":
                    typo = (f"{stem}{digits[:position]}{digit}"
                            f"{digits[position + 1:]}.{suffix}")
                    assert index.candidate_ranks(typo) == \
                        index.brute_force_candidate_ranks(typo), typo

    def test_overlong_and_empty_labels_are_empty(self, index):
        for query in ("", ".", "com", "a" * 70 + ".com",
                      "b" * 200, "@@@", "x.y.z." + "q" * 64):
            assert index.candidate_ranks(query) == ()


class TestNormalization:
    def test_normalize_query_strips_case_dot_and_address(self):
        assert normalize_query(" GMAIL.COM. ") == "gmail.com"
        assert normalize_query("User@Gmial.Com") == "gmial.com"
        assert normalize_query("a@b@gmail.com") == "gmail.com"

    def test_candidates_see_through_address_form(self, index):
        assert index.candidate_ranks("someone@gmail.com") == \
            index.candidate_ranks("gmail.com")


class TestRegisteredGroundTruth:
    def test_registered_labels_match_rank_states(self, index):
        """The index's ctypo cache is the world's own ground truth."""
        for rank in (1, 3, len(EMAIL_TARGETS) + 1, 40):
            states = index.world.rank_states(rank)
            suffix = index.world.target_parts(rank)[1]
            expected = {split_domain(state.domain)[0] for state in states}
            assert index.registered_typo_labels(rank) == expected
            for state in states:
                label = split_domain(state.domain)[0]
                assert state.domain.endswith("." + suffix)
                assert index.is_registered_typo(label, rank)


class TestConstruction:
    def test_max_rank_must_be_positive(self):
        with pytest.raises(ConfigError):
            TypoRiskIndex(SEED, 0)

    def test_head_only_world_has_no_filler_probes(self):
        tiny = TypoRiskIndex(SEED, 5)
        assert tiny.candidate_ranks("gmial.com") == \
            tiny.brute_force_candidate_ranks("gmial.com")
        # a filler-shaped query cannot match anything in a 5-rank world
        assert tiny.candidate_ranks("abcd123.com") == ()

    def test_build_is_fast_and_counted(self, index):
        assert index.build_seconds < 1.0
        assert index.head_bucket_count > len(EMAIL_TARGETS)


# -- retrieval at paper-like scale ------------------------------------------

WIDE_RANK = 100_000
FIRST_FILLER = len(EMAIL_TARGETS) + 1


@pytest.fixture(scope="module")
def wide_index():
    return TypoRiskIndex(SEED, WIDE_RANK)


def _wide_filler_ranks():
    """Two filler ranks per index width (1-5 digits) plus the last rank."""
    rng = SeededRng(13)
    ranks = []
    for width in range(1, 6):
        low = 0 if width == 1 else 10 ** (width - 1)
        high = min(10 ** width, WIDE_RANK - FIRST_FILLER + 1) - 1
        ranks += [FIRST_FILLER + low, FIRST_FILLER + rng.randint(low, high)]
    return ranks + [WIDE_RANK]


def _assert_sound(index, query, ranks):
    """Every returned rank is a same-suffix target within DL-1."""
    label, suffix = split_domain(normalize_query(query))
    for rank in ranks:
        t_label, t_suffix = index.world.target_parts(rank)
        assert t_suffix == suffix, (query, rank)
        assert damerau_levenshtein(label, t_label) <= 1, (query, rank)


class TestWideRetrieval:
    """5-digit filler indices, which the 1,200-rank parity suite never
    reaches.  No brute force: soundness is checked per returned rank and
    completeness against the filler each query was edited from."""

    @pytest.mark.parametrize("rank", _wide_filler_ranks())
    def test_every_single_edit_retrieves_its_filler(self, wide_index, rank):
        label, suffix = wide_index.world.target_parts(rank)
        for op, position, char in enumerate_edit_ops(label):
            query = f"{apply_edit(label, op, position, char)}.{suffix}"
            ranks = wide_index.candidate_ranks(query)
            assert rank in ranks, query
            _assert_sound(wide_index, query, ranks)


def _boundary_shapes(label):
    """Single edits of a filler label around its letter/digit boundary."""
    stem = label.rstrip(string.digits)
    n = len(stem)
    return {
        # brene305 -> bren3e05: a digit moved into the stem
        "digit_into_stem": label[:n - 1] + label[n] + label[n - 1]
        + label[n + 1:],
        "last_letter_to_digit": label[:n - 1] + "7" + label[n:],
        "first_digit_to_letter": label[:n] + "x" + label[n + 1:],
        "deletion_exposes_leading_zero": label[:n] + label[n + 1:],
        "hyphen_before_last_letter": label[:n - 1] + "-" + label[n - 1:],
        "hyphen_at_boundary": label[:n] + "-" + label[n:],
        "hyphen_after_first_digit": label[:n + 1] + "-" + label[n + 1:],
        "hyphen_for_last_letter": label[:n - 1] + "-" + label[n:],
        "hyphen_for_first_digit": label[:n] + "-" + label[n + 1:],
    }


def _boundary_filler_ranks(index):
    """Per index width >= 2, the first filler whose run's second digit is
    0, so deleting the first digit leaves a leading zero."""
    ranks = []
    width_max = len(str(index.max_rank - FIRST_FILLER))
    for width in range(2, width_max + 1):
        for slot in range(10 ** (width - 1), 10 ** width):
            rank = FIRST_FILLER + slot
            if rank > index.max_rank:
                break
            if str(slot)[1] == "0":
                ranks.append(rank)
                break
    return ranks


class TestBoundaryShapes:
    def test_wide_index_retrieves_the_edited_filler(self, wide_index):
        ranks = _boundary_filler_ranks(wide_index)
        assert len(ranks) == 4          # widths 2..5
        for rank in ranks:
            label = wide_index.world.target_parts(rank)[0]
            assert str(rank - FIRST_FILLER)[1] == "0"
            for shape, typo in _boundary_shapes(label).items():
                query = f"{typo}.com"
                found = wide_index.candidate_ranks(query)
                assert rank in found, (shape, query)
                _assert_sound(wide_index, query, found)

    def test_match_brute_force(self, index):
        for rank in _boundary_filler_ranks(index):
            label = index.world.target_parts(rank)[0]
            for shape, typo in _boundary_shapes(label).items():
                query = f"{typo}.com"
                ranks = index.candidate_ranks(query)
                assert rank in ranks, (shape, query)
                assert ranks == index.brute_force_candidate_ranks(query), \
                    (shape, query)

    def test_all_digit_labels(self, index, wide_index):
        for digits in ("0", "7", "305", "1024", "99999", "100000"):
            query = f"{digits}.com"
            assert index.candidate_ranks(query) == \
                index.brute_force_candidate_ranks(query)
            assert wide_index.candidate_ranks(query) == ()


# -- probe budget ----------------------------------------------------------

class TestProbeBudget:
    """The filler path asks the membership law ~33 times per query on a
    served mix (a full reverse-edit enumeration asked ~185).  Counting
    calls, not time, keeps the check independent of the machine."""

    #: mean law calls per ``candidate_ranks`` call; measured 33.3
    BUDGET = 50

    def test_membership_law_calls_per_lookup(self, monkeypatch):
        index = TypoRiskIndex(SEED, 20_000)
        queries = LookupWorkload(SEED, 20_000).pool_entries()
        queries += LookupWorkload(SEED + 1, 20_000,
                                  pool_size=1024).pool_entries()
        target_rank = index.world.target_rank
        calls = []

        def counted(domain, max_rank):
            calls.append(domain)
            return target_rank(domain, max_rank)

        monkeypatch.setattr(index.world, "target_rank", counted)
        for query in queries:
            index.candidate_ranks(query)
        assert len(calls) <= self.BUDGET * len(queries), \
            len(calls) / len(queries)
