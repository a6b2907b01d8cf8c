"""Tests for the SL2 tensor combinatorics."""

from __future__ import annotations

import copy
import pickle
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spehcalc import (
    ArthurParameter,
    CuspidalSymbol,
    DiagonalRestriction,
    SpehDatum,
    az_dual_param,
    clebsch_gordan,
    csupp_param,
    diagonal_restriction,
    same_cuspidal_support,
    same_group_ext_segment_type,
    tensor_pair_recovery,
)
from _gen import random_param, support_preserving_variant

RHO = CuspidalSymbol("rho")
# four cuspidal lines: two symbols of degree 1, one of degree 2, and one
# id again at degree 3
SYMBOLS = (RHO, CuspidalSymbol("sigma"), CuspidalSymbol("tau", 2), CuspidalSymbol("rho", 3))


def oracle_clebsch_gordan(a: int, b: int) -> list[int]:
    """Decompose by weight convolution: convolve the two weight multisets
    and repeatedly strip the highest-weight string."""
    weights = Counter()
    for i in range(-(a - 1), a, 2):
        for j in range(-(b - 1), b, 2):
            weights[i + j] += 1
    dims = []
    while weights:
        top = max(weights)
        dims.append(top + 1)
        for w in range(-top, top + 1, 2):
            weights[w] -= 1
            if weights[w] == 0:
                del weights[w]
    return sorted(dims, reverse=True)


class TestClebschGordan:
    def test_identity_factor(self):
        for b in range(1, 8):
            assert clebsch_gordan(1, b) == (b,)

    def test_two_by_two(self):
        assert clebsch_gordan(2, 2) == (3, 1)

    def test_three_by_two(self):
        # frozen from oracle: {-2,0,2} * {-1,1} strips to strings 4 and 2
        assert oracle_clebsch_gordan(3, 2) == [4, 2]
        assert clebsch_gordan(3, 2) == (4, 2)

    def test_zero_dimension_errors(self):
        with pytest.raises(ValueError):
            clebsch_gordan(0, 3)
        with pytest.raises(ValueError):
            clebsch_gordan(2, 0)

    @pytest.mark.parametrize("a", range(1, 13))
    @pytest.mark.parametrize("b", range(1, 13))
    def test_against_oracle_and_dimension(self, a, b):
        dims = clebsch_gordan(a, b)
        assert list(dims) == oracle_clebsch_gordan(a, b)
        assert sum(dims) == a * b


class TestTensorPairRecovery:
    def test_swapped_pair(self):
        assert tensor_pair_recovery(2, 3, 3, 2)
        assert tensor_pair_recovery(1, 6, 6, 1)

    def test_distinct_pair(self):
        # oracle: CG(2,2) = {3,1} while CG(3,1) = {3}
        assert not tensor_pair_recovery(2, 2, 3, 1)

    def test_uniqueness_small_range(self):
        for a in range(1, 9):
            for b in range(1, 9):
                for c in range(1, 9):
                    for d in range(1, 9):
                        same = tensor_pair_recovery(a, b, c, d)
                        assert same == (sorted((a, b)) == sorted((c, d)))


class TestDiagonalRestriction:
    def test_cuspidal_term(self):
        r = diagonal_restriction(ArthurParameter((SpehDatum(RHO, 1, 1),)))
        assert list(r) == [(RHO, 1)]

    def test_two_by_two_term(self):
        r = diagonal_restriction(ArthurParameter((SpehDatum(RHO, 2, 2),)))
        assert list(r) == [(RHO, 1), (RHO, 3)]

    def test_multiset_symmetry(self):
        a = ArthurParameter((SpehDatum(RHO, 1, 3), SpehDatum(RHO, 3, 1)))
        b = ArthurParameter((SpehDatum(RHO, 3, 1), SpehDatum(RHO, 1, 3)))
        assert diagonal_restriction(a) == diagonal_restriction(b)

    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=4))
    def test_dual_term_invariance(self, dims):
        a = ArthurParameter(tuple(SpehDatum(RHO, x, y) for x, y in dims))
        b = ArthurParameter(tuple(SpehDatum(RHO, y, x) for x, y in dims))
        assert diagonal_restriction(a) == diagonal_restriction(b)

    def test_support_equivalence_sample(self):
        rng = random.Random(20260809)
        checked_equal = 0
        for _ in range(2000):
            a = random_param(rng)
            if rng.random() < 0.5:
                b = support_preserving_variant(rng, a)
            else:
                b = random_param(rng)
            same_restriction = diagonal_restriction(a) == diagonal_restriction(b)
            same_support = csupp_param(a) == csupp_param(b)
            assert same_restriction == same_support
            checked_equal += same_restriction
        assert checked_equal > 200  # both directions exercised


def by_entry(entry):
    symbol, d = entry
    return symbol.sort_key, d


def expanded(param: ArthurParameter) -> list:
    """The restriction's (symbol, dimension) pairs one by one, in term order."""
    return [(s.rho, d) for s in param for d in clebsch_gordan(s.a, s.b)]


def entries_built(restriction: DiagonalRestriction) -> bool:
    """True once restriction's ``entries`` has been read (the plain
    attribute lookup, which does not build them)."""
    try:
        object.__getattribute__(restriction, "entries")
    except AttributeError:
        return False
    return True


class _ParentForm:
    """Pickles as a restriction did when it was stored as its entries:
    the class called on the sorted entry tuple."""

    def __init__(self, entries):
        self.entries = entries

    def __reduce__(self):
        return DiagonalRestriction, (self.entries,)


entry_lists = st.lists(st.tuples(st.sampled_from(SYMBOLS), st.integers(1, 12)), max_size=30)


class TestRestrictionByEnds:
    """A restriction is stored as the ends of its runs of equal
    multiplicity; it must behave as the multiset of its entries."""

    @given(entry_lists, entry_lists, st.booleans(), st.randoms(use_true_random=False))
    def test_any_entries_give_one_value(self, entries, others, same, rng):
        """Arbitrary (symbol, dimension) multisets in any order, not only
        Clebsch-Gordan shapes: equal multisets give equal values and
        hashes, unequal ones unequal values."""
        if same:
            others = list(entries)
            rng.shuffle(others)
        value, other = DiagonalRestriction(entries), DiagonalRestriction(iter(others))
        assert (value == other) == (not value != other) == (Counter(entries) == Counter(others))
        if value == other:
            assert hash(value) == hash(other)
        assert value.entries == tuple(sorted(entries, key=by_entry))
        assert list(value) == sorted(entries, key=by_entry)
        assert len(value) == len(entries) == len(DiagonalRestriction(entries))
        built = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in (*built, copy.copy(value), copy.deepcopy(value)):
            assert type(copied) is DiagonalRestriction
            assert copied == value and hash(copied) == hash(value)
            assert copied.entries == value.entries and len(copied) == len(value)

    @pytest.mark.parametrize("param", [
        ArthurParameter(),
        ArthurParameter((SpehDatum(RHO, 3, 4), SpehDatum(SYMBOLS[1], 2, 1), SpehDatum(SYMBOLS[2], 5, 2))),
        ArthurParameter((SpehDatum(RHO, 1, 3), SpehDatum(RHO, 2, 2), SpehDatum(RHO, 7, 4),
                         SpehDatum(SYMBOLS[3], 4, 1))),
    ])
    def test_unread_entries_behave_as_built_from_entries(self, param):
        """A restriction whose entries were never read compares, hashes,
        pickles, copies and prints as the one built from its entries,
        and only printing it builds them."""
        eager = DiagonalRestriction(reversed(expanded(param)))
        assert eager.entries is not None and entries_built(eager)
        restriction = diagonal_restriction(param)
        assert not entries_built(restriction)
        assert restriction == eager and eager == restriction and not restriction != eager
        assert hash(restriction) == hash(eager) and {eager: 1}[restriction] == 1
        assert len(restriction) == len(eager) == sum(min(s.a, s.b) for s in param)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(restriction, protocol) == pickle.dumps(eager, protocol)
            loaded = pickle.loads(pickle.dumps(restriction, protocol))
            assert loaded == eager and hash(loaded) == hash(eager) and not entries_built(loaded)
        for copied in (copy.copy(restriction), copy.deepcopy(restriction)):
            assert copied == eager and hash(copied) == hash(eager) and not entries_built(copied)
        assert not entries_built(restriction)
        assert repr(restriction) == repr(eager)
        assert entries_built(restriction) and restriction.entries == eager.entries

    def test_pickle_of_stored_entries_still_loads(self):
        param = ArthurParameter((SpehDatum(RHO, 3, 4), SpehDatum(RHO, 1, 2), SpehDatum(SYMBOLS[2], 5, 2)))
        restriction = diagonal_restriction(param)
        old_form = _ParentForm(tuple(sorted(expanded(param), key=by_entry)))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(old_form, protocol))
            assert type(loaded) is DiagonalRestriction
            assert loaded == restriction and hash(loaded) == hash(restriction)
            assert loaded.entries == old_form.entries

    def test_huge_terms_need_no_entry_twist_or_clebsch_gordan_piece(self, monkeypatch):
        """Restrictions and supports of four-line parameters with a and b
        up to 10^9, both parities of a + b on every line, answer without
        one Clebsch-Gordan decomposition, HalfInt or TwistedCuspidal.
        The true pairs rewrite terms into their duals or split a term with
        min(a, b) <= 3 into its Clebsch-Gordan segments; the false ones
        move one term u(a, b) to u(a+1, b-1), which changes min(a, b)."""
        rng = random.Random(17)
        n = 10**9

        def term(rho, parity):
            a, b = rng.randint(1, n), rng.randint(1, n)
            return SpehDatum(rho, a, b + 1 if (a + b) % 2 != parity else b)

        general, segment = [], []
        for _ in range(8):
            terms = [term(rho, parity) for rho in SYMBOLS for parity in (0, 1)]
            terms.append(SpehDatum(rng.choice(SYMBOLS), rng.randint(1, n), rng.randint(1, 3)))
            p = ArthurParameter(terms)
            dual = [SpehDatum(s.rho, s.b, s.a) if rng.random() < 0.5 else s for s in terms]
            thin = dual.pop()
            split = dual + [SpehDatum(thin.rho, 1, d) for d in clebsch_gordan(thin.a, thin.b)]
            moved = list(terms)
            i = rng.choice([i for i, s in enumerate(terms) if s.b >= 2 and s.b != s.a + 1])
            moved[i] = SpehDatum(terms[i].rho, terms[i].a + 1, terms[i].b - 1)
            general += [(p, ArthurParameter(split), True), (p, ArthurParameter(moved), False)]

            lengths = [rng.randint(2, n) for _ in SYMBOLS]
            left = [SpehDatum(rho, 1, m) for rho, m in zip(SYMBOLS, lengths)]
            right = [SpehDatum(rho, m, 1) if rng.random() < 0.5 else SpehDatum(rho, 1, m)
                     for rho, m in zip(SYMBOLS, lengths)]
            segment.append((ArthurParameter(left), ArthurParameter(right), True))
            # one line's u(1, m) + u(2, 1) against u(m+1, 1) + u(1, 1): the same dimension
            rho, m = SYMBOLS[rng.randrange(4)], rng.randint(2, n)
            segment.append((ArthurParameter(left + [SpehDatum(rho, 1, m), SpehDatum(rho, 2, 1)]),
                            ArthurParameter(right + [SpehDatum(rho, m + 1, 1), SpehDatum(rho, 1, 1)]), False))
        lengths = [sum(min(s.a, s.b) for s in p) for p, _, _ in general]

        def refuse(*args):
            raise AssertionError("a Clebsch-Gordan piece or a twist was built")

        monkeypatch.setattr("spehcalc.sl2.clebsch_gordan", refuse)
        monkeypatch.setattr("spehcalc.core.HalfInt", refuse)
        monkeypatch.setattr("spehcalc.core.TwistedCuspidal", refuse)
        for (p, q, expected), length in zip(general, lengths):
            assert same_cuspidal_support(p, q) == same_cuspidal_support(q, p) == expected
            assert (diagonal_restriction(p) == diagonal_restriction(q)) == expected
            if expected:
                assert hash(diagonal_restriction(p)) == hash(diagonal_restriction(q))
            assert len(diagonal_restriction(p)) == len(diagonal_restriction(az_dual_param(p))) == length
            assert same_cuspidal_support(p, az_dual_param(p))
        for p, q, expected in segment:
            assert same_cuspidal_support(p, q) == same_group_ext_segment_type(p, q) == expected
            assert (diagonal_restriction(p) == diagonal_restriction(q)) == expected
