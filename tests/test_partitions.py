import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jordanblocks import Family, GroupContext, JordanType, is_admissible
from jordanblocks.partitions import is_prime

partitions = st.lists(st.integers(1, 7), min_size=1, max_size=6).map(JordanType.from_sizes)


def test_blocks_sorted_and_merged():
    jt = JordanType([(3, 1), (1, 2), (3, 1)])
    assert jt.pairs() == ((1, 2), (3, 2))
    assert jt.total_dim == 8
    assert jt.block_count == 4
    assert jt.expanded() == (3, 3, 1, 1)


def test_zero_entries_dropped():
    # a size-0 block is the zero module, a multiplicity-0 entry is absent
    assert JordanType({0: 5, 2: 1}) == JordanType({2: 1})
    assert JordanType({3: 0}) == JordanType()
    with pytest.raises(ValueError):
        JordanType({-1: 2})
    with pytest.raises(ValueError):
        JordanType({2: -1})


def test_parse_and_format():
    assert str(JordanType.parse("1^2,3")) == "1^2,3"
    assert JordanType.parse("3,1^2") == JordanType({1: 2, 3: 1})
    assert JordanType.parse(" 1^2 , 3 ") == JordanType({1: 2, 3: 1})
    assert JordanType.parse("") == JordanType()
    assert str(JordanType()) == ""
    assert JordanType.parse("2,2,2") == JordanType({2: 3})
    for bad in ("0", "1^0", "x", "1^", "^2", "1,,2"):
        with pytest.raises(ValueError):
            JordanType.parse(bad)


@given(partitions)
def test_parse_roundtrip(jt):
    assert JordanType.parse(str(jt)) == jt


def test_multiplicity():
    assert JordanType({3: 2}).multiplicity(3) == 2
    assert JordanType({1: 2, 2: 1}).multiplicity(4) == 0
    assert JordanType({2: 8}).multiplicity(2) == 8
    with pytest.raises(ValueError):
        JordanType({2: 1}).multiplicity(0)


def test_gcd_valuation():
    assert JordanType({5: 1}).gcd_valuation(5) == 1
    assert JordanType({2: 1, 3: 1}).gcd_valuation(5) == 0
    assert JordanType({2: 2}).gcd_valuation(2) == 1
    assert JordanType({4: 1, 8: 3}).gcd_valuation(2) == 2
    with pytest.raises(ValueError):
        JordanType().gcd_valuation(3)
    with pytest.raises(ValueError):
        JordanType({2: 1}).gcd_valuation(4)


@given(partitions, st.sampled_from([2, 3, 5, 7]), st.integers(1, 5))
def test_gcd_valuation_ignores_multiplicities(jt, p, k):
    scaled = JordanType({s: m * k for s, m in jt.pairs()})
    assert scaled.gcd_valuation(p) == jt.gcd_valuation(p)


@given(partitions, st.sampled_from([2, 3, 5, 7]))
def test_gcd_valuation_zero_with_coprime_size(jt, p):
    if any(s % p for s in jt.sizes):
        assert jt.gcd_valuation(p) == 0


@given(partitions)
def test_dimension_is_weighted_block_count(jt):
    assert sum(s * jt.multiplicity(s) for s in jt.sizes) == jt.total_dim


def test_multiset_sum():
    assert JordanType({2: 1}) + JordanType({2: 1}) == JordanType({2: 2})
    assert JordanType({1: 2}) + JordanType() == JordanType({1: 2})
    assert JordanType({1: 2, 3: 2}) + JordanType({4: 2}) == JordanType({1: 2, 3: 2, 4: 2})


def test_multiset_diff():
    assert JordanType({2: 8}) - JordanType({2: 2}) == JordanType({2: 6})
    assert JordanType({1: 9}) - JordanType({1: 2}) == JordanType({1: 7})
    with pytest.raises(ValueError, match="not a sub-multiset"):
        JordanType({3: 1}) - JordanType({2: 1})


@given(partitions, partitions)
def test_sum_then_diff_roundtrip(a, b):
    assert (a + b) - b == a
    assert (a + b).total_dim == a.total_dim + b.total_dim


@given(partitions, partitions)
def test_contains_iff_diff_succeeds(a, b):
    both = a + b
    assert both.contains(b)
    if not a.contains(b):
        with pytest.raises(ValueError):
            a - b


def test_immutability_and_hash():
    jt = JordanType({2: 1})
    with pytest.raises(AttributeError):
        jt._dim = 7
    assert hash(JordanType({2: 1, 3: 1})) == hash(JordanType([(3, 1), (2, 1)]))


def test_group_context_validation():
    GroupContext(Family.SL, 2, 2)
    GroupContext(Family.SP, 4, 3)
    GroupContext(Family.SO, 5, 7)
    with pytest.raises(ValueError, match="not prime"):
        GroupContext(Family.SL, 3, 4)
    with pytest.raises(ValueError, match="good characteristic"):
        GroupContext(Family.SP, 4, 2)
    with pytest.raises(ValueError, match="good characteristic"):
        GroupContext(Family.SO, 6, 2)
    with pytest.raises(ValueError, match="even"):
        GroupContext(Family.SP, 5, 3)
    with pytest.raises(ValueError):
        GroupContext(Family.SO, 4, 3)
    with pytest.raises(ValueError):
        GroupContext(Family.SL, 1, 2)


def test_group_context_rejects_modulus_above_bound():
    GroupContext(Family.SL, 5, 3037000493)
    with pytest.raises(ValueError, match="exceeds 3037000499"):
        GroupContext(Family.SL, 5, 4294967311)


def test_is_prime_memoized_answers_unchanged():
    def trial_division(m):
        return m >= 2 and all(m % f for f in range(2, math.isqrt(m) + 1))

    values = [*range(-3, 100), 65521, 65523, 3037000493, 3037000499]
    is_prime.cache_clear()
    for _ in range(2):  # computed, then answered from the cache
        assert [is_prime(m) for m in values] == [trial_division(m) for m in values]
    assert is_prime.cache_info().hits == len(values)


def test_family_parse():
    assert Family.parse("sp") is Family.SP
    assert Family.parse(" SL ") is Family.SL
    with pytest.raises(ValueError):
        Family.parse("E8")


def test_admissibility_rules():
    sp14 = GroupContext(Family.SP, 14, 3)
    # odd size 3 in an even multiplicity, even size 4 unrestricted
    assert is_admissible(JordanType({3: 2, 4: 2}), sp14)
    assert not is_admissible(JordanType({3: 1, 4: 2, 1: 3}), sp14)
    so5 = GroupContext(Family.SO, 5, 3)
    assert not is_admissible(JordanType({2: 1, 3: 1}), so5)
    assert is_admissible(JordanType({1: 1, 2: 2}), so5)
    assert is_admissible(JordanType({5: 1}), so5)
    sl = GroupContext(Family.SL, 5, 3)
    assert is_admissible(JordanType({2: 1, 3: 1}), sl)
    with pytest.raises(ValueError, match="does not match"):
        is_admissible(JordanType({2: 1}), so5)
