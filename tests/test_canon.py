"""`canon_key`'s exact-type fast path against the original cascade.

The oracle `oracle_canon_key` (conftest) wraps every number in a Fraction and
asks every value for a custom key first. The library's key must order any
two values exactly as the oracle does, so every enumeration, witness and
report keeps its order.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from sdfkit import examples
from sdfkit._canon import canon_key, canon_sorted
from sdfkit.choice import Choice

from conftest import oracle_canon_key


def _kernel_objects():
    s = examples.build_simple()
    moves = canon_sorted(s.random_moves)
    named = examples.all_named_choices("simple")
    choices = [Choice.of(s, named[n]) for n in sorted(named)[:6]]
    return moves + choices


KERNEL = _kernel_objects()

leaves = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.floats(-3, 3, allow_nan=False, allow_infinity=False).map(
        lambda x: round(x * 4) / 4
    ),
    st.text(alphabet="aAzZ1 ", max_size=3),
    st.none(),
    st.sampled_from(KERNEL),
)

hashables = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3).map(tuple)
    | st.frozensets(inner, max_size=3),
    max_leaves=8,
)

values = st.one_of(
    hashables,
    st.sets(hashables, max_size=3),
    st.lists(hashables | st.sets(hashables, max_size=3), max_size=3).map(tuple),
)


def _relation(key, a, b):
    ka, kb = key(a), key(b)
    return ka == kb, ka < kb, kb < ka


@settings(max_examples=200, deadline=None)
@given(values, values)
def test_pairs_compare_as_oracle(a, b):
    # Equal keys: the same nesting, with numbers equal whether or not the
    # oracle wrapped them.
    assert canon_key(a) == oracle_canon_key(a)
    assert _relation(canon_key, a, b) == _relation(oracle_canon_key, a, b)


@settings(max_examples=100, deadline=None)
@given(st.lists(values, max_size=8))
def test_canon_sorted_order_is_oracle_order(items):
    got = canon_sorted(items)
    want = sorted(items, key=oracle_canon_key)
    assert [id(v) for v in got] == [id(v) for v in want]


def test_numbers_of_every_type_tie():
    same = [1, True, 1.0, Fraction(1)]
    keys = {canon_key(v) for v in same}
    assert len(keys) == 1
    assert canon_key(Fraction(1, 2)) < canon_key(1) < canon_key("0")
