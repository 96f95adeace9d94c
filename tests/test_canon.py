"""`canon_key`'s and `fmt`'s exact-type fast paths against the original cascades.

The oracle `oracle_canon_key` (conftest) wraps every number in a Fraction and
asks every value for a custom key first. The library's key must order any
two values exactly as the oracle does, so every enumeration, witness and
report keeps its order. `oracle_fmt` renders by the original `fmt`
cascade; the library's text must equal it for every value, and a move's or
a σ-algebra's text is rendered once per instance.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdfkit import examples, sdf
from sdfkit._canon import canon_key, canon_sorted, fmt
from sdfkit.choice import Choice
from sdfkit.sdf import SubSigma

from conftest import oracle_canon_key, oracle_fmt


def _kernel_objects():
    s = examples.build_simple()
    moves = canon_sorted(s.random_moves)
    named = examples.all_named_choices("simple")
    choices = [Choice.of(s, named[n]) for n in sorted(named)[:6]]
    return moves + choices


def _sigmas():
    """The scenario space of `simple`, and the finest and the trivial
    algebra on the domain of each of its moves."""
    s = examples.build_simple()
    sigmas = [s.space]
    for m in canon_sorted(s.random_moves):
        sigmas += [SubSigma.ambient_trace(s.space, m.domain), SubSigma.trivial(m.domain)]
    return sigmas


KERNEL = _kernel_objects()
SIGMAS = _sigmas()


def _values(kernel):
    leaves = st.one_of(
        st.integers(-3, 3),
        st.booleans(),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.floats(-3, 3, allow_nan=False, allow_infinity=False).map(
            lambda x: round(x * 4) / 4
        ),
        st.text(alphabet="aAzZ1 ", max_size=3),
        st.none(),
        st.sampled_from(kernel),
    )
    hashables = st.recursive(
        leaves,
        lambda inner: st.lists(inner, max_size=3).map(tuple)
        | st.frozensets(inner, max_size=3),
        max_leaves=8,
    )
    return st.one_of(
        hashables,
        st.sets(hashables, max_size=3),
        st.lists(hashables | st.sets(hashables, max_size=3), max_size=3).map(tuple),
    )


values = _values(KERNEL)


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


@settings(max_examples=200, deadline=None)
@given(_values(KERNEL + SIGMAS))
# a set whose iteration order is not its canonical order under any hash seed
@example(frozenset({-1, 0}))
def test_fmt_matches_oracle(value):
    assert fmt(value) == oracle_fmt(value)


def _fresh_moves_and_sigmas():
    s = examples.timing_instance().sdf
    moves = canon_sorted(s.random_moves)
    return moves, [SubSigma.ambient_trace(s.space, m.domain) for m in moves]


def test_move_and_sigma_texts_match_oracle():
    moves, sigmas = _fresh_moves_and_sigmas()
    for m in moves:
        assert m.fmt() == "{" + ", ".join(
            f"{oracle_fmt(w)}↦{oracle_fmt(n)}" for w, n in m.graph
        ) + "}"
    for sigma in sigmas:
        assert sigma.fmt() == oracle_fmt(sigma.atoms)


@pytest.mark.parametrize("kind", ["move", "sigma"])
def test_text_is_rendered_once_per_instance(monkeypatch, kind):
    calls = []

    def counting(value):
        calls.append(value)
        return fmt(value)

    monkeypatch.setattr(sdf, "fmt", counting)
    moves, sigmas = _fresh_moves_and_sigmas()
    for obj in moves if kind == "move" else sigmas:
        first = len(calls)
        text = obj.fmt()
        assert len(calls) > first
        rendered = len(calls)
        assert obj.fmt() is text and obj.fmt() is text
        assert len(calls) == rendered
