"""Semantic anchors for the multi-valued formula core.

The single-constant theories here are the reference points for the whole
package: a rule whose body is the bare head atom supports nothing, the
double-negation guard turns the same rule into a free choice, and a
conjoined fact pins the choice down.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cplusplan.mvpf import (
    BOT,
    TOP,
    And,
    Impl,
    MvAtom,
    Neg,
    Or,
    Signature,
    conj,
    disj,
    impl,
    neg,
)
from cplusplan.reference import (
    MvTheory,
    SignatureTooLarge,
    enumerate_stable,
    interpretations,
    is_stable,
    reduct,
    satisfies,
    satisfies_all,
)

C = 0
V1, V2, V3 = 1, 2, 3

SIG = Signature(constants=(C,), dom={C: (V1, V2, V3)})


def rule(head, body):
    return Impl(body, head)


def atom(v):
    return MvAtom(C, v)


class TestSelfSupport:
    """c=1 if c=1 has three classical models and no stable one."""

    theory = MvTheory(SIG, (rule(atom(V1), atom(V1)),))

    def test_classical_models(self):
        sat = [i for i in interpretations(SIG) if satisfies_all(i, self.theory.formulas)]
        assert len(sat) == 3

    def test_no_stable_models(self):
        assert enumerate_stable(self.theory) == []

    def test_reduct_under_nonmodel_of_head(self):
        red = reduct(self.theory.formulas[0], {C: V2})
        assert red == Impl(BOT, BOT)


class TestGuardedSelfSupport:
    """c=1 if not not c=1 behaves as a free choice on c=1."""

    theory = MvTheory(SIG, (rule(atom(V1), Neg(Neg(atom(V1)))),))

    def test_stable_models(self):
        assert enumerate_stable(self.theory) == [{C: V1}]

    def test_reduct_keeps_the_guard(self):
        red = reduct(self.theory.formulas[0], {C: V1})
        assert red == Impl(Neg(BOT), atom(V1))

    def test_other_values_unstable(self):
        assert not is_stable({C: V2}, self.theory)
        assert not is_stable({C: V3}, self.theory)


class TestGuardedChoicePlusFact:
    """Adding the fact c=2 overrides the guarded choice on c=1."""

    theory = MvTheory(
        SIG,
        (And((rule(atom(V1), Neg(Neg(atom(V1)))), atom(V2))),),
    )

    def test_stable_models(self):
        assert enumerate_stable(self.theory) == [{C: V2}]

    def test_c1_not_stable(self):
        assert not is_stable({C: V1}, self.theory)


def test_top_reduct_is_top():
    assert reduct(TOP, {C: V1}) == TOP
    assert reduct(TOP, {C: V2}) == TOP


def test_empty_theory_every_interpretation_unstable():
    # With no formulas the reduct is empty, so every interpretation
    # satisfies it and uniqueness fails whenever the space has size > 1.
    theory = MvTheory(SIG, ())
    assert enumerate_stable(theory) == []


def test_singleton_domain_supported_here():
    sig = Signature(constants=(C,), dom={C: (V1,)})
    theory = MvTheory(sig, ())
    assert enumerate_stable(theory) == [{C: V1}]


def test_signature_cap():
    sig = Signature(constants=(0, 1, 2), dom={0: (3, 4), 1: (5, 6), 2: (7, 8)})
    with pytest.raises(SignatureTooLarge):
        list(interpretations(sig, cap=7))


def test_smart_constructors_fold_constants():
    a = atom(V1)
    assert neg(BOT) == TOP
    assert neg(TOP) == BOT
    assert conj(TOP, a) == a
    assert conj(a, BOT) == BOT
    assert disj(BOT, a) == a
    assert disj(a, TOP) == TOP
    assert impl(BOT, a) == TOP
    assert impl(TOP, a) == a
    assert impl(a, TOP) == TOP
    # No folding through live subformulas.
    assert neg(neg(a)) == Neg(Neg(a))


# Random-formula properties over a two-constant signature.

SIG2 = Signature(constants=(0, 1), dom={0: (2, 3), 1: (4, 5, 6)})


def formulas(sig):
    leaves = st.one_of(
        st.just(BOT),
        st.just(TOP),
        st.sampled_from(
            [MvAtom(c, v) for c in sig.constants for v in sig.dom[c]]
        ),
    )

    def extend(children):
        return st.one_of(
            children.map(Neg),
            st.tuples(children, children).map(And),
            st.tuples(children, children).map(Or),
            st.tuples(children, children).map(lambda t: Impl(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(f=formulas(SIG2), idx=st.integers(min_value=0, max_value=5))
def test_reduct_preserves_own_satisfaction(f, idx):
    interp = list(interpretations(SIG2))[idx]
    assert satisfies(interp, f) == satisfies(interp, reduct(f, interp))


@settings(max_examples=300, deadline=None)
@given(f=formulas(SIG2), idx=st.integers(min_value=0, max_value=5))
def test_reduct_idempotent(f, idx):
    interp = list(interpretations(SIG2))[idx]
    once = reduct(f, interp)
    assert reduct(once, interp) == once


@settings(max_examples=150, deadline=None)
@given(fs=st.lists(formulas(SIG2), max_size=3))
def test_stable_models_are_classical_models(fs):
    theory = MvTheory(SIG2, tuple(fs))
    for m in enumerate_stable(theory):
        assert satisfies_all(m, theory.formulas)
        assert is_stable(m, theory)
