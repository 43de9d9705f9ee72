from fractions import Fraction

import pytest

from rigidtori import linalg
from rigidtori.cyclotomic import CyclotomicField


def test_inverse_raises_on_singular_matrices():
    with pytest.raises(ValueError):
        linalg.inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    with pytest.raises(ValueError):
        linalg.inverse([[Fraction(0)]])
    K = CyclotomicField(3)
    z = K.zeta()
    # second row is zeta times the first
    with pytest.raises(ValueError):
        linalg.inverse([[K.one(), z], [z, z * z]])


def test_inverse_is_one_elimination(monkeypatch):
    K = CyclotomicField(5)
    z = K.zeta()
    a = [[K.one(), z, K.zero()], [z * z, K.one(), z], [K.zero(), z, K.one() * 3]]
    calls = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: calls.append(1) or rref(m))
    inv = linalg.inverse(a)
    assert len(calls) == 1
    assert linalg.mat_mul(a, inv) == linalg.identity(3, K.one())
