"""Scalar quaternion algebra: Hamilton relations, conjugation, inversion."""

import copy
import pickle
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from qframes.qlinalg import QVector, inner
from qframes.quaternion import I, J, K, ONE, ZERO, Quaternion

REL_TOL = 1e-13

UNITS = {"1": ONE, "i": I, "j": J, "k": K}

# full signed multiplication table; rows multiply columns on the right
TABLE = {
    ("1", "1"): ONE, ("1", "i"): I, ("1", "j"): J, ("1", "k"): K,
    ("i", "1"): I, ("i", "i"): -ONE, ("i", "j"): K, ("i", "k"): -J,
    ("j", "1"): J, ("j", "i"): -K, ("j", "j"): -ONE, ("j", "k"): I,
    ("k", "1"): K, ("k", "i"): J, ("k", "j"): -I, ("k", "k"): -ONE,
}


def test_multiplication_table_all_signs():
    for (a, b), expected in TABLE.items():
        for sa in (1.0, -1.0):
            for sb in (1.0, -1.0):
                got = (UNITS[a] * sa) * (UNITS[b] * sb)
                want = expected * (sa * sb)
                assert got == want, f"({sa}{a})({sb}{b}) -> {got}, want {want}"


def test_noncommutativity():
    assert I * J == K
    assert J * I == -K
    assert I * J != J * I


def test_mixed_product_example():
    # (1+i)(1+j) = 1 + i + j + k: the cross term lands on +k
    assert Quaternion(1, 1, 0, 0) * Quaternion(1, 0, 1, 0) == Quaternion(1, 1, 1, 1)


def test_modulus_multiplicative_bulk():
    rng = np.random.default_rng(101)
    for _ in range(10_000):
        p = Quaternion(*rng.standard_normal(4))
        q = Quaternion(*rng.standard_normal(4))
        lhs = (p * q).modulus()
        rhs = p.modulus() * q.modulus()
        assert abs(lhs - rhs) <= REL_TOL * rhs


def test_conjugation_antihomomorphism_bulk():
    rng = np.random.default_rng(202)
    for _ in range(10_000):
        p = Quaternion(*rng.standard_normal(4))
        q = Quaternion(*rng.standard_normal(4))
        gap = (p * q).conjugate() - q.conjugate() * p.conjugate()
        assert gap.modulus() <= REL_TOL * (p.modulus() * q.modulus())


def test_conjugate_fixes_reals_negates_imaginaries():
    assert Quaternion(5).conjugate() == Quaternion(5)
    assert I.conjugate() == -I
    assert J.conjugate() == -J
    assert K.conjugate() == -K
    q = Quaternion(1, -2, 3, -4)
    assert q.conjugate() == Quaternion(1, 2, -3, 4)


def test_conjugate_times_self_is_modulus_squared():
    rng = np.random.default_rng(303)
    for _ in range(100):
        q = Quaternion(*rng.standard_normal(4))
        square = q.conjugate() * q
        assert abs(square.a0 - q.modulus() ** 2) <= REL_TOL * q.modulus() ** 2
        assert Quaternion(0, square.a1, square.a2, square.a3).modulus() \
            <= REL_TOL * q.modulus() ** 2


def test_inverse_known_value():
    q = Quaternion(1, 1, 1, 1)
    assert q.inverse() == Quaternion(0.25, -0.25, -0.25, -0.25)


def test_inverse_round_trip():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        q = Quaternion(*rng.standard_normal(4))
        assert (q * q.inverse() - ONE).modulus() <= 1e-12
        assert (q.inverse() * q - ONE).modulus() <= 1e-12


def test_division_by_a_tiny_real_divides_each_component():
    c = 2.0 ** -1030  # subnormal; 1 / c overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert Quaternion(c, 2 * c, 0, 0) / c == Quaternion(1, 2, 0, 0)


@pytest.mark.parametrize("zero", [0, 0.0, -0.0, np.float64(0), np.float32(0)],
                         ids=["int", "float", "minus", "float64", "float32"])
def test_division_by_zero_raises(zero):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ZeroDivisionError):
            ONE / zero


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    # no floor: a modulus whose inverse fits in a double inverts exactly
    assert Quaternion(2.0 ** -1020).inverse() == Quaternion(2.0 ** 1020)
    with pytest.raises(ValueError, match="exceeds the double range"):
        Quaternion(2.0 ** -1030).inverse()


def test_complex_pair_round_trip():
    q = Quaternion(1.5, -2.25, 3.125, -4.0625)
    z1, z2 = q.to_complex_pair()
    assert z1 == complex(1.5, -2.25)
    assert z2 == complex(3.125, -4.0625)
    assert Quaternion.from_complex_pair(z1, z2) == q


def test_split_twists_complex_scalars():
    # j z = conj(z) j is the rule that makes the split representation work
    z = Quaternion(0.7, -1.3, 0, 0)
    z_conj = z.conjugate()
    assert (J * z - z_conj * J).modulus() <= 1e-15


def test_real_scalar_arithmetic():
    q = Quaternion(1, 2, 3, 4)
    assert 2 * q == q * 2 == Quaternion(2, 4, 6, 8)
    assert q / 2 == Quaternion(0.5, 1, 1.5, 2)
    assert q + 1 == Quaternion(2, 2, 3, 4)
    assert 1 - q == Quaternion(0, -2, -3, -4)


def test_value_semantics():
    q = Quaternion(1, np.float64(2.5), np.int64(-3), 4)
    with pytest.raises(AttributeError):
        q.a0 = 5.0
    with pytest.raises(AttributeError):
        q.extra = 5.0
    with pytest.raises(AttributeError):
        del q.a1
    assert q.components == (1.0, 2.5, -3.0, 4.0)
    assert all(type(x) is float for x in q.components)
    assert Quaternion(a2=1) == J and Quaternion(a3=-1.0, a0=2) == Quaternion(2, 0, 0, -1)
    same = Quaternion(1.0, 2.5, -3.0, 4.0)
    assert q == same and q is not same and hash(q) == hash(same)
    assert hash(q) == hash((1.0, 2.5, -3.0, 4.0))
    assert q != Quaternion(1, 2.5, -3, 4.5) and q != 1.0 and ONE != 1.0
    assert len({q, same, ONE, Quaternion(1)}) == 2
    assert repr(ONE) == "Quaternion(a0=1.0, a1=0.0, a2=0.0, a3=0.0)"
    assert repr(Quaternion(-0.0, 1e-300)) == \
        "Quaternion(a0=-0.0, a1=1e-300, a2=0.0, a3=0.0)"
    for again in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
        assert type(again) is Quaternion and again == q
        assert again.components == q.components
    match q:
        case Quaternion(a, b, c, d):
            assert (a, b, c, d) == (1.0, 2.5, -3.0, 4.0)
        case _:
            pytest.fail("positional match did not bind the components")


def test_every_scalar_is_built_through_init(monkeypatch):
    # the benchmark counts Quaternion scalars by wrapping __init__, so every
    # scalar the library returns must be built through it
    built = []
    init = Quaternion.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Quaternion, "__init__", counting)
    p, q = Quaternion(1, 2, 3, 4), Quaternion(0.5, -1, 0, 2)
    u = QVector([p, q])
    results = {
        "from_complex_pair": lambda: Quaternion.from_complex_pair(1 + 2j, 3 - 1j),
        "inner": lambda: inner(u, u),
        "getitem": lambda: u[1],
        "add": lambda: p + q, "radd": lambda: 1 + p,
        "sub": lambda: p - q, "rsub": lambda: 1 - p,
        "mul": lambda: p * q, "rmul": lambda: 2 * p,
        "neg": lambda: -p,
        "conjugate": lambda: p.conjugate(),
    }
    for name, make in results.items():
        built.clear()
        result = make()
        assert any(r is result for r in built), name


def test_str_rendering():
    assert str(Quaternion(1, 1, 1, 1)) == "1 + i + j + k"
    assert str(ZERO) == "0"
    assert str(-I) == "-i"


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


@settings(max_examples=200)
@given(quaternions, quaternions, quaternions)
def test_associativity(p, q, r):
    lhs = (p * q) * r
    rhs = p * (q * r)
    scale = p.modulus() * q.modulus() * r.modulus() + 1.0
    assert (lhs - rhs).modulus() <= 1e-12 * scale


@settings(max_examples=200)
@given(quaternions, quaternions, quaternions)
def test_right_distributivity(p, q, r):
    lhs = (p + q) * r
    rhs = p * r + q * r
    scale = (p.modulus() + q.modulus()) * r.modulus() + 1.0
    assert (lhs - rhs).modulus() <= 1e-12 * scale
