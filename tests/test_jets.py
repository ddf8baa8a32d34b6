import random
from fractions import Fraction

import pytest

from checkerboard.errors import DimensionError
from checkerboard.gaussian import GaussRat
from checkerboard.jets import jet_complex_var, jet_rank, jet_real_var
from jet_reference import imag_part, jet_const, real_part


def test_real_var_seeding():
    x = jet_real_var(Fraction(3), 0, 2)
    assert x.value == GaussRat(3)
    assert x.grad == (GaussRat(1), GaussRat(0))


def test_complex_var_seeding_and_conj():
    z = jet_complex_var(GaussRat(1, 2), 0, 1, 2)
    assert z.grad == (GaussRat(1), GaussRat(0, 1))
    zc = z.conj()
    assert zc.value == GaussRat(1, -2)
    assert zc.grad == (GaussRat(1), GaussRat(0, -1))


def test_product_rule_on_monomials():
    # f(x, y) = x^2 y at (x, y) = (3, 5): df/dx = 2xy = 30, df/dy = x^2 = 9
    x = jet_real_var(Fraction(3), 0, 2)
    y = jet_real_var(Fraction(5), 1, 2)
    f = x * x * y
    assert f.value == GaussRat(45)
    assert f.grad == (GaussRat(30), GaussRat(9))


def test_cubic_monomial_partials():
    # f = x^3 at x = 2: f' = 12; g = x y^2 at (2, 3): gx = 9, gy = 12
    x = jet_real_var(Fraction(2), 0, 2)
    y = jet_real_var(Fraction(3), 1, 2)
    f = x * x * x
    assert f.grad[0] == GaussRat(12)
    g = x * y * y
    assert g.grad == (GaussRat(9), GaussRat(12))


def test_quotient_rule():
    # f = x / y at (1, 2): df/dx = 1/2, df/dy = -1/4
    x = jet_real_var(Fraction(1), 0, 2)
    y = jet_real_var(Fraction(2), 1, 2)
    f = x / y
    assert f.value == GaussRat(Fraction(1, 2))
    assert f.grad == (GaussRat(Fraction(1, 2)), GaussRat(Fraction(-1, 4)))
    with pytest.raises(ZeroDivisionError):
        x / jet_const(0, 2)


def test_modulus_squared_gradient():
    # |z|^2 = z conj(z) has gradient (2x, 2y), identically real
    z = jet_complex_var(GaussRat(2, 3), 0, 1, 2)
    m = z * z.conj()
    assert m.value == GaussRat(13)
    assert m.grad == (GaussRat(4), GaussRat(6))


def test_real_imag_part_extraction():
    z = jet_complex_var(GaussRat(2, 3), 0, 1, 2)
    w = z * z  # z^2: value (4-9) + 12i, dz^2/dx = 2z = 4+6i, /dy = 2iz = -6+4i
    assert real_part(w).value == GaussRat(-5)
    assert real_part(w).grad == (GaussRat(4), GaussRat(-6))
    assert imag_part(w).grad == (GaussRat(6), GaussRat(4))


def test_jet_rank_coordinate_function():
    x = jet_real_var(Fraction(7), 0, 3)
    assert jet_rank([x], 3) == 1


def test_jet_rank_complex_function_two_rows():
    z = jet_complex_var(GaussRat(1, 1), 0, 1, 2)
    # z itself spans both slots once re and im rows are stacked
    assert jet_rank([z], 2) == 2


def test_jet_rank_dimension_error():
    x = jet_real_var(Fraction(1), 0, 3)
    with pytest.raises(DimensionError):
        jet_rank([x], 4)


def test_mismatched_slot_arithmetic():
    x = jet_real_var(Fraction(1), 0, 2)
    y = jet_real_var(Fraction(1), 0, 3)
    with pytest.raises(DimensionError):
        x + y


def _random_rational_function(rng, nvars):
    """A small random rational expression combining +, -, *, /."""
    def expr(vars_, depth):
        if depth == 0:
            choice = rng.randrange(nvars + 1)
            if choice == nvars:
                return lambda vs: vs[-1]  # constant slot
            return lambda vs: vs[choice]
        left = expr(vars_, depth - 1)
        right = expr(vars_, depth - 1)
        op = rng.choice("+-*/")
        if op == "+":
            return lambda vs: left(vs) + right(vs)
        if op == "-":
            return lambda vs: left(vs) - right(vs)
        if op == "*":
            return lambda vs: left(vs) * right(vs)
        return lambda vs: left(vs) / right(vs)

    return expr(list(range(nvars)), 3)


def test_gradients_match_central_differences():
    """20 random rational functions: jet gradient vs float finite differences."""
    rng = random.Random(555)
    checked = 0
    while checked < 20:
        nvars = 3
        fn = _random_rational_function(rng, nvars)
        point = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(nvars)]
        jets = [jet_real_var(point[k], k, nvars) for k in range(nvars)] + [
            jet_const(Fraction(rng.randint(1, 3)), nvars)
        ]
        try:
            jf = fn(jets)
        except ZeroDivisionError:
            continue
        floats = [float(v) for v in point] + [float(jets[-1].value.re)]
        eps = 1e-5

        def feval(vals):
            return fn([complex(v) for v in vals])

        ok_sample = True
        for k in range(nvars):
            up = floats.copy()
            dn = floats.copy()
            up[k] += eps
            dn[k] -= eps
            try:
                fd = (feval(up) - feval(dn)) / (2 * eps)
            except ZeroDivisionError:
                ok_sample = False
                break
            exact = complex(jf.grad[k])
            scale = max(1.0, abs(exact))
            assert abs(fd - exact) / scale < 1e-6, (fd, exact)
        if ok_sample:
            checked += 1


def test_mod_jet_is_the_reduction_of_the_exact_jet():
    """A SplitJet is (phi, phi o conj) of the exact Jet, with the gradient in Wirtinger slots.

    The exact jet has real slots (Re z, Im z, t); the split jet has slots
    (d/dz, d/dt).  For a function F, d/dz F = (F_re - i F_im)/2, and
    d/dz F* is the conjugate of d/dz* F = (F_re + i F_im)/2, which is the
    second component of that value's split residue.
    """
    from checkerboard.jets import SplitJet
    from checkerboard.matrices import primes, split_residue

    p, iota = next(primes())

    def reduce(z):
        return split_residue(z, p, iota)

    z = jet_complex_var(GaussRat(Fraction(1, 3), 2), 0, 1, 3)
    t = jet_real_var(Fraction(-3, 4), 2, 3)
    jz = SplitJet(*reduce(z.value), [1, 0], [0, 0], p)
    jt = SplitJet(*reduce(t.value), [0, 1], [0, 1], p)
    exact = (z * t.conj() - t) / (z.conj() + t)
    split = (jz * jt.conj() - jt) / (jz.conj() + jt)
    assert (split.value, split.conj_value) == reduce(exact.value)
    g_re, g_im, g_t = exact.grad
    half = Fraction(1, 2)
    d_z = (g_re - GaussRat(0, 1) * g_im) * half
    d_zbar = (g_re + GaussRat(0, 1) * g_im) * half
    assert split.grad == [reduce(d_z)[0], reduce(g_t)[0]]
    assert split.conj_grad == [reduce(d_zbar)[1], reduce(g_t)[1]]
    assert bool(split) and not SplitJet(0, 0, [], [], p)
    with pytest.raises(ZeroDivisionError):
        jz / (jz - jz)
    # a unit needs both components nonzero: phi(iota - i) = 0 but phi((iota - i)*) != 0
    half_zero = SplitJet(*reduce(GaussRat(iota, -1)), [0, 0], [0, 0], p)
    assert bool(half_zero) and half_zero.value == 0
    with pytest.raises(ZeroDivisionError):
        jz / half_zero
