"""First-order jets: values bundled with gradients over real parameters.

A jet carries a value together with the vector of its partial derivatives
with respect to a fixed list of real parameters.  A complex parameter
occupies two slots (real part, imaginary part), so conjugation acts
entrywise on the gradient.  Jet arithmetic follows the product and
quotient rules, which makes Jacobians of rational maps exact.

``Jet`` works over the Gaussian rationals and ``ModJet`` over F_p[i] for
the prime p = 3 mod 4 that it carries (P = 2^61 - 1 unless given).
Their callers are all in ``counting``, on the parameter completion
``complete_parameters`` alone; the outer sum's derivatives follow from
``counting.outer_jacobian`` by the chain rule.  ``ModJet``s give the
completion's Jacobian mod p, and 23-slot ``Jet``s the exact Jacobian for
the fallback and for the real-slot rank.  ``jet_rank``, the
exact rank of the rows of a list of jets, has callers in the tests only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionError
from .gaussian import GaussInt, GaussRat
from .matrices import GMat, P, rank


class Jet:
    __slots__ = ("value", "grad")

    def __init__(self, value: GaussRat, grad: Sequence[GaussRat]):
        if not isinstance(value, GaussRat):
            value = GaussRat(value)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "grad", tuple(grad))

    def __setattr__(self, name, val):
        raise AttributeError("Jet is immutable")

    @property
    def slots(self) -> int:
        return len(self.grad)

    def _lift(self, other):
        if isinstance(other, Jet):
            if other.slots != self.slots:
                raise DimensionError("jets with mismatched gradient lengths")
            return other
        if isinstance(other, (int, Fraction, GaussRat)):
            return Jet(GaussRat(0) + other, (GaussRat(0),) * self.slots)
        return None

    def __bool__(self):
        return bool(self.value)

    def conj(self) -> "Jet":
        return Jet(self.value.conj(), tuple(g.conj() for g in self.grad))

    def real_part(self) -> "Jet":
        return Jet(GaussInt(self.value.x).over(self.value.d),
                   tuple(GaussInt(g.x).over(g.d) for g in self.grad))

    def imag_part(self) -> "Jet":
        return Jet(GaussInt(self.value.y).over(self.value.d),
                   tuple(GaussInt(g.y).over(g.d) for g in self.grad))

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet(self.value + o.value, tuple(a + b for a, b in zip(self.grad, o.grad)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Jet(self.value - o.value, tuple(a - b for a, b in zip(self.grad, o.grad)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        u, v = self.value, o.value
        return Jet(u * v, tuple(du * v + u * dv for du, dv in zip(self.grad, o.grad)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        u, v = self.value, o.value
        if not v:
            raise ZeroDivisionError("jet division by zero value")
        vv = v * v
        return Jet(u / v, tuple((du * v - u * dv) / vv for du, dv in zip(self.grad, o.grad)))

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return Jet(-self.value, tuple(-g for g in self.grad))

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self.value == other.value and self.grad == other.grad

    def __hash__(self):
        return hash((self.value, self.grad))

    def __repr__(self):
        return f"Jet({self.value}, grad={[str(g) for g in self.grad]})"


def jet_const(value, slots: int) -> Jet:
    return Jet(GaussRat(0) + value, (GaussRat(0),) * slots)


def jet_real_var(value, slot: int, slots: int) -> Jet:
    """Jet of a real coordinate parameter (derivative 1 in its own slot)."""
    grad = [GaussRat(0)] * slots
    grad[slot] = GaussRat(1)
    return Jet(GaussRat(0) + value, grad)


def jet_complex_var(value: GaussRat, re_slot: int, im_slot: int, slots: int) -> Jet:
    """Jet of a complex parameter z = x + iy over real slots (x, y): dz/dx = 1, dz/dy = i."""
    grad = [GaussRat(0)] * slots
    grad[re_slot] = GaussRat(1)
    grad[im_slot] = GaussRat(0, 1)
    return Jet(value, grad)


def jet_rank(functions: Sequence[Jet], param_count: int) -> int:
    """Exact rank of the real Jacobian stacked from the given jets.

    Each jet contributes the real part of its gradient as a row, plus the
    imaginary part when it is not identically zero at this point (a zero
    row never changes the rank, so real-valued coordinate functions
    contribute a single row).
    """
    rows = []
    for f in functions:
        if f.slots != param_count:
            raise DimensionError(
                f"jet gradient has {f.slots} entries, expected {param_count}"
            )
        re_row = [GaussInt(g.x).over(g.d) for g in f.grad]
        im_row = [GaussInt(g.y).over(g.d) for g in f.grad]
        rows.append(re_row)
        if any(im_row):
            rows.append(im_row)
    if not rows:
        return 0
    return rank(GMat.from_rows(rows))


class ModJet:
    """A jet over F_p[i], p = 3 mod 4: the value and each gradient entry are (re, im) residue pairs."""

    __slots__ = ("value", "grad", "mod")

    def __init__(self, value: tuple, grad: list, mod: int = P):
        self.value = value
        self.grad = grad
        self.mod = mod

    def __bool__(self):
        return self.value != (0, 0)

    def conj(self) -> "ModJet":
        p = self.mod
        re, im = self.value
        return ModJet((re, -im % p), [(a, -b % p) for a, b in self.grad], p)

    def __add__(self, o: "ModJet") -> "ModJet":
        p = self.mod
        (ur, ui), (vr, vi) = self.value, o.value
        return ModJet(((ur + vr) % p, (ui + vi) % p),
                      [((a + c) % p, (b + d) % p) for (a, b), (c, d) in zip(self.grad, o.grad)], p)

    def __sub__(self, o: "ModJet") -> "ModJet":
        p = self.mod
        (ur, ui), (vr, vi) = self.value, o.value
        return ModJet(((ur - vr) % p, (ui - vi) % p),
                      [((a - c) % p, (b - d) % p) for (a, b), (c, d) in zip(self.grad, o.grad)], p)

    def __mul__(self, o: "ModJet") -> "ModJet":
        p = self.mod
        (ur, ui), (vr, vi) = self.value, o.value
        return ModJet(((ur * vr - ui * vi) % p, (ur * vi + ui * vr) % p),
                      [((a * vr - b * vi + ur * c - ui * d) % p,
                        (a * vi + b * vr + ur * d + ui * c) % p)
                       for (a, b), (c, d) in zip(self.grad, o.grad)], p)

    def __truediv__(self, o: "ModJet") -> "ModJet":
        # 1/v = conj(v)/|v|^2 and d(1/v) = -dv/v^2; |v|^2 is 0 mod p only for v = 0.
        p = self.mod
        vr, vi = o.value
        norm = (vr * vr + vi * vi) % p
        if not norm:
            raise ZeroDivisionError("jet division by a value that is zero mod p")
        n = pow(norm, -1, p)
        wr, wi = vr * n % p, -vi * n % p
        sr, si = (wr * wr - wi * wi) % p, 2 * wr * wi % p
        inv = ModJet((wr, wi), [((b * si - a * sr) % p, -(a * si + b * sr) % p)
                                for a, b in o.grad], p)
        return self * inv
