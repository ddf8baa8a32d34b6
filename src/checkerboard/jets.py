"""First-order jets: values bundled with gradients.

A jet carries a value together with the vector of its partial derivatives
with respect to a fixed list of parameters, and its arithmetic follows
the product and quotient rules, which makes Jacobians of rational maps
exact.  ``Jet`` works over the Gaussian rationals, with two real slots
(real part, imaginary part) per complex parameter; ``SplitJet`` works
mod a prime p = 1 mod 4, with one Wirtinger slot per parameter variable.
Their callers are all in ``counting``, on the parameter completion
``complete_parameters`` alone: ``SplitJet``s give the subfamily's
Jacobian mod p, and 23-slot ``Jet``s the exact Jacobian for the fallback
and for the real-slot rank.  ``jet_rank``, the exact rank of the rows of
a list of jets, has callers in the tests only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DimensionError
from .gaussian import GaussInt, GaussRat
from .matrices import GMat, rank


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


class SplitJet:
    """A jet of F mod p: the images of F and F* under phi: i -> iota, iota^2 = -1 mod p.

    ``value``, ``conj_value`` are phi(F), phi(F*), and ``grad[k]``,
    ``conj_grad[k]`` are phi(dF), phi(dF*) for d = d/dt in a real slot t
    and the holomorphic d/dz in a complex one.  phi is a ring map, so
    arithmetic acts on each component alone, and conjugation swaps them.
    A real t is seeded with unit gradients in both components and z with
    a unit ``grad`` and a zero ``conj_grad``, since dz*/dz = 0.
    """

    __slots__ = ("value", "conj_value", "grad", "conj_grad", "mod")

    def __init__(self, value: int, conj_value: int, grad: list, conj_grad: list, mod: int):
        self.value = value
        self.conj_value = conj_value
        self.grad = grad
        self.conj_grad = conj_grad
        self.mod = mod

    def __bool__(self):
        return bool(self.value or self.conj_value)

    def conj(self) -> "SplitJet":
        return SplitJet(self.conj_value, self.value, self.conj_grad, self.grad, self.mod)

    def __add__(self, o: "SplitJet") -> "SplitJet":
        p = self.mod
        return SplitJet((self.value + o.value) % p, (self.conj_value + o.conj_value) % p,
                        [(a + b) % p for a, b in zip(self.grad, o.grad)],
                        [(a + b) % p for a, b in zip(self.conj_grad, o.conj_grad)], p)

    def __sub__(self, o: "SplitJet") -> "SplitJet":
        p = self.mod
        return SplitJet((self.value - o.value) % p, (self.conj_value - o.conj_value) % p,
                        [(a - b) % p for a, b in zip(self.grad, o.grad)],
                        [(a - b) % p for a, b in zip(self.conj_grad, o.conj_grad)], p)

    def __mul__(self, o: "SplitJet") -> "SplitJet":
        p = self.mod
        u, uc, v, vc = self.value, self.conj_value, o.value, o.conj_value
        return SplitJet(u * v % p, uc * vc % p,
                        [(a * v + u * b) % p for a, b in zip(self.grad, o.grad)],
                        [(a * vc + uc * b) % p for a, b in zip(self.conj_grad, o.conj_grad)], p)

    def __truediv__(self, o: "SplitJet") -> "SplitJet":
        # q = u/v and dq = (du - q dv)/v, on each component
        p = self.mod
        if not (o.value and o.conj_value):
            raise ZeroDivisionError("jet division by a value that is zero mod p")
        n, nc = pow(o.value, -1, p), pow(o.conj_value, -1, p)
        q, qc = self.value * n % p, self.conj_value * nc % p
        return SplitJet(q, qc, [(a - q * b) * n % p for a, b in zip(self.grad, o.grad)],
                        [(a - qc * b) * nc % p for a, b in zip(self.conj_grad, o.conj_grad)], p)
