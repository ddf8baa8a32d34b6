"""First-order jets: values bundled with gradients.

A jet of a function F carries F, its conjugate F*, and the gradients dF
and dF* over a fixed list of columns: d/dt for a real parameter t and
the holomorphic (Wirtinger) d/dz for a complex z.  Its arithmetic
follows the sum, product and quotient rules on each component alone, and
conjugation swaps the components, which makes Jacobians of rational maps
exact.  ``GaussJet`` works over the Gaussian rationals and ``SplitJet``
mod a prime p = 1 mod 4, holding phi of each of ``GaussJet``'s
components.  Their callers are in ``counting``, on the parameter
completion ``complete_parameters`` alone: one row builder turns either
kind into the subfamily's Wirtinger Jacobian, mod p for the certificate
and exact for the fallback and the real-slot rank.  ``jet_rank``, the
exact rank of the real and imaginary rows of a list of jets over real
slots, has callers in the tests only.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionError
from .gaussian import gauss_over
from .matrices import GMat, rank


def jet_rank(functions: Sequence, param_count: int) -> int:
    """Exact rank of the real Jacobian stacked from jets with GaussRat gradients over real slots.

    Each jet contributes the real part of its gradient as a row, plus the
    imaginary part when it is not identically zero at this point (a zero
    row never changes the rank, so real-valued coordinate functions
    contribute a single row).
    """
    rows = []
    for f in functions:
        if len(f.grad) != param_count:
            raise DimensionError(
                f"jet gradient has {len(f.grad)} entries, expected {param_count}"
            )
        re_row = [gauss_over(g.x, 0, g.d) for g in f.grad]
        im_row = [gauss_over(g.y, 0, g.d) for g in f.grad]
        rows.append(re_row)
        if any(im_row):
            rows.append(im_row)
    if not rows:
        return 0
    return rank(GMat.from_rows(rows))


class GaussJet:
    """A jet of F over the Gaussian rationals: F, F*, dF and dF*, unreduced.

    The exact twin of ``SplitJet``, over the same columns and with the
    same arithmetic without ``% p``: ``grad[k]`` and ``conj_grad[k]`` are
    dF and dF* for d = d/dt in a real slot t and the holomorphic d/dz in
    a complex one, and phi of each component is ``SplitJet``'s.
    """

    __slots__ = ("value", "conj_value", "grad", "conj_grad")

    def __init__(self, value, conj_value, grad: list, conj_grad: list):
        self.value = value
        self.conj_value = conj_value
        self.grad = grad
        self.conj_grad = conj_grad

    def __bool__(self):
        return bool(self.value)

    def conj(self) -> "GaussJet":
        return GaussJet(self.conj_value, self.value, self.conj_grad, self.grad)

    def __add__(self, o: "GaussJet") -> "GaussJet":
        return GaussJet(self.value + o.value, self.conj_value + o.conj_value,
                        [a + b for a, b in zip(self.grad, o.grad)],
                        [a + b for a, b in zip(self.conj_grad, o.conj_grad)])

    def __sub__(self, o: "GaussJet") -> "GaussJet":
        return GaussJet(self.value - o.value, self.conj_value - o.conj_value,
                        [a - b for a, b in zip(self.grad, o.grad)],
                        [a - b for a, b in zip(self.conj_grad, o.conj_grad)])

    def __mul__(self, o: "GaussJet") -> "GaussJet":
        u, uc, v, vc = self.value, self.conj_value, o.value, o.conj_value
        return GaussJet(u * v, uc * vc, [a * v + u * b for a, b in zip(self.grad, o.grad)],
                        [a * vc + uc * b for a, b in zip(self.conj_grad, o.conj_grad)])

    def __truediv__(self, o: "GaussJet") -> "GaussJet":
        # q = u/v and dq = (du - q dv)/v, on each component
        q, qc = self.value / o.value, self.conj_value / o.conj_value
        return GaussJet(q, qc, [(a - q * b) / o.value for a, b in zip(self.grad, o.grad)],
                        [(a - qc * b) / o.conj_value for a, b in zip(self.conj_grad, o.conj_grad)])


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
