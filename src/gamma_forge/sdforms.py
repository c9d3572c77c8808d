"""Closed forms on split extensions H x| F with H, F abelian of odd order.

The element (h, f) has index f*|H| + h.  On the H part the closed forms apply
rational combinations of the acting automorphisms; each such map is held as
its image array over H, and the methods below combine image arrays eagerly:

    one            the identity map
    act(f)         the automorphism attached to the F-element f
    add(a, b, ..)  pointwise product  h -> h^a * h^b        (H abelian)
    mul(a, b, ..)  composition, leftmost applied first      (h^(ab) = (h^a)^b)
    neg(a)         pointwise inverse  h -> (h^a)^-1
    inv(a)         inverse of the map, asserted bijective

The halves h -> (h^a)^(1/2) and squares h -> (h^a)^2 are read from H's own
root and square tables.  Inverting a map fails loudly if it is not a
bijection, which would contradict the fact that sums of commuting odd-order
automorphisms are again automorphisms.  The six ``*_table`` methods give each
closed form for the exhaustive comparison with the generic table engine: the
inverse and root over all elements, the other four |H| rows at a time.
"""

from __future__ import annotations

import numpy as np

from .core import GammaForgeError, distinct_values, element_dtype
from .groups import SemidirectSpec


class SdForms:
    """Image-array combinators and the six closed-form tables."""

    def __init__(self, spec: SemidirectSpec):
        self.spec = spec
        self.H, self.F = spec.H, spec.F
        self.nH, self.nF = spec.nH, spec.nF
        self.one = np.arange(self.nH)
        self.dtype = element_dtype(self.nH * self.nF)

    # -- maps over H as image arrays --------------------------------------

    def act(self, f: int) -> np.ndarray:
        return self.spec.action[f]

    def add(self, a: np.ndarray, *rest: np.ndarray) -> np.ndarray:
        for b in rest:
            a = self.H.tbl[a, b]
        return a

    def mul(self, a: np.ndarray, *rest: np.ndarray) -> np.ndarray:
        for b in rest:
            a = b[a]
        return a

    def neg(self, a: np.ndarray) -> np.ndarray:
        return self.H.inverse[a]

    def inv(self, a: np.ndarray) -> np.ndarray:
        if len(distinct_values(a)) != self.nH:
            raise GammaForgeError(
                "internal inconsistency: exponent map is not a bijection, cannot invert")
        out = np.empty_like(a)
        out[a] = self.one
        return out

    # -- bulk tables for agreement checks ---------------------------------

    def _block(self, f: int) -> slice:
        # elements with F-part f occupy one contiguous index block
        return slice(f * self.nH, (f + 1) * self.nH)

    def _elements(self, f: int, h: np.ndarray) -> np.ndarray:
        """The indices f*|H| + h of (h, f) in G's element dtype; H's may be narrower."""
        return f * self.nH + h.astype(self.dtype)

    def inverse_table(self) -> np.ndarray:
        """u^-1 = h^(-f^-1) f^-1."""
        return np.concatenate([self._elements(fi, self.neg(self.act(fi))) for fi in self.F.inverse.tolist()])

    def sqrt_table(self) -> np.ndarray:
        """u^(1/2) = h^((1+f^(1/2))^-1) f^(1/2)."""
        return np.concatenate([self._elements(fh, self.inv(self.add(self.one, self.act(fh))))
                               for fh in self.F.sqrt_table.tolist()])

    def commutator_table(self, f1: int) -> np.ndarray:
        """Rows [x,y] of the x of F-part f1: h1^(f1^-1 (-1 + f2^-1)) h2^(f2^-1 (-f1^-1 + 1)), in H."""
        out = np.empty((self.nH, self.nH * self.nF), dtype=self.dtype)
        f1i = self.F.inverse[f1]
        for f2 in range(self.nF):
            f2i = self.F.inverse[f2]
            a1 = self.mul(self.act(f1i), self.add(self.neg(self.one), self.act(f2i)))
            a2 = self.mul(self.act(f2i), self.add(self.neg(self.act(f1i)), self.one))
            out[:, self._block(f2)] = self.H.tbl[a1[:, None], a2[None, :]]  # F-part is the identity
        return out

    def circ_table(self, f1: int) -> np.ndarray:
        """Rows x o y of the x of F-part f1: x o y = h1^((1+f2)/2) h2^((1+f1)/2) f1 f2."""
        out = np.empty((self.nH, self.nH * self.nF), dtype=self.dtype)
        a2 = self.H.sqrt_table[self.add(self.one, self.act(f1))]
        for f2 in range(self.nF):
            a1 = self.H.sqrt_table[self.add(self.one, self.act(f2))]
            out[:, self._block(f2)] = self._elements(self.F.mul(f1, f2), self.H.tbl[a1[:, None], a2[None, :]])
        return out

    def ldiv_table(self, f1: int) -> np.ndarray:
        """Rows of the o-division of the x of F-part f1: x \\ y = (h1^(-1 - f1^-1 f2) h2^2)^((1+f1)^-1) f1^-1 f2."""
        out = np.empty((self.nH, self.nH * self.nF), dtype=self.dtype)
        f1i = int(self.F.inverse[f1])
        outer = self.inv(self.add(self.one, self.act(f1)))
        for f2 in range(self.nF):
            a1 = self.add(self.neg(self.one), self.neg(self.mul(self.act(f1i), self.act(f2))))
            inner = self.H.tbl[a1[:, None], self.H.squares[None, :]]
            out[:, self._block(f2)] = self._elements(self.F.mul(f1i, f2), outer[inner])
        return out

    def lxy_table(self, f1: int, f2: int) -> np.ndarray:
        """Array [y, u] of closed-form inner-map images
        u L_{x,y} = (h^((1+f1)(1+f2)) h2^(1 + f f1 - f - f1))^((1+f1 f2)^-1 / 2) f
        for x = (h1, f1), y = (h2, f2) (row h2) and u = (h, f), for one F-part f1 of x
        and f2 of y: the closed form does not involve h1, so every x in one F-block has
        the same rows."""
        out = np.empty((self.nH, self.nH * self.nF), dtype=self.dtype)
        a = self.mul(self.add(self.one, self.act(f1)), self.add(self.one, self.act(f2)))
        c = self.H.sqrt_table[self.inv(self.add(self.one, self.act(self.F.mul(f1, f2))))]
        for f in range(self.nF):
            b = self.add(self.one, self.mul(self.act(f), self.act(f1)), self.neg(self.act(f)), self.neg(self.act(f1)))
            hh = c[self.H.tbl[a[:, None], b[None, :]]]  # [h, h2]
            out[:, self._block(f)] = self._elements(f, hh.T)  # [h2, h]
        return out
