"""Closed forms on split extensions H x| F with H, F abelian of odd order.

Elements are pairs (h, f); exponents on the H part are rational combinations
of the acting automorphisms, represented as small expression trees:

    ONE            the identity map
    act(f)         the automorphism attached to the F-element f
    add(a, b, ..)  pointwise product  h -> h^a * h^b        (H abelian)
    mul(a, b, ..)  composition, leftmost applied first      (h^(ab) = (h^a)^b)
    neg(a)         pointwise inverse  h -> (h^a)^-1
    frac(a, m, n)  h -> (h^a)^(m/n), n coprime to each element order
    inv(a)         inverse of the assembled map, asserted bijective

An expression evaluates to the full image array over H, so bulk agreement
checks against the generic table engine stay cheap.  Inverting a map solves
on each cyclic piece by brute force (argsort of the image array) and fails
loudly if the map is not a bijection, which would contradict the fact that
sums of commuting odd-order automorphisms are again automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GammaForgeError, distinct_values
from .groups import SemidirectSpec, sqrt_element


@dataclass(frozen=True)
class SdElement:
    h: int
    f: int


ONE = ("one",)


def act(f: int) -> tuple:
    return ("act", f)


def add(*es: tuple) -> tuple:
    return ("add", *es)


def mul(*es: tuple) -> tuple:
    return ("mul", *es)


def neg(e: tuple) -> tuple:
    return ("neg", e)


def frac(e: tuple, m: int, n: int) -> tuple:
    return ("frac", e, m, n)


def inv(e: tuple) -> tuple:
    return ("inv", e)


class SdForms:
    """Evaluator for exponent expressions and the six closed forms."""

    def __init__(self, spec: SemidirectSpec):
        self.spec = spec
        self.H, self.F = spec.H, spec.F
        self.nH, self.nF = spec.nH, spec.nF
        self._frac_cache: dict[tuple[int, int], np.ndarray] = {}

    # -- expression evaluation -------------------------------------------

    def eval(self, expr: tuple) -> np.ndarray:
        """Image array over H of the map the expression denotes."""
        kind = expr[0]
        if kind == "one":
            return np.arange(self.nH)
        if kind == "act":
            return self.spec.action[expr[1]]
        if kind == "add":
            out = self.eval(expr[1])
            for sub in expr[2:]:
                out = self.H.tbl[out, self.eval(sub)]
            return out
        if kind == "mul":
            out = self.eval(expr[1])
            for sub in expr[2:]:
                out = self.eval(sub)[out]
            return out
        if kind == "neg":
            return self.H.inverse[self.eval(expr[1])]
        if kind == "frac":
            _, sub, m, n = expr
            return self._frac_table(m, n)[self.eval(sub)]
        if kind == "inv":
            arr = self.eval(expr[1])
            if len(distinct_values(arr)) != self.nH:
                raise GammaForgeError(
                    "internal inconsistency: exponent map is not a bijection, "
                    "cannot invert")
            out = np.argsort(arr)
            return out
        raise ValueError(f"unknown expression node {kind!r}")

    def _frac_table(self, m: int, n: int) -> np.ndarray:
        key = (m, n)
        if key not in self._frac_cache:
            out = np.empty(self.nH, dtype=np.int64)
            for h in range(self.nH):
                order = self.H.order_of(h)
                try:
                    k = (m * pow(n, -1, order)) % order
                except ValueError:
                    raise GammaForgeError(
                        f"denominator {n} not invertible modulo element order {order}")
                out[h] = self.H.power(h, k)
            self._frac_cache[key] = out
        return self._frac_cache[key]

    # -- helpers -----------------------------------------------------------

    def _finv(self, f: int) -> int:
        return self.F.inv(f)

    def pointwise_sum_map(self, f1: int, f2: int) -> np.ndarray:
        """h -> h^(a+b) for the automorphisms attached to f1 and f2."""
        return self.eval(add(act(f1), act(f2)))

    # -- the six closed forms ------------------------------------------------

    def inverse(self, u: SdElement) -> SdElement:
        """u^-1 = h^(-f^-1) f^-1."""
        e = neg(act(self._finv(u.f)))
        return SdElement(int(self.eval(e)[u.h]), self._finv(u.f))

    def sqrt(self, u: SdElement) -> SdElement:
        """u^(1/2) = h^((1+f^(1/2))^-1) f^(1/2)."""
        fh = sqrt_element(self.F, u.f)
        e = inv(add(ONE, act(fh)))
        return SdElement(int(self.eval(e)[u.h]), fh)

    def commutator(self, x: SdElement, y: SdElement) -> SdElement:
        """[x,y] = h1^(f1^-1 (-1 + f2^-1)) h2^(f2^-1 (-f1^-1 + 1)), in H."""
        f1i, f2i = self._finv(x.f), self._finv(y.f)
        e1 = mul(act(f1i), add(neg(ONE), act(f2i)))
        e2 = mul(act(f2i), add(neg(act(f1i)), ONE))
        h = self.H.mul(int(self.eval(e1)[x.h]), int(self.eval(e2)[y.h]))
        return SdElement(h, 0)

    def circ(self, x: SdElement, y: SdElement) -> SdElement:
        """x o y = h1^((1+f2)/2) h2^((1+f1)/2) f1 f2."""
        e1 = frac(add(ONE, act(y.f)), 1, 2)
        e2 = frac(add(ONE, act(x.f)), 1, 2)
        h = self.H.mul(int(self.eval(e1)[x.h]), int(self.eval(e2)[y.h]))
        return SdElement(h, self.F.mul(x.f, y.f))

    def ldiv(self, x: SdElement, y: SdElement) -> SdElement:
        """The o-division x \\ y = (h1^(-1 - f1^-1 f2) h2^2)^((1+f1)^-1) f1^-1 f2."""
        f1i = self._finv(x.f)
        e1 = add(neg(ONE), neg(mul(act(f1i), act(y.f))))
        inner = self.H.mul(int(self.eval(e1)[x.h]),
                           int(self._frac_table(2, 1)[y.h]))
        outer = inv(add(ONE, act(x.f)))
        return SdElement(int(self.eval(outer)[inner]), self.F.mul(f1i, y.f))

    def lxy(self, u: SdElement, x: SdElement, y: SdElement) -> SdElement:
        """The inner map value
        u L_{x,y} = (h^((1+f1)(1+f2)) h2^(1 + f f1 - f - f1))^((1+f1 f2)^-1 / 2) f.
        """
        ea = mul(add(ONE, act(x.f)), add(ONE, act(y.f)))
        eb = add(ONE, mul(act(u.f), act(x.f)), neg(act(u.f)), neg(act(x.f)))
        ec = frac(inv(add(ONE, act(self.F.mul(x.f, y.f)))), 1, 2)
        h = self.H.mul(int(self.eval(ea)[u.h]), int(self.eval(eb)[y.h]))
        return SdElement(int(self.eval(ec)[h]), u.f)

    # -- bulk tables for agreement checks ---------------------------------

    def _block(self, f: int) -> slice:
        # elements with F-part f occupy one contiguous index block
        return slice(f * self.nH, (f + 1) * self.nH)

    def inverse_table(self) -> np.ndarray:
        out = np.empty(self.nH * self.nF, dtype=np.int64)
        for f in range(self.nF):
            arr = self.eval(neg(act(self._finv(f))))
            out[self._block(f)] = self._finv(f) * self.nH + arr
        return out

    def sqrt_table(self) -> np.ndarray:
        out = np.empty(self.nH * self.nF, dtype=np.int64)
        for f in range(self.nF):
            fh = sqrt_element(self.F, f)
            arr = self.eval(inv(add(ONE, act(fh))))
            out[self._block(f)] = fh * self.nH + arr
        return out

    def commutator_table(self) -> np.ndarray:
        n = self.nH * self.nF
        out = np.empty((n, n), dtype=np.int64)
        for f1 in range(self.nF):
            for f2 in range(self.nF):
                f1i, f2i = self._finv(f1), self._finv(f2)
                a1 = self.eval(mul(act(f1i), add(neg(ONE), act(f2i))))
                a2 = self.eval(mul(act(f2i), add(neg(act(f1i)), ONE)))
                hp = self.H.tbl[a1[:, None], a2[None, :]]
                out[self._block(f1), self._block(f2)] = hp  # F-part is the identity
        return out

    def circ_table(self) -> np.ndarray:
        n = self.nH * self.nF
        out = np.empty((n, n), dtype=np.int64)
        for f1 in range(self.nF):
            for f2 in range(self.nF):
                a1 = self.eval(frac(add(ONE, act(f2)), 1, 2))
                a2 = self.eval(frac(add(ONE, act(f1)), 1, 2))
                hp = self.H.tbl[a1[:, None], a2[None, :]]
                out[self._block(f1), self._block(f2)] = self.F.mul(f1, f2) * self.nH + hp
        return out

    def ldiv_table(self) -> np.ndarray:
        n = self.nH * self.nF
        out = np.empty((n, n), dtype=np.int64)
        two = self._frac_table(2, 1)
        for f1 in range(self.nF):
            f1i = self._finv(f1)
            outer = self.eval(inv(add(ONE, act(f1))))
            for f2 in range(self.nF):
                a1 = self.eval(add(neg(ONE), neg(mul(act(f1i), act(f2)))))
                inner = self.H.tbl[a1[:, None], two[None, :]]
                out[self._block(f1), self._block(f2)] = \
                    self.F.mul(f1i, f2) * self.nH + outer[inner]
        return out

    def lxy_table(self) -> np.ndarray:
        """Array [f, y, u] of closed-form inner-map images u L_{x,y}, one
        table for each F-part f of x: the closed form does not involve the H
        part of x, so every x in one F-block has the same table.
        """
        n = self.nH * self.nF
        out = np.empty((self.nF, n, n), dtype=np.int32)
        for f in range(self.nF):
            for f1 in range(self.nF):
                for f2 in range(self.nF):
                    a = self.eval(mul(add(ONE, act(f1)), add(ONE, act(f2))))
                    b = self.eval(add(ONE, mul(act(f), act(f1)), neg(act(f)),
                                      neg(act(f1))))
                    c = self.eval(frac(inv(add(ONE, act(self.F.mul(f1, f2)))), 1, 2))
                    hh = c[self.H.tbl[a[:, None], b[None, :]]]  # [h, h2]
                    out[f1, self._block(f2), self._block(f)] = f * self.nH + hh.T  # [h2, h]
        return out
