"""Shared test helpers."""

from typing import Iterable

from linquo.monomials import Monomial


def from_vars(nvars: int, vs: Iterable[int]) -> Monomial:
    """Product of the given variables (with multiplicity)."""
    exps = [0] * nvars
    for v in vs:
        exps[v] += 1
    return Monomial(exps)
