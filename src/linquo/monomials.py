"""Exponent-vector monomials: the value type of verifier witnesses, of the
colon oracle and of rendered generators.

A monomial lives in a fixed polynomial ring with ``nvars`` variables and is
stored as a dense tuple of nonnegative integer exponents.  All arithmetic is
componentwise; there are no coefficients.  The generators of a power are not
stored as monomials but as the rows of ``PowerGenerators.exps``.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class Monomial:
    """Immutable monomial given by its exponent vector."""

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[int]):
        exps = tuple(int(e) for e in exps)
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in {exps}")
        object.__setattr__(self, "exps", exps)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @property
    def nvars(self) -> int:
        return len(self.exps)

    def degree(self) -> int:
        return sum(self.exps)

    def support(self) -> tuple[int, ...]:
        """Indices of variables appearing with positive exponent."""
        return tuple(i for i, e in enumerate(self.exps) if e > 0)

    def colon(self, other: "Monomial") -> "Monomial":
        """self : other = self / gcd(self, other), componentwise max(a-b, 0)."""
        self._check_ring(other)
        return Monomial(max(a - b, 0) for a, b in zip(self.exps, other.exps))

    def divides(self, other: "Monomial") -> bool:
        """True iff self divides other (componentwise <=)."""
        self._check_ring(other)
        return all(a <= b for a, b in zip(self.exps, other.exps))

    def _check_ring(self, other: "Monomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __repr__(self) -> str:
        return f"Monomial({list(self.exps)})"

    def format(self, names: Sequence[str] | None = None) -> str:
        """Render as e.g. ``a^2*b^2`` using ``names`` (default x0, x1, ...)."""
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        parts = []
        for i, e in enumerate(self.exps):
            if e == 1:
                parts.append(names[i])
            elif e > 1:
                parts.append(f"{names[i]}^{e}")
        return "*".join(parts) if parts else "1"
