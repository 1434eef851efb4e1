"""Runtime configuration: enumeration guards and float tolerances.

All values can be overridden per call site, via CLI flags, or via
environment variables with the ``BRAIDFORGE_`` prefix
(``BRAIDFORGE_ENUM_GUARD=512``, ``BRAIDFORGE_CONDUCTOR_GUARD=840`` etc.).
"""

from __future__ import annotations

import os

from .errors import BadParameter, EnumerationLimit

ENV_PREFIX = "BRAIDFORGE_"


class Config:
    __slots__ = ("tolerance", "enum_guard", "aut_guard", "rank_guard", "output",
                 "aut_count_cap", "conductor_guard")

    # aut_count_cap: automorphism groups larger than this are refused,
    # decided from the closed-form |Aut(G)| before any enumeration; the
    # |G| <= aut_guard test alone does not bound |Aut(G)| usefully
    # (|Aut((Z/2)^5)| = |GL_5(F_2)| = 9999360).
    # conductor_guard: cyclotomic fields of larger conductor are refused
    # before any arithmetic in them.  The field itself is cheap (_ctx(2310)
    # takes about 5 ms, benchmarks/bench_kernels.py); the guard bounds
    # what runs in it: build's products of phi(L)-term vectors at the joined
    # conductor L (up to r^3), and the few dozen products of one inverse.
    def __init__(self, tolerance: float = 1e-6, enum_guard: int = 256, aut_guard: int = 64,
                 rank_guard: int = 12, output: str = "json", aut_count_cap: int = 2_000_000,
                 conductor_guard: int = 2310):
        self.tolerance, self.enum_guard, self.aut_guard = tolerance, enum_guard, aut_guard
        self.rank_guard, self.output = rank_guard, output
        self.aut_count_cap, self.conductor_guard = aut_count_cap, conductor_guard
        if not (0.0 < self.tolerance < 1e-2):
            raise BadParameter("tolerance must lie in (0, 1e-2)")
        for name in ("enum_guard", "aut_guard", "rank_guard", "aut_count_cap",
                     "conductor_guard"):
            if getattr(self, name) <= 0:
                raise BadParameter(f"{name} must be positive")
        if self.output not in ("json", "text"):
            raise BadParameter("output must be 'json' or 'text'")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Config(%s)" % ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)

    def check_conductor(self, n: int) -> None:
        """Refuse Q(zeta_n) before any arithmetic in it, whose products
        cost O(phi(n)^2) each."""
        if n > self.conductor_guard:
            raise EnumerationLimit(
                f"conductor {n} exceeds conductor_guard = {self.conductor_guard}"
            )


def from_env(**overrides) -> Config:
    """Build a Config from BRAIDFORGE_* environment variables plus overrides."""
    kwargs = {}
    for name in Config.__slots__:  # each read with the type of its default
        raw = os.environ.get(ENV_PREFIX + name.upper())
        if raw is not None:
            try:
                kwargs[name] = type(getattr(DEFAULT, name))(raw)
            except ValueError as exc:
                raise BadParameter(f"bad {ENV_PREFIX}{name.upper()}: {raw!r}") from exc
    kwargs.update(overrides)
    return Config(**kwargs)


DEFAULT = Config()
