"""Finite toy Poincare group and its lattice causal structure.

Spacetime is M = Z_N x Z_N in lightcone coordinates (u, v).  A boost by a
unit s mod N acts as (u, v) -> (s*u, s^-1 * v); the "Lorentz" group C is the
cyclic subgroup of (Z_N)^x generated by the model's s.  The full group is
the semidirect product G = M x| C with composition

    (a1, s1) * (a2, s2) = (a1 + s1 |> a2, s1 * s2),

and the frame space F = M x C is a torsor for G under

    g . (x, lam) = (g.boost |> x + g.a, g.boost * lam).

Group elements are listed in the order of the frame points they send the
base point to, and the ``*_action_table`` functions give the actions on
M, C and F as integer index tables, one row per group element: the
permutation representations in ``operators`` are these tables.

The causal structure is the lifted chart's: coordinates are read as
centered representatives in (-N/2, N/2), a chart that covers the lattice.
Its spacelike relation is translation-invariant but not boost-invariant,
and its causal order is what causal hulls and time-slice arguments need.
Both relations also act elementwise on points of integer arrays, which
builds the site tables.

The translation characters chi_p(a) = exp(2 pi i p.a / N) have one table,
``characters(N)``, and every sum over sites weighted by them in the
package is one ``site_transform``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np


class ModelMismatchError(ValueError):
    """Raised when objects built for different model parameters meet."""


class LatticePoint(NamedTuple):
    u: int
    v: int


class GroupElement(NamedTuple):
    a: LatticePoint  # translation part
    boost: int       # element of C, as a unit mod N


class FramePoint(NamedTuple):
    x: LatticePoint
    lam: int  # C-torsor coordinate, identified with C via the base point


#: Base frame point X0; frame points are identified with group elements
#: through g |-> g . X0.
BASE_FRAME_POINT = FramePoint(LatticePoint(0, 0), 1)


def centered_lift(k: int, N: int) -> int:
    """Unique representative of k mod N in the open interval (-N/2, N/2)."""
    return (k + N // 2) % N - N // 2


@dataclass(frozen=True)
class ModelParams:
    """Size of the toy model.

    N must be odd (unique centered lifts) and s a unit mod N; C is the
    cyclic group generated by s.  ``causal_mode`` and ``window`` each admit
    one value: the lifted chart, of half-width (N - 1) // 2, which covers
    the lattice.
    """

    N: int
    s: int
    causal_mode: str = "lifted"
    window: int | None = None

    def __post_init__(self):
        if self.N < 3 or self.N % 2 == 0:
            raise ValueError(f"N must be odd and >= 3, got {self.N}")
        if math.gcd(self.s % self.N, self.N) != 1:
            raise ValueError(f"s must be a unit mod N, got s={self.s}, N={self.N}")
        if self.causal_mode != "lifted":
            raise ValueError(f"causal_mode must be 'lifted', got {self.causal_mode!r}")
        chart = (self.N - 1) // 2
        if self.window not in (None, chart):
            raise ValueError(f"window must be {chart} (the lifted chart covers "
                             f"the lattice), got {self.window}")
        object.__setattr__(self, "window", chart)
        object.__setattr__(self, "s", self.s % self.N)

    def boosts(self) -> tuple[int, ...]:
        """Elements of C = <s>, starting from 1."""
        out = [1]
        cur = self.s
        while cur != 1:
            out.append(cur)
            cur = (cur * self.s) % self.N
        return tuple(out)

    def boost_inverse(self, b: int) -> int:
        return pow(b, -1, self.N)

    def lattice_points(self) -> tuple[LatticePoint, ...]:
        N = self.N
        return tuple(LatticePoint(u, v) for u in range(N) for v in range(N))

    def frame_points(self) -> tuple[FramePoint, ...]:
        return tuple(
            FramePoint(x, lam) for x in self.lattice_points() for lam in self.boosts()
        )

    def site_index(self, x) -> int:
        """Position of a lattice point (u, v) in lattice_points() order."""
        u, v = x
        if not (0 <= u < self.N and 0 <= v < self.N):
            raise ValueError(f"lattice point {tuple(x)} is not reduced mod {self.N}")
        return u * self.N + v

    def frame_index(self, f) -> int:
        """Position of a frame point (x, lam) in frame_points() order; frame
        arrays reshape to (N^2, |C|) with sites first, fibers second."""
        boosts = self.boosts()
        return self.site_index(f[0]) * len(boosts) + boosts.index(f[1])

    def group_elements(self) -> tuple[GroupElement, ...]:
        return tuple(
            GroupElement(x, b) for x in self.lattice_points() for b in self.boosts()
        )

    def generators(self) -> tuple[GroupElement, ...]:
        """Translations by (1,0) and (0,1), and the boost by s."""
        return (
            GroupElement(LatticePoint(1, 0), 1),
            GroupElement(LatticePoint(0, 1), 1),
            GroupElement(LatticePoint(0, 0), self.s),
        )

    @property
    def identity(self) -> GroupElement:
        return GroupElement(LatticePoint(0, 0), 1)


def require_same_params(p1: ModelParams, p2: ModelParams) -> None:
    if p1 != p2:
        raise ModelMismatchError(f"model parameters differ: {p1} vs {p2}")


def boost_apply(b: int, x: LatticePoint, N: int) -> LatticePoint:
    """The boost action b |> (u, v) = (b*u, b^-1 * v) mod N."""
    binv = pow(b, -1, N)
    return LatticePoint((b * x.u) % N, (binv * x.v) % N)


def translate(x: LatticePoint, a: LatticePoint, N: int) -> LatticePoint:
    return LatticePoint((x.u + a.u) % N, (x.v + a.v) % N)


def compose(g1: GroupElement, g2: GroupElement, params: ModelParams) -> GroupElement:
    """Semidirect product (a1, s1)(a2, s2) = (a1 + s1 |> a2, s1 s2)."""
    N = params.N
    a = translate(boost_apply(g1.boost, g2.a, N), g1.a, N)
    return GroupElement(a, (g1.boost * g2.boost) % N)


def inverse(g: GroupElement, params: ModelParams) -> GroupElement:
    N = params.N
    binv = pow(g.boost, -1, N)
    neg_a = LatticePoint((-g.a.u) % N, (-g.a.v) % N)
    return GroupElement(boost_apply(binv, neg_a, N), binv)


def act_point(g: GroupElement, x: LatticePoint, params: ModelParams) -> LatticePoint:
    """The (non-free) action of G on spacetime, g . x = boost |> x + a."""
    return translate(boost_apply(g.boost, x, params.N), g.a, params.N)


def act(g: GroupElement, f: FramePoint, params: ModelParams) -> FramePoint:
    """The free transitive action of G on the frame space F."""
    return FramePoint(act_point(g, f.x, params), (g.boost * f.lam) % params.N)


def site_action_table(params: ModelParams) -> np.ndarray:
    """The spacetime action as an integer (|G|, N^2) table: row i holds
    site_index(act_point(g, x)) for every x in lattice_points() order, with
    g = group_elements()[i]."""
    N = params.N
    n_boosts = len(params.boosts())
    a = np.repeat(np.arange(N * N), n_boosts)[:, None]
    boosts = np.tile(params.boosts(), N * N)[:, None]
    inverses = np.tile([params.boost_inverse(b) for b in params.boosts()],
                       N * N)[:, None]
    x = np.arange(N * N)
    u = (boosts * (x // N) + a // N) % N
    v = (inverses * (x % N) + a % N) % N
    return u * N + v


def fiber_action_table(params: ModelParams) -> np.ndarray:
    """The boost action lam -> g.boost * lam on C as an integer (|G|, |C|)
    table of positions in boosts() order, rows in group_elements() order."""
    boosts = np.array(params.boosts())
    position = np.zeros(params.N, dtype=int)
    position[boosts] = np.arange(len(boosts))
    rows = np.tile(boosts, params.N ** 2)[:, None]
    return position[(rows * boosts) % params.N]


def frame_action_table(params: ModelParams) -> np.ndarray:
    """The torsor action on F as an integer (|G|, |F|) table: row i holds
    frame_index(act(g, f)) for every f in frame_points() order, with
    g = group_elements()[i]."""
    n_boosts = len(params.boosts())
    sites = site_action_table(params)
    fibers = fiber_action_table(params)
    return (sites[:, :, None] * n_boosts + fibers[:, None, :]).reshape(len(sites), -1)


def frame_to_group(f: FramePoint) -> GroupElement:
    """The unique g with g . X0 = f, for the base point X0 = ((0,0), 1)."""
    return GroupElement(f.x, f.lam)


def transporter(f1: FramePoint, f2: FramePoint, params: ModelParams) -> GroupElement:
    """The unique g with g . f1 = f2 (torsor transitivity)."""
    return compose(frame_to_group(f2), inverse(frame_to_group(f1), params), params)


def time_coordinate(x: LatticePoint, params: ModelParams) -> int:
    """t(x) = lift(u) + lift(v) in the lifted chart."""
    return centered_lift(x.u, params.N) + centered_lift(x.v, params.N)


def spacelike(x: LatticePoint, y: LatticePoint, params: ModelParams):
    """Whether x and y are spacelike separated in the lifted chart: the
    centered lifts of du and dv have opposite signs; elementwise on points
    of integer arrays."""
    N = params.N
    return centered_lift(x.u - y.u, N) * centered_lift(x.v - y.v, N) < 0


def causal_leq(x: LatticePoint, y: LatticePoint, params: ModelParams):
    """Causal order x <= y on centered representatives: both lightcone
    coordinate differences nonnegative; elementwise on points of integer
    arrays.  Comparisons happen on the lifted integers, never re-reduced
    mod N."""
    N = params.N
    return ((centered_lift(y.u, N) - centered_lift(x.u, N) >= 0)
            & (centered_lift(y.v, N) - centered_lift(x.v, N) >= 0))


def _site_pairs(params: ModelParams) -> tuple[LatticePoint, LatticePoint]:
    """Every site as a column and as a row: points of integer arrays that
    broadcast to an (N^2, N^2) table in lattice_points() order."""
    sites = np.arange(params.N ** 2)
    u, v = sites // params.N, sites % params.N
    return (LatticePoint(u[:, None], v[:, None]),
            LatticePoint(u[None, :], v[None, :]))


def spacelike_table(params: ModelParams) -> np.ndarray:
    """The (N^2, N^2) boolean table of ``spacelike`` on every site pair."""
    return spacelike(*_site_pairs(params), params)


def region_spacelike(U: Iterable[LatticePoint], V: Iterable[LatticePoint],
                     params: ModelParams) -> bool:
    """Pairwise spacelike separation of two regions of reduced points;
    vacuously true for empty regions."""
    rows = [params.site_index(x) for x in U]
    cols = [params.site_index(y) for y in V]
    return bool(spacelike_table(params)[np.ix_(rows, cols)].all())


def causal_hull(U: Iterable[LatticePoint], params: ModelParams) -> frozenset[LatticePoint]:
    """J+(U) intersect J-(U) for a region of reduced points: the sites
    above some point of U and below some point of U in the ``causal_leq``
    table."""
    index = [params.site_index(x) for x in U]
    leq = causal_leq(*_site_pairs(params), params)
    inside = leq[index].any(axis=0) & leq[:, index].any(axis=1)
    return frozenset(LatticePoint(*divmod(i, params.N))
                     for i in np.flatnonzero(inside).tolist())


def characters(N: int) -> np.ndarray:
    """The N x N character table W[k, u] = exp(2 pi i k u / N) of Z_N: the
    N roots of unity, one ``np.exp`` over arange(N), gathered at k u mod N.
    chi_p(a) is W[p_u, a_u] W[p_v, a_v], and row 1 holds the roots."""
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    return roots[np.outer(np.arange(N), np.arange(N)) % N]


def site_transform(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sum_x W[p_u, x_u] W[p_v, x_v] A[x, ...] over the sites x = (x_u, x_v)
    of an array whose leading axes are the sites, (N^2, ...) in
    lattice_points() order or (N, N, ...), returned in A's shape with the
    momenta p in place of the sites: two products with the N x N matrix W,
    one per site axis.  W = characters(N) pairs with e^{+2 pi i p.x / N};
    its conjugate gives the inverse transform, unnormalized."""
    N = len(W)
    return (W @ (W @ A.reshape(N, -1)).reshape(N, N, -1)).reshape(A.shape)
