"""Covariant POVMs on the frame space and their Born measures.

A frame observable assigns an effect on H_R to every frame point (x, lam)
so that the total is the identity and conjugation by U_R(g) permutes the
effects along the group action.  On the homogeneous frame space it is
fixed by its representation and one dressed seed,
E(g.X0) = U(g) D U(g)^dag, and ``FrameObservable`` holds that pair.
Orbit-averaging a seed with a symmetric K^(-1/2) .. K^(-1/2)
normalization produces such POVMs for any invertible orbit sum; sharp and
uniform frames are special cases.  K commutes with the representation;
where the translations act freely on the site axis (``_site_shifts``: the
regular, spacetime and product-witness representations), the transform
over the two site axes by the translation characters
(``lattice.site_transform``) splits it into N^2 blocks of d / N^2 on a
side, and ``build_frame`` reads K^(-1/2) from them
(``_block_inverse_sqrt``); any other representation takes one dense
``eigh`` of K.

The effect array, (|F|, d, d), is the orbit of the seed, built on first
read and kept; a Born measure is one length-|F| weight array.  Both are in
``ModelParams.frame_points()`` order, sites first and fibers second, so
reshaping to (N^2, |C|, ...) and summing the fiber axis gives the
spacetime marginal.  A spacetime marginal effect is read from the seed.

A frame is read in one of two layouts, by its representation's tables:

* free: a subgroup H acts freely and transitively on the basis
  (``UnitaryRep.free_index``), the whole group on a regular
  representation and the translations on the spacetime one.  The
  element at row h c + j is h after the j-th of the c elements that fix
  e_0, so its effect is the H-translate by h of the seed's j-th
  stabilizer conjugate, and a frame is one convolution kernel over H, a
  (c, d, d) array (``FrameObservable.convolution_kernel``);
* effects: any other representation reads the effect array.

The normalization does not read this layout but the translations'
action on the sites (``_site_shifts``): at s = 1 the Lorentz
representation, whose one basis vector every element fixes, is a free
layout with H the identity, and it takes the dense ``eigh``.

The orbit sum, the Born weights and the Born weights of matrix units
(``FrameObservable.unit_weights``, which ``fields.unit_observables``
calls) take both: on a free layout they read the seed and no effect
array.  The diagonal invariance of the tensor sum
(``FrameObservable.diagonal_invariance_defect``) reads the kernel when H
is the whole group, in kernel-column batches whose intermediates stay
within ``operators.WORK_BLOCK_BYTES``.  These are the only code that
chooses a layout.  The readers that need every effect build the effect
array on any layout: the tensor sum sum_f A_f (x) E(f)
(``FrameObservable.tensor_sum``, which ``fields.relativize`` calls),
``covariance_defect``, ``channel_compose`` and the joint-state
constraints and Einstein-causal pairs of ``causality``.

Also here: preparations (``OrientedFrame``), which keep their Born measure
and disintegration, whose support mask is the one spacetime-support rule;
channels, each held as its Kraus operators, and channel composition
(unitality validated; an array, not a frame); the vacuum-weight scan and
the strict vacuum-orthogonality check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from relqft import lattice, operators as ops
from relqft.lattice import LatticePoint, ModelParams
from relqft.operators import (
    UnitaryRep,
    dagger,
    eq_defect,
    op_norm,
)
from relqft.tolerances import (
    SVD_CUTOFF,
    TOL_EQ,
    TOL_HERM,
    TOL_SUPP,
)


class DegenerateSeedError(ValueError):
    """Raised when a seed effect's orbit sum is not invertible."""


class ChannelValidationError(ValueError):
    """Raised when a channel fails the unitality check."""


# ---------------------------------------------------------------------------
# frame observables

#: Most column batches of ``FrameObservable.diagonal_invariance_defect``:
#: each batch gathers the whole stack again, so a batch takes at least
#: this share of the columns, even beyond ops.WORK_BLOCK_BYTES.
MAX_COLUMN_BATCHES = 8


def _weighted(weights: np.ndarray) -> np.ndarray:
    """The columns of an (|F|, k) array of unit weights that carry weight:
    a largest magnitude above SVD_CUTOFF times that of the whole array."""
    magnitudes = np.abs(weights).max(axis=0, initial=0.0)
    return weights[:, magnitudes > SVD_CUTOFF * magnitudes.max(initial=0.0)]


class FrameObservable:
    """A normalized covariant POVM over the frame space, held as its
    representation and its dressed seed D: the effect of the frame point
    of g = params.group_elements()[i] is U(g) D U(g)^dag.  In the package
    only the builders below make one; the constructor checks the
    seed's shape but not the POVM laws, which ``normalization_defect`` and
    ``covariance_defect`` recompute on demand.

    effects: the (|F|, d, d) orbit of D, effects[i] the effect of
    ``params.frame_points()[i]``, built on first read by one gather
    (``UnitaryRep.orbit``, refused above ops.MAX_FRAME_BYTES) and kept.
    """

    def __init__(self, rep: UnitaryRep, seed: np.ndarray):
        self.rep = rep
        self.seed = np.asarray(seed, dtype=complex)
        if self.seed.shape != (rep.dim, rep.dim):
            raise ops.SizeError(
                f"seed shape {self.seed.shape} does not match rep dim {rep.dim}")

    @property
    def params(self) -> ModelParams:
        return self.rep.params

    @cached_property
    def effects(self) -> np.ndarray:
        return self.rep.orbit(self.seed)

    @cached_property
    def convolution_kernel(self) -> np.ndarray | None:
        """The seed kernel B of D (``_seed_kernel``) on a free layout
        (``UnitaryRep.free_index``), and None on any other.  The effects
        are relabellings of B: the effect at h after the stabilizer
        element j has entry B[j, x, r] at (h.x, h.x.r)."""
        if self.rep.free_index is None:
            return None
        return _seed_kernel(self.rep, self.seed)

    @property
    def dim(self) -> int:
        return self.rep.dim

    def tensor_sum(self, stack: np.ndarray) -> np.ndarray:
        """sum_f stack[f] (x) E(f) for an (|F|, m, m) stack in
        frame_points() order, as one (m d, m d) array: one contraction of
        the stack with the effect array, refused above ops.MAX_DIM like
        ``ops.tensor``."""
        n, m, d = len(stack), stack.shape[1], self.dim
        ops.require_tensor_fits(m * d)
        total = stack.reshape(n, -1).T @ self.effects.reshape(n, -1)
        return total.reshape(m, m, d, d).transpose(0, 2, 1, 3).reshape(m * d, m * d)

    def unit_weights(self, V: np.ndarray | None = None) -> np.ndarray:
        """Tr[T E(f)] at every frame point f for each matrix unit
        T = |v_i><v_j| of V's columns (of the frame space's basis when V is
        None) that carries weight at some f, as one (|F|, m) array.  The
        weight is <v_j|E(f)|v_i>, entry (j, i) of V^dag E(f) V, and the
        columns keep the row-major order of (j, i); a unit is dropped when
        its largest weight is at most SVD_CUTOFF times the largest of all
        (``_weighted``), so exact zeros and rounding residue alike.  The
        weights are refused before allocation above ops.MAX_FRAME_BYTES.

        On a free layout no effect is formed.  The effect at row h c + j is
        U(h) D_j U(h)^dag, D_j the seed's c stabilizer conjugates, and
        U(h)^dag V is W_h, the rows h.x of V, so with a basis V its block
        is W_h^dag D_j W_h, formed for as many h at a time as keep their
        (c, k, d) products within ops.WORK_BLOCK_BYTES (at least one).
        With V None that effect has entry B[j, x, r] at (h.x, h.x.r), B the
        convolution kernel, so the units with weight are the (a, a.r) for
        r whose kernel column B[:, :, r] carries weight, and their weights
        are a gather of B, equal to the effects' entries to the bit.  Any
        other layout reads the effect array."""
        B = self.convolution_kernel
        if B is None:
            effects = self.effects if V is None else dagger(V) @ self.effects @ V
            return _weighted(effects.reshape(len(effects), -1))
        index = self.rep.free_index
        n, (c, d) = len(index.act), B.shape[:2]
        if V is None:
            magnitudes = np.abs(B).max(axis=(0, 1))
            kept = magnitudes > SVD_CUTOFF * magnitudes.max()
            units = np.flatnonzero(kept[index.quotient])
            ops.require_fits((n * c, len(units)),
                             f"the weights of {len(units)} matrix units")
            a, b = np.divmod(units, d)
            r = index.quotient[a, b]
            x = index.quotient[index.act[:, :1], a]  # h.x = a
            weights = np.empty((n, c, len(units)), dtype=complex)
            for j in range(c):
                weights[:, j] = B[j][x, r]
            return weights.reshape(n * c, -1)
        k = V.shape[1]
        ops.require_fits((n * c, k, k), f"the weights of {k * k} matrix units")
        D = _stabilizer_conjugates(self.rep, self.seed)
        blocks = np.empty((n, c, k, k), dtype=complex)
        step = max(1, ops.WORK_BLOCK_BYTES // (16 * c * d * max(k, 1)))
        for start in range(0, n, step):
            W = V[index.act[start:start + step]][:, None]
            blocks[start:start + step] = dagger(W) @ D @ W
        return _weighted(blocks.reshape(n * c, -1))

    def diagonal_invariance_defect(self, stack: np.ndarray, rep: UnitaryRep,
                                   elements) -> float:
        """max over g in elements of |V Y V^dag - Y| for the tensor sum
        Y = tensor_sum(stack) and V = rep(g) (x) U_R(g), rep acting on the
        stack's space: the largest entry of the conjugates of Y under
        ``ops.tensor_product_rep(rep, self.rep)`` less Y.

        When the whole group acts freely (a stabilizer of one element, as
        on a regular representation) no Y is formed.  With B the
        convolution kernel's one (d, d) block, Y[(a, k), (b, l)] is
        Z[k, (a, b), k^-1 l] for Z[k, :, r] = sum_h stack[k h^-1] B[h, r],
        a batched GEMM of the stack gathered by right quotient (the row of
        the element that takes h to k) with B.  U_R(g) sends k to g.k and
        keeps r = k^-1 l, so with inv and c the inverse row and phases of
        rep(g) (``UnitaryRep.inverse_rows``) the defect is the max of
        |c[a] Z[k, (inv[a], inv[b]), r] conj(c[b]) - Z[g.k, (a, b), r]|.
        It is taken over batches of columns r, each holding Z at every row
        and serving every g: as many columns as keep one batch within
        ops.WORK_BLOCK_BYTES, but at least a 1/MAX_COLUMN_BATCHES share,
        since each batch gathers the whole stack again.  Z is filled as
        many rows k at a time as keep their gathered (rows, d, m m) stack
        within ops.WORK_BLOCK_BYTES (at least one).  Any other layout forms
        Y (``tensor_sum``, refused above ops.MAX_DIM) and gathers its
        conjugates."""
        B = self.convolution_kernel
        if B is None or len(B) > 1:
            Y = self.tensor_sum(stack)
            rows = [self.params.frame_index(g) for g in elements]
            diagonal = ops.tensor_product_rep(rep, self.rep)
            return eq_defect(diagonal.orbit(Y, rows), Y)
        B = B[0]
        right_quotient = np.argsort(self.rep.table, axis=0)
        n, m, d = len(stack), stack.shape[1], self.dim
        flat = stack.reshape(n, -1)
        moves = []
        for g in elements:
            i = self.params.frame_index(g)
            inverse, phases = rep.inverse_rows([i])
            moves.append((self.rep.table[i], inverse[0],
                          None if phases is None else phases[0]))
        fit = ops.WORK_BLOCK_BYTES // (16 * flat.size)
        columns, step = max(fit, -(-d // MAX_COLUMN_BATCHES)), max(1, fit)
        worst = 0.0
        for first in range(0, d, columns):
            r = slice(first, first + columns)
            Z = np.empty((d, m * m, min(columns, d - first)), dtype=complex)
            for start in range(0, d, step):
                k = slice(start, start + step)
                Z[k] = flat[right_quotient[k]].transpose(0, 2, 1) @ B[:, r]
            Z = Z.reshape(d, m, m, -1).transpose(0, 3, 1, 2)  # (k, r, a, b)
            worst = max([worst, *(_moved_defect(Z, *move) for move in moves)])
        return worst

    def normalization_defect(self) -> float:
        return eq_defect(_orbit_sum(self.rep, self.seed), np.eye(self.dim))

    def covariance_defect(self, elements=None) -> float:
        """max over sampled g, f of |U(g) E(f) U(g)^dag - E(g.f)|."""
        params = self.params
        if elements is None:
            elements = params.generators()
        moves = lattice.frame_action_table(params)
        return float(np.max([
            eq_defect(self.rep.conjugate(g, self.effects),
                      self.effects[moves[params.frame_index(g)]])
            for g in elements], initial=0.0))

    @cached_property
    def _origin_fiber_effect(self) -> np.ndarray:
        """F_R(0): the sum, in boosts() order, of the |C| boost conjugates
        of D, the first |C| rows of its orbit."""
        fiber = slice(len(self.params.boosts()))
        return self.rep.orbit(self.seed, fiber).sum(axis=0)

    def spacetime_marginal_effects(self, points) -> np.ndarray:
        """F_R(x) for each lattice point x, the sum of the effects over the
        Lorentz fiber of x, as one (k, d, d) stack: U(x) F_R(0) U(x)^dag,
        since the frame point (x, lam) is x after lam, so one gather of the
        cached F_R(0) at the rows of the translations to the points."""
        params = self.params
        rows = [params.site_index(x) * len(params.boosts()) for x in points]
        return self.rep.orbit(self._origin_fiber_effect, rows)

    def spacetime_marginal_sum(self, points) -> np.ndarray:
        """The sum of F_R(x) over the lattice points, one (d, d) array:
        one orbit sum of the cached F_R(0) with weight 1 at the rows of the
        translations to the points."""
        params = self.params
        weights = np.zeros(len(self.rep.table))
        weights[[params.site_index(x) * len(params.boosts()) for x in points]] = 1.0
        return self.rep.orbit_sum(weights, self._origin_fiber_effect)


def _moved_defect(Z: np.ndarray, row: np.ndarray, inverse: np.ndarray,
                  phases: np.ndarray | None) -> float:
    """max |c[a] Z[k, r, inv[a], inv[b]] conj(c[b]) - Z[row[k], r, a, b]|
    over a (k, r, a, b) array, for the inverse row inv and phases c of a
    system element (None for ones) and the frame row of the same element,
    as many rows k at a time as keep one moved block within
    ops.WORK_BLOCK_BYTES (at least one)."""
    step = max(1, ops.WORK_BLOCK_BYTES // Z[0].nbytes)
    worst = 0.0
    for start in range(0, len(Z), step):
        k = slice(start, start + step)
        moved = Z[k][:, :, inverse[:, None], inverse]
        if phases is not None:
            moved *= phases[:, None]
            moved *= phases.conj()
        moved -= Z[row[k]]
        worst = max(worst, float(np.max(np.abs(moved))))
    return worst


class OrientedFrame:
    """A preparation: a frame, a state omega on H_R and a support
    tolerance, with its Born measure and its disintegration at tol_supp
    taken on first read and kept."""

    def __init__(self, frame: FrameObservable, omega: np.ndarray,
                 tol_supp: float = TOL_SUPP):
        self.frame, self.tol_supp = frame, tol_supp
        self.omega = np.asarray(omega, dtype=complex)
        if self.omega.shape != (frame.dim, frame.dim):
            raise ops.SizeError(
                f"state shape {self.omega.shape} does not match frame dim {frame.dim}")

    @cached_property
    def measure(self) -> BornMeasure:
        return born_measure(self)

    @cached_property
    def disintegration(self) -> Disintegration:
        return disintegrate(self.measure, self.tol_supp)


# ---------------------------------------------------------------------------
# builders

def _inverse_sqrt(K: np.ndarray) -> np.ndarray:
    """K^(-1/2) of a Hermitian matrix, or of each matrix of a stack, from
    one (batched) ``eigh``.  Raises DegenerateSeedError when the smallest
    eigenvalue of them all is at most SVD_CUTOFF times the largest."""
    eigs, V = np.linalg.eigh(K)
    low, high = eigs[..., 0].min(), eigs[..., -1].max()
    if low <= SVD_CUTOFF * high:
        raise DegenerateSeedError(
            f"orbit sum is numerically singular (eigs in [{low:.3e}, {high:.3e}])")
    return (V * eigs[..., None, :] ** -0.5) @ dagger(V)


def _site_shifts(rep: UnitaryRep) -> np.ndarray | None:
    """The translations' action on the sites, an (N^2, N^2) table in
    lattice_points() order whose row a holds the site of x + a for every
    x, when the translations act freely on the site axis: the
    representation permutes the basis (no phases), its dimension is N^2 b,
    and the translation by a sends basis index x b + j to (x + a) b + j.
    So on the regular, spacetime and product-witness representations; None
    on any other, as on the Lorentz and character representations, and at
    s = 1 on the Lorentz one, whose one basis vector every element fixes."""
    params = rep.params
    sites, rows = params.N ** 2, len(params.boosts())
    b, rest = divmod(rep.dim, sites)
    if rep.phases is not None or rest:
        return None
    shifts = lattice.site_action_table(params)[::rows]  # boost 1: translations
    moved = (shifts[:, :, None] * b + np.arange(b)).reshape(sites, -1)
    return shifts if np.array_equal(rep.table[::rows], moved) else None


def _block_inverse_sqrt(columns: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """K^(-1/2), as one d x d array, for a Hermitian K that commutes with
    translations acting as the site shifts (``_site_shifts``), from K's
    first b columns, a (d, b) array, d = N^2 b.

    K[(x, j), (y, l)] is C[x - y][j, l], C[x] the b x b blocks of those
    columns, so on the vectors conj(chi_p) (x) w, with chi_p(x) =
    exp(2 pi i p.x / N), K acts as the block Kh[p] = sum_x chi_p(x) C[x]:
    the transform of the columns over the two site axes
    (``lattice.site_transform`` with W = ``lattice.characters(N)``).  One
    batched ``eigh`` gives every Kh[p]^(-1/2) (``_inverse_sqrt``), and the
    inverse transform J[x] = N^-2 sum_p conj(chi_p(x)) Kh[p]^(-1/2) gives
    K^(-1/2)[(x, j), (y, l)] = J[x - y][j, l], one gather.
    The p = 0 block is taken from every block before the inverse transform
    and added back at x = 0, so when K is a multiple of the identity, and its
    blocks are all equal, K^(-1/2) is that multiple's inverse square root
    to the bit."""
    sites, (d, b) = len(shifts), columns.shape
    N = math.isqrt(sites)
    W = lattice.characters(N)
    blocks = lattice.site_transform(columns, W).reshape(sites, b, b)
    inverse = _inverse_sqrt(blocks)
    origin = inverse[0].copy()
    inverse -= origin
    J = lattice.site_transform(inverse, W.conj())
    J /= sites
    J[0] += origin
    difference = np.argsort(shifts, axis=0)  # the site of x - y: y + a = x
    return J[difference].transpose(0, 2, 1, 3).reshape(d, d)


def _stabilizer_conjugates(rep: UnitaryRep, A: np.ndarray) -> np.ndarray:
    """The conjugates A_j of A by the c elements that fix e_0 on a free
    layout (``UnitaryRep.free_index``), the first c rows of A's orbit, as
    one (c, d, d) array.  When c = 1 the one conjugate is A itself, read
    as is."""
    c = rep.free_index.stabilizer
    return A[None] if c == 1 else rep.orbit(A, slice(c))


def _seed_kernel(rep: UnitaryRep, A: np.ndarray) -> np.ndarray:
    """B[j, x, r] = A_j[x, x.r] on a free layout (``UnitaryRep.free_index``
    names x.r), for the stabilizer conjugates A_j of A
    (``_stabilizer_conjugates``): one (c, d, d) array, of their size."""
    return np.take_along_axis(_stabilizer_conjugates(rep, A),
                              rep.free_index.product[None], axis=2)


def _orbit_sum(rep: UnitaryRep, seed: np.ndarray) -> np.ndarray:
    """K = sum_g U(g) seed U(g)^dag.

    K commutes with the representation.  On a free layout the element at
    row h c + j is h after the stabilizer element j, so K =
    sum_h U(h) F0 U(h)^dag with F0 the sum of the seed's c stabilizer
    conjugates: a convolution over H, K[x, y] = v[r] for the r with
    x.r = y, where v[r] = sum_x F0[x, x.r] is the sum of the seed kernel
    (``_seed_kernel``) over its first two axes.  Elsewhere K is the sum of
    the seed's orbit."""
    index = rep.free_index
    if index is None:
        return rep.orbit(seed).sum(axis=0)
    return _seed_kernel(rep, seed).sum(axis=(0, 1))[index.quotient]


def build_frame(rep: UnitaryRep, seed_effect: np.ndarray) -> FrameObservable:
    """Covariant POVM from the group orbit of a seed effect, held as its
    dressed seed.

    effects(f) = U(g_f) D U(g_f)^dag with the dressed seed
    D = K^(-1/2) seed K^(-1/2) and K the full orbit sum.  K is a group
    average, so it commutes with the representation, and this equals
    K^(-1/2) U(g_f) seed U(g_f)^dag K^(-1/2): normalization holds exactly
    up to rounding.  The build makes no effect array.  On a permutation
    representation the effects, once read, are exact relabellings of D, so
    covariance holds exactly.

    K^(-1/2) is read from K's N^2 translation-Fourier blocks
    (``_block_inverse_sqrt``) when the translations act freely on the site
    axis (``_site_shifts``), and from one dense ``eigh`` of K otherwise;
    D is then two dense products.  Either way DegenerateSeedError is
    raised when the smallest eigenvalue of K is at most SVD_CUTOFF times
    the largest.  On the blocks a seed whose K is exactly 1 is kept to the
    bit.
    """
    seed = np.asarray(seed_effect, dtype=complex)
    shifts = _site_shifts(rep)
    if shifts is None:
        Kinv = _inverse_sqrt(_orbit_sum(rep, seed))
    else:  # K's first b columns; K is freed before the products
        b = rep.dim // len(shifts)
        Kinv = _block_inverse_sqrt(_orbit_sum(rep, seed)[:, :b], shifts)
    return FrameObservable(rep, Kinv @ seed @ Kinv)


def uniform_frame(rep: UnitaryRep) -> FrameObservable:
    """effects(f) = identity / |F|, the orbit of that seed; covariant for
    any representation."""
    nF = len(rep.params.frame_points())
    return FrameObservable(rep, np.eye(rep.dim, dtype=complex) / nF)


def sharp_regular_frame(params: ModelParams) -> FrameObservable:
    """Rank-one PVM of the regular representation: effects(f) = |e_f><e_f|,
    the orbit of |e_0><e_0|."""
    rep = ops.regular_representation(params)
    seed = np.zeros((rep.dim, rep.dim), dtype=complex)
    seed[0, 0] = 1.0
    return FrameObservable(rep, seed)


def fiber_uniform_spacetime_frame(params: ModelParams) -> FrameObservable:
    """Sharp in spacetime, uniform over the Lorentz fiber, on l2(M).

    effects(x, lam) = |x><x| / |C|, the orbit of |0><0| / |C| under the
    spacetime permutation representation, whose boosts fix the origin:
    the orbit sum is already the identity.  This keeps the Hilbert space
    at dim N^2 for scaling scans.
    """
    rep = ops.spacetime_representation(params)
    seed = np.zeros((rep.dim, rep.dim), dtype=complex)
    seed[0, 0] = 1.0 / len(params.boosts())
    return FrameObservable(rep, seed)


# ---------------------------------------------------------------------------
# Born measures

@dataclass
class BornMeasure:
    """Weights over the frame points: weights[i] belongs to
    ``params.frame_points()[i]``.  Real for a state (``born_measure``),
    complex for a general trace-class operator
    (``born_measure_trace_class``)."""

    weights: np.ndarray
    params: ModelParams


def _born_weights(frame: FrameObservable, T: np.ndarray) -> np.ndarray:
    """Tr[T E(f)] for every frame point.

    On a free layout, with B the frame's convolution kernel, the effect of
    h after the stabilizer element j is U(h) D_j U(h)^dag, D_j the
    stabilizer conjugates of D, so its weight is
    sum_(x, r) T[h.x.r, h.x] B[j, x, r].  With A[z, r] = T[z.r, z] and
    C[z, (j, x)] = sum_r A[z, r] B[j, x, r], the weight is
    sum_x C[h.x, (j, x)]: one d x c d GEMM gives every weight, a d x d
    one on a regular representation.  On any other representation it is
    one contraction with the frame's effect array."""
    T = np.asarray(T, dtype=complex)
    B = frame.convolution_kernel
    if B is None:
        return frame.effects.reshape(len(frame.effects), -1) @ T.T.reshape(-1)
    index = frame.rep.free_index
    c, d = B.shape[:2]
    C = np.take_along_axis(T.T, index.product, axis=1) @ B.reshape(-1, d).T
    C = C.reshape(d, c, d).transpose(1, 0, 2)
    weights = np.take_along_axis(C, index.act[None], axis=1)
    return weights.sum(axis=2).T.reshape(-1)


def born_measure(of: OrientedFrame) -> BornMeasure:
    """pmf(f) = Tr[omega E(f)], real.

    Raises ops.HermiticityError when a weight has an imaginary part above
    TOL_HERM, which a Hermitian omega on a frame of Hermitian effects never
    produces."""
    w = _born_weights(of.frame, of.omega)
    imag = float(np.max(np.abs(w.imag)))
    if imag > TOL_HERM:
        raise ops.HermiticityError(
            f"Born weights have imaginary parts up to {imag:.3e}; omega is not Hermitian")
    return BornMeasure(w.real.copy(), of.frame.params)


def born_measure_trace_class(frame: FrameObservable, T: np.ndarray) -> BornMeasure:
    """Complex-weighted Born measure of an arbitrary operator."""
    return BornMeasure(_born_weights(frame, T), frame.params)


@dataclass
class Disintegration:
    """Spacetime marginal plus fiberwise Lorentz conditionals.

    marginal has shape (N^2,) in lattice_points() order; conditional has
    shape (N^2, |C|), row x holding the Lorentz conditional at x in boosts()
    order.  support marks the sites whose marginal weight exceeds tol_supp
    in absolute value, the one support rule of the package; rows off the
    support are zero.  On the support,
    marginal[x] * conditional[x, lam] recovers the joint pmf.
    """

    marginal: np.ndarray
    conditional: np.ndarray
    support: np.ndarray


def disintegrate(mu: BornMeasure, tol_supp: float = TOL_SUPP) -> Disintegration:
    joint = np.real(mu.weights).reshape(mu.params.N ** 2, -1)
    marginal = joint.sum(axis=1)
    support = np.abs(marginal) > tol_supp
    conditional = np.zeros_like(joint)
    conditional[support] = joint[support] / marginal[support, None]
    return Disintegration(marginal, conditional, support)


# ---------------------------------------------------------------------------
# channels

class Channel:
    """A completely positive map on d x d operators, held as its Kraus
    stack K, a (k, d, d) array: psi(A) = sum_k K_k^dag A K_k in the
    Heisenberg picture, and psi_*(rho) = sum_k K_k rho K_k^dag."""

    def __init__(self, kraus: np.ndarray):
        self.kraus = np.asarray(kraus, dtype=complex)
        if self.kraus.ndim != 3 or self.kraus.shape[1] != self.kraus.shape[2]:
            raise ops.SizeError(f"Kraus stack shape {self.kraus.shape} is not (k, d, d)")

    def apply(self, A: np.ndarray) -> np.ndarray:
        """psi(A), for one operator or for each operator of a stack."""
        return sum(dagger(K) @ A @ K for K in self.kraus)

    def unitality_defect(self) -> float:
        eye = np.eye(self.kraus.shape[-1], dtype=complex)
        return eq_defect(self.apply(eye), eye)

    def predual_apply(self, rho: np.ndarray) -> np.ndarray:
        """The Schroedinger-picture map: Tr[psi_*(rho) A] = Tr[rho psi(A)]."""
        return sum(K @ rho @ dagger(K) for K in self.kraus)


def random_mixed_unitary_channel(rng: np.random.Generator, dim: int) -> Channel:
    """Random convex mixture of three unitary conjugations A -> Q A Q^dag
    (unital and CP), with Kraus operators sqrt(w) Q^dag."""
    weights = rng.random(3)
    weights /= weights.sum()
    unitaries = [np.linalg.qr(ops.random_operator(rng, dim))[0] for _ in weights]
    return Channel(np.sqrt(weights)[:, None, None] * dagger(np.array(unitaries)))


def channel_compose(psi: Channel, frame: FrameObservable) -> np.ndarray:
    """psi(E(f)) for every frame point, as one (|F|, d, d) array in
    frame_points() order: the frame post-processed by a unital CP map.

    A Kraus stack is completely positive by construction; unitality is
    validated before composing, so the result is a normalized POVM.  It
    is a frame only when psi is equivariant, which a generic channel is
    not, so it stays an array.
    """
    if psi.unitality_defect() > TOL_EQ:
        raise ChannelValidationError(
            f"channel is not unital (defect {psi.unitality_defect():.3e})")
    return psi.apply(frame.effects)


# ---------------------------------------------------------------------------
# vacuum orthogonality

#: Lattice sizes of ``vacuum_weight_scan``.
VACUUM_SCAN_SIZES = (3, 5, 7, 9)


def vacuum_weight_scan() -> list[tuple[int, float]]:
    """(N, weight of the site (0, 0)) for each N in VACUUM_SCAN_SIZES: the
    spacetime-marginal Born weight of one site under the maximally mixed
    state of the boost-uniform frame at s = 2.  That state is
    translation-invariant, and translations act transitively on the
    sites, so the weight is exactly 1 / N^2."""
    rows = []
    for N in VACUUM_SCAN_SIZES:
        fr = uniform_frame(ops.lorentz_representation(ModelParams(N, 2)))
        mixed = np.eye(fr.dim, dtype=complex) / fr.dim
        marginal = OrientedFrame(fr, mixed).disintegration.marginal
        rows.append((N, float(marginal[fr.params.site_index(LatticePoint(0, 0))])))
    return rows


@dataclass
class StrictOrthogonalityReport:
    residual: float
    fixed_space_dim: int


def strict_vacuum_orthogonality_check(
        frame: FrameObservable) -> StrictOrthogonalityReport:
    """Whether every spacetime-marginal effect annihilates the subspace of
    translation-fixed vectors.

    The residual is the operator norm of F_R(x) P_vac at a single point;
    sums over larger regions are monotone in this, and the whole space
    would trivially give norm 1 for any normalized frame.  The rank of
    the fixed space is the multiplicity of the trivial character
    (``ops.translation_multiplicities`` at p = 0), and rank 0 gives
    exactly 0.0 with no projector and no eigendecomposition.  Otherwise,
    with V an orthonormal basis of the fixed space, P_vac = V V^dag and
    V^dag is a co-isometry, so |F_R(x) P_vac| = |F_R(x) V|, and the thin
    product is used.  Every x gives the same norm: F_R(x) = U(x) F_R(0)
    U(x)^dag and U(x)^dag V = V, so |F_R(x) V| = |F_R(0) V|, and the
    residual is read at the origin.
    """
    rank = round(float(ops.translation_multiplicities(frame.rep)[0, 0]))
    if rank == 0:
        return StrictOrthogonalityReport(0.0, 0)
    averaged = ops.translation_fixed_point_projector(frame.rep)
    eigenvalues, vectors = np.linalg.eigh(averaged)
    V = vectors[:, eigenvalues > 0.5]
    origin = frame.spacetime_marginal_effects([LatticePoint(0, 0)])[0]
    return StrictOrthogonalityReport(op_norm(origin @ V), rank)
