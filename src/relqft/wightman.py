"""Vacuum correlation functions of relational observables.

Everything here is a finite sum evaluated exactly: n-point vacuum
expectation values, their pointwise spacetime kernels, difference kernels
for globally oriented frames, discrete spectral (momentum-support) checks,
time-ordered correlators, and irreducibility of the trace-class field
span.  The spectral table transforms by the translation characters of
``lattice.characters``, the e^{+2 pi i q.xi / N} pairing, so momentum
support lands on the character support of the system representation
rather than its negation; the sign is pinned by a unit test against the
character projectors.

Three whole-lattice arrays carry the pointwise quantities of an n-factor
spec:

* the kernel array (``kernel_array``): W(x_1, ..., x_n) at every point
  tuple as one (N^2,)^n array, axis j over x_j in lattice_points() order;
* the difference kernel (``difference_kernel``): the same values over the
  differences xi_j = x_j - x_(j+1), one (N, N)^(n-1) array with axes
  (xi_1.u, xi_1.v, ..., xi_(n-1).u, xi_(n-1).v);
* the spectral table (``SpectralReport.table``): the transform of the
  difference kernel, same shape, with axes (q_1.u, q_1.v, ...).

The kernel array is the one evaluator of W at points.  ``KernelArrays``
keeps the array of each spec on one vacuum and frame, so a spec read
several times is evaluated once; ``kernel`` reads its entry at one
tuple, the swap and time-ordering quantities read ``kernel``, and the
Hermiticity and reconstruction residuals read whole arrays.  The tests
check it against products of site-table rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from relqft import lattice, operators as ops
from relqft.fields import (
    RelationalField,
    SystemModel,
    certify_globally_oriented,
    relational_local_fields,
    relational_local_observable,
    unit_observables,
)
from relqft.frames import FrameObservable
from relqft.lattice import ModelParams
from relqft.operators import AlgebraSubspace, commutant, dagger, generated_algebra
from relqft.tolerances import SVD_CUTOFF, TOL_EQ


class OrientationError(ValueError):
    """Raised when a difference-kernel quantity needs a globally oriented,
    fully supported preparation and does not get one."""


class InvarianceError(ValueError):
    """Raised when a vacuum state is not invariant under the group."""


@dataclass(frozen=True)
class VacuumModel:
    """An invariant state on the system, with its representation; the
    model parameters are the representation's."""

    rep: ops.UnitaryRep
    state: np.ndarray

    def __post_init__(self):
        if not ops.is_state(np.asarray(self.state, dtype=complex)):
            raise ops.HermiticityError("vacuum is not a density matrix")
        rows = [self.params.frame_index(g) for g in self.params.generators()]
        if ops.eq_defect(self.rep.orbit(self.state, rows), self.state) > TOL_EQ:
            raise InvarianceError("vacuum state is not group-invariant")

    @property
    def params(self) -> ModelParams:
        return self.rep.params

    @property
    def dim(self) -> int:
        return self.rep.dim

    @classmethod
    def pure(cls, rep: ops.UnitaryRep, vector: np.ndarray) -> "VacuumModel":
        v = np.asarray(vector, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(rep, np.outer(v, np.conj(v)))


@dataclass(frozen=True)
class VevSpec:
    """An ordered list of (``frames.OrientedFrame``, operator) factors."""

    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 1:
            raise ValueError("need at least one factor")

    @property
    def n(self) -> int:
        return len(self.factors)

    def swapped(self, i: int) -> "VevSpec":
        """Adjacent factors i and i+1 exchanged."""
        f = list(self.factors)
        f[i], f[i + 1] = f[i + 1], f[i]
        return VevSpec(tuple(f))

    def reversed_adjoint(self) -> "VevSpec":
        """Factor order reversed with every operator adjointed; the
        comparison partner in the Hermiticity identity."""
        return VevSpec(tuple((w, dagger(phi)) for w, phi in reversed(self.factors)))


def _per_factor(read, vac: VacuumModel, spec: VevSpec) -> list[np.ndarray]:
    """read(rf, of) of each factor's relational field and preparation."""
    return [read(RelationalField(SystemModel(vac.params, vac.rep, phi),
                                 of.frame), of) for of, phi in spec.factors]


def vev(vac: VacuumModel, spec: VevSpec) -> complex:
    """Vacuum expectation of the ordered product of relational observables."""
    acc = np.array(vac.state, dtype=complex)
    for A in _per_factor(relational_local_observable, vac, spec):
        acc = acc @ A
    return complex(np.trace(acc))


def kernel_array(vac: VacuumModel, spec: VevSpec) -> np.ndarray:
    """The kernel at every point tuple: an (N^2,)^n array, one axis per
    factor in lattice_points() order.

    rho phi_1(x_1) ... phi_(n-1)(x_(n-1)) is taken for every prefix tuple
    at once and closed by a trace with the last site table, an unoptimized
    einsum rather than a BLAS product, so the bytes do not depend on the
    number of BLAS threads.
    """
    *first, last = _per_factor(relational_local_fields, vac, spec)
    acc = np.array(vac.state, dtype=complex)
    for table in first:
        acc = acc[..., None, :, :] @ table
    return np.einsum("...ab,yba->...y", acc, last)


class KernelArrays:
    """``kernel_array`` on one vacuum and frame for each spec prepared on
    that frame, built on first request and kept read-only.  A spec is known
    by a SHA-256 digest of the values of its factors (each state, its
    tol_supp and each operator), so a spec rebuilt from the same
    preparations and operators, such as ``spec.swapped(i)`` taken twice,
    finds its array."""

    def __init__(self, vac: VacuumModel, frame: FrameObservable):
        self.vac = vac
        self.frame = frame
        self._arrays: dict = {}

    def __call__(self, spec: VevSpec) -> np.ndarray:
        digest = hashlib.sha256()
        for of, phi in spec.factors:
            if of.frame is not self.frame:
                raise ValueError("the spec has a preparation of another frame")
            digest.update(np.ascontiguousarray(of.omega))
            digest.update(np.float64(of.tol_supp).tobytes())
            digest.update(np.ascontiguousarray(phi, dtype=complex))
        key = digest.digest()
        if key not in self._arrays:
            array = kernel_array(self.vac, spec)
            array.flags.writeable = False
            self._arrays[key] = array
        return self._arrays[key]


def kernel(kernels: KernelArrays, spec: VevSpec, points) -> complex:
    """Pointwise spacetime kernel: the entry of the spec's kernel array at
    one lattice point per factor (zero off the marginal supports)."""
    if len(points) != spec.n:
        raise ValueError("one lattice point per factor required")
    index = tuple(kernels.vac.params.site_index(x) for x in points)
    return complex(kernels(spec)[index])


def kernel_reconstruction_defect(kernels: KernelArrays, spec: VevSpec) -> float:
    """|sum over point tuples of kernel x marginal weights - vev|: the
    spec's kernel array contracted with each factor's spacetime
    marginal."""
    total = kernels(spec)
    for of, _ in reversed(spec.factors):
        total = total @ of.disintegration.marginal
    return abs(total - vev(kernels.vac, spec))


# ---------------------------------------------------------------------------
# difference kernels and the spectral condition

def _require_globally_oriented(spec: VevSpec, tol_eq: float) -> None:
    for of, _ in spec.factors:
        dis = of.disintegration
        if not certify_globally_oriented(dis, tol_eq):
            raise OrientationError("preparation is not globally oriented")
        if not dis.support.all():
            raise OrientationError(
                "difference kernels need a full-support spacetime marginal")


def difference_kernel(vac: VacuumModel, spec: VevSpec,
                      tol_eq: float = TOL_EQ) -> np.ndarray:
    """The translation-reduced kernel over the successive differences
    xi_j = x_j - x_(j+1), as an (N, N)^(n-1) array with axes
    (xi_1.u, xi_1.v, ...).

    Gathered from the kernel array at every base point x_n; well-defined
    for certified globally oriented, fully supported preparations, and
    refused when any base gives a different value."""
    _require_globally_oriented(spec, tol_eq)
    N = vac.params.N
    K = kernel_array(vac, spec)
    # base (u, v) first, then (xi_j.u, xi_j.v) for j = 1 .. n-1
    grid = np.ogrid[(slice(0, N),) * (2 * spec.n)]
    u, v = grid[0], grid[1]
    index = [u * N + v]
    for j in reversed(range(spec.n - 1)):
        u, v = (u + grid[2 * j + 2]) % N, (v + grid[2 * j + 3]) % N
        index.insert(0, u * N + v)
    by_base = K[tuple(index)]
    table = by_base[0, 0]
    defect = float(np.max(np.abs(by_base - table)))
    if defect > tol_eq:
        raise OrientationError(
            "difference kernel is base-dependent: |delta| = %.3e" % defect)
    return table


@dataclass
class SpectralReport:
    support: np.ndarray
    kernel: np.ndarray
    table: np.ndarray
    max_leak: float
    max_on_support: float
    vacuous: bool


def spectral_check(vac: VacuumModel, spec: VevSpec,
                   tol_eq: float = TOL_EQ) -> SpectralReport:
    """Transform magnitudes must vanish whenever any momentum component
    lies outside the character support of the system representation:
    ``max_leak`` is the largest magnitude there.

    The support is the (N, N) mask of the momenta whose multiplicity
    (``operators.translation_multiplicities``) exceeds 1/2.  The report
    keeps the difference kernel it transformed, and the table, its
    inverse transform with axes (q_1.u, q_1.v, ...): a
    ``lattice.site_transform`` by ``lattice.characters(N)`` over each
    difference's pair of axes, the pair then rotated to the back, divided
    by N^(2(n-1)).  The assertion is vacuous when the support is all of
    the momentum lattice (for example the regular representation).
    """
    N = vac.params.N
    inside = ops.translation_multiplicities(vac.rep) > 0.5
    kernel = difference_kernel(vac, spec, tol_eq)
    W = lattice.characters(N)
    table = kernel
    on = np.ones((), dtype=bool)
    for _ in range(spec.n - 1):
        table = np.moveaxis(lattice.site_transform(table, W), (0, 1), (-2, -1))
        on = np.logical_and.outer(on, inside)
    table = table / N ** (2 * (spec.n - 1))
    leak = float(np.max(np.abs(table[~on]), initial=0.0))
    on_support = float(np.max(np.abs(table[on]), initial=0.0))
    return SpectralReport(inside, kernel, table, leak, on_support,
                          bool(inside.all()))


# ---------------------------------------------------------------------------
# hermiticity, positivity, swaps

def hermiticity_check(kernels: KernelArrays, spec: VevSpec) -> float:
    """Residual of vev(spec) against the conjugate of the reversed-adjoint
    spec, and of the kernel array against the conjugate of the
    reversed-adjoint one read with its axes reversed, at every tuple."""
    rev = spec.reversed_adjoint()
    residual = abs(vev(kernels.vac, spec) - np.conj(vev(kernels.vac, rev)))
    defects = np.abs(kernels(spec) - np.conj(kernels(rev).T))
    return float(max(residual, np.max(defects)))


def gram_matrix(vac: VacuumModel, families) -> np.ndarray:
    """G[j, k] = Tr[vacuum A_k^dag A_j] for A_j the ordered product of the
    j-th family's relational observables: one einsum over the stacked
    products; positive semidefinite by the positivity of the vacuum."""
    prods = []
    for spec in families:
        acc = np.eye(vac.dim, dtype=complex)
        for A in _per_factor(relational_local_observable, vac, spec):
            acc = acc @ A
        prods.append(acc)
    prods = np.array(prods)
    return np.einsum("ab,kcb,jca->jk", vac.state, prods.conj(), prods)


def kernel_swap_residual(kernels: KernelArrays, spec: VevSpec, points,
                         i: int) -> float:
    """Kernel-level adjacent swap: factors and their points exchanged."""
    pts = list(points)
    pts[i], pts[i + 1] = pts[i + 1], pts[i]
    return abs(kernel(kernels, spec, points)
               - kernel(kernels, spec.swapped(i), pts))


# ---------------------------------------------------------------------------
# time ordering

def theta(t: int) -> float:
    """Discrete step weight; the coincident-time value 1/2 keeps the
    permutation sum normalized and is flagged by callers whenever used."""
    if t > 0:
        return 1.0
    if t < 0:
        return 0.0
    return 0.5


def time_ordered_detailed(kernels: KernelArrays, spec: VevSpec,
                          points) -> tuple[complex, bool]:
    """Theta-weighted permutation sum over factor orderings, each term the
    ``kernel`` of the permuted factors at the permuted points, taken only
    for permutations of nonzero weight; returns the value and whether any
    coincident-time pair invoked theta(0) = 1/2."""
    params = kernels.vac.params
    if len(points) != spec.n:
        raise ValueError("one lattice point per factor required")
    taus = [lattice.time_coordinate(x, params) for x in points]
    total = 0.0 + 0.0j
    coincident = False
    for perm in permutations(range(spec.n)):
        weight = 1.0
        for a, b in zip(perm, perm[1:]):
            dt = taus[a] - taus[b]
            if dt == 0:
                coincident = True
            weight *= theta(dt)
            if weight == 0.0:
                break
        if weight == 0.0:
            continue
        permuted = VevSpec(tuple(spec.factors[j] for j in perm))
        total += weight * kernel(kernels, permuted, [points[j] for j in perm])
    return total, coincident


# ---------------------------------------------------------------------------
# irreducibility of the trace-class field span

def field_operator_span(rf: RelationalField) -> list[np.ndarray]:
    """Orthonormal spanning basis of {extend_trace_class(rf, T)} as T runs
    over a full matrix-unit basis of the frame space: the span of the
    units that carry Born weight, whose images ``fields.unit_observables``
    evaluates in one orbit sum, with weights the frame reads from its seed
    on a free layout (``FrameObservable.unit_weights``)."""
    raw = unit_observables(rf.frame, rf.system.rep, [rf.system.phi])[0]
    return AlgebraSubspace.from_spanning(rf.system.dim, raw).basis_ops()


@dataclass
class IrreducibilityReport:
    span_dim: int
    commutant_dim: int
    irreducible: bool
    bicommutant_dim: int
    generates_full: bool
    cyclic: bool | None
    cyclic_rank: int | None


def irreducibility_check(rf: RelationalField,
                         vacuum_vector: np.ndarray | None = None) -> IrreducibilityReport:
    """Commutant triviality of the trace-class field span, the *-algebra it
    generates (its bicommutant), and when a vector v is supplied its cyclic
    rank: the rank of {B v : B in a basis of that algebra}.  An
    irreducible span generates all d x d matrices, so every nonzero v is
    cyclic for it.
    """
    dim = rf.system.dim
    basis = field_operator_span(rf)
    comm = commutant(basis, dim)
    algebra = generated_algebra(basis, dim)
    irreducible = comm.subspace_dim == 1
    generates_full = algebra.subspace_dim == dim * dim

    cyclic = None
    rank = None
    if vacuum_vector is not None:
        v = np.asarray(vacuum_vector, dtype=complex)
        svals = np.linalg.svd(algebra.basis_ops() @ (v / np.linalg.norm(v)),
                              compute_uv=False)
        rank = int(np.sum(svals > SVD_CUTOFF * svals[0]))
        cyclic = rank == dim
    return IrreducibilityReport(
        span_dim=len(basis),
        commutant_dim=comm.subspace_dim,
        irreducible=irreducible,
        bicommutant_dim=algebra.subspace_dim,
        generates_full=generates_full,
        cyclic=cyclic,
        cyclic_rank=rank,
    )
