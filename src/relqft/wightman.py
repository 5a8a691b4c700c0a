"""Vacuum correlation functions of relational observables.

Everything here is a finite sum evaluated exactly: n-point vacuum
expectation values, their pointwise spacetime kernels, difference kernels
for globally oriented frames, discrete spectral (momentum-support) checks,
time-ordered correlators, and irreducibility of the trace-class field
span.  The discrete Fourier transform uses the e^{+2 pi i q.xi / N}
character pairing, so momentum support lands on the character support of
the system representation rather than its negation; the sign is pinned by
a unit test against the character projectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from relqft import lattice, operators as ops
from relqft.fields import (
    RelationalField,
    SystemModel,
    oriented_fields,
    relational_local_fields,
    relational_local_observable,
)
from relqft.frames import (
    FrameObservable,
    InvarianceError,
    OrientedFrame,
    born_measure,
)
from relqft.fields import certify_globally_oriented
from relqft.lattice import LatticePoint, ModelParams
from relqft.operators import AlgebraSubspace, commutant, dagger, generated_algebra
from relqft.tolerances import (SVD_CUTOFF, TOL_DFT, TOL_EQ, TOL_SUPP,
                               Measurement, verdict)


class OrientationError(ValueError):
    """Raised when a difference-kernel quantity needs a globally oriented,
    fully supported preparation and does not get one."""


class TimeOrderError(ValueError):
    """Raised when time-ordering is requested outside the lifted causal
    mode, where the time coordinate has no chart-independent meaning."""


@dataclass(frozen=True)
class VacuumModel:
    """An invariant state on the system, with its representation."""

    params: ModelParams
    rep: ops.UnitaryRep
    state: np.ndarray

    def __post_init__(self):
        lattice.require_same_params(self.params, self.rep.params)
        if not ops.is_state(np.asarray(self.state, dtype=complex)):
            raise ops.HermiticityError("vacuum is not a density matrix")
        for g in self.params.generators():
            if ops.eq_defect(self.rep.conjugate(g, self.state), self.state) > TOL_EQ:
                raise InvarianceError("vacuum state is not group-invariant")

    @property
    def dim(self) -> int:
        return self.rep.dim

    @classmethod
    def pure(cls, params: ModelParams, rep: ops.UnitaryRep,
             vector: np.ndarray) -> "VacuumModel":
        v = np.asarray(vector, dtype=complex)
        v = v / np.linalg.norm(v)
        return cls(params, rep, np.outer(v, np.conj(v)))


@dataclass(frozen=True)
class VevSpec:
    """An ordered list of (frame preparation, system operator) factors."""

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


def _observables(vac: VacuumModel, spec: VevSpec,
                 frame: FrameObservable) -> list[np.ndarray]:
    out = []
    for omega, phi in spec.factors:
        rf = RelationalField(SystemModel(vac.params, vac.rep, phi), frame)
        out.append(relational_local_observable(rf, omega))
    return out


def _site_tables(vac: VacuumModel, spec: VevSpec, frame: FrameObservable,
                 tol_supp: float = TOL_SUPP) -> list[np.ndarray]:
    """The site table of each factor's relational field, in factor order;
    one Born measure per factor serves every point tuple."""
    tables = []
    for omega, phi in spec.factors:
        rf = RelationalField(SystemModel(vac.params, vac.rep, phi), frame)
        tables.append(relational_local_fields(rf, omega, tol_supp)[0])
    return tables


def _fields_at(vac: VacuumModel, tables, points) -> list[np.ndarray]:
    """Factor j's field at points[j], read from its site table."""
    return [table[vac.params.site_index(LatticePoint(*x))]
            for table, x in zip(tables, points)]


def _kernel_at(vac: VacuumModel, tables, points) -> complex:
    """The pointwise kernel at one point tuple, from the site tables."""
    return _trace_product(vac.state, _fields_at(vac, tables, points))


def _trace_product(state: np.ndarray, factors) -> complex:
    acc = np.array(state, dtype=complex)
    for A in factors:
        acc = acc @ A
    return complex(np.trace(acc))


def vev(vac: VacuumModel, spec: VevSpec, frame: FrameObservable) -> complex:
    """Vacuum expectation of the ordered product of relational observables."""
    return _trace_product(vac.state, _observables(vac, spec, frame))


def kernel_values(vac: VacuumModel, spec: VevSpec, frame: FrameObservable,
                  point_tuples, tol_supp: float = TOL_SUPP) -> list[complex]:
    """The pointwise kernel at each point tuple, in order, from one site
    table per factor."""
    point_tuples = list(point_tuples)
    if any(len(points) != spec.n for points in point_tuples):
        raise ValueError("one lattice point per factor required")
    tables = _site_tables(vac, spec, frame, tol_supp)
    return [_kernel_at(vac, tables, points) for points in point_tuples]


def kernel(vac: VacuumModel, spec: VevSpec, frame: FrameObservable,
           points, tol_supp: float = TOL_SUPP) -> complex:
    """Pointwise spacetime kernel: the same product with each factor
    evaluated at its lattice point (zero off the marginal support); the
    one-tuple case of ``kernel_values``."""
    return kernel_values(vac, spec, frame, [points], tol_supp)[0]


def kernel_reconstruction_defect(vac: VacuumModel, spec: VevSpec,
                                 frame: FrameObservable,
                                 tol_supp: float = TOL_SUPP) -> float:
    """|sum over point tuples of kernel x marginal weights - vev|.

    Exhaustive over the marginal supports, so keep n and N small.
    """
    sites = frame.params.lattice_points()
    tables = _site_tables(vac, spec, frame, tol_supp)
    supports = []
    weights = []
    for omega, _ in spec.factors:
        marg = born_measure(OrientedFrame(frame, omega)).spacetime_marginal()
        supports.append(np.flatnonzero(marg > tol_supp))
        weights.append(marg)
    total = 0.0 + 0.0j
    for tup in product(*supports):
        w = 1.0
        for i, site in enumerate(tup):
            w *= weights[i][site]
        total += w * _kernel_at(vac, tables, [sites[i] for i in tup])
    return abs(total - vev(vac, spec, frame))


# ---------------------------------------------------------------------------
# difference kernels and the spectral condition

def _require_globally_oriented(spec: VevSpec, frame: FrameObservable,
                               tol_supp: float = TOL_SUPP) -> None:
    n_points = frame.params.N ** 2
    for omega, _ in spec.factors:
        of = OrientedFrame(frame, omega)
        if not certify_globally_oriented(of, tol_supp=tol_supp):
            raise OrientationError("preparation is not globally oriented")
        marg = born_measure(of).spacetime_marginal()
        if np.count_nonzero(marg > tol_supp) != n_points:
            raise OrientationError(
                "difference kernels need a full-support spacetime marginal")


def _points_from_differences(xis, params: ModelParams,
                             base: LatticePoint) -> list[LatticePoint]:
    pts = [base]
    for xi in reversed(list(xis)):
        prev = pts[0]
        pts.insert(0, LatticePoint((prev.u + xi.u) % params.N,
                                   (prev.v + xi.v) % params.N))
    return pts


def difference_kernel(vac: VacuumModel, spec: VevSpec, frame: FrameObservable,
                      xis, tol_eq: float = TOL_EQ) -> complex:
    """Translation-reduced kernel evaluated at successive differences
    xi_j = x_j - x_{j+1}; well-defined for certified globally oriented,
    fully supported preparations, and cross-checked at the base shifted
    by (1, 1)."""
    if len(xis) != spec.n - 1:
        raise ValueError("need n-1 difference vectors")
    _require_globally_oriented(spec, frame)
    params = frame.params
    tables = _site_tables(vac, spec, frame)
    pts = _points_from_differences(xis, params, LatticePoint(0, 0))
    value = _kernel_at(vac, tables, pts)
    shifted = [LatticePoint((p.u + 1) % params.N, (p.v + 1) % params.N)
               for p in pts]
    other = _kernel_at(vac, tables, shifted)
    if abs(value - other) > tol_eq:
        raise OrientationError(
            "difference kernel is base-dependent: |delta| = %.3e"
            % abs(value - other))
    return value


def difference_kernel_table(vac: VacuumModel, spec: VevSpec,
                            frame: FrameObservable) -> dict:
    """All difference-kernel values, keyed by (n-1)-tuples of lattice
    points."""
    _require_globally_oriented(spec, frame)
    params = frame.params
    tables = _site_tables(vac, spec, frame)
    points = list(params.lattice_points())
    table = {}
    for tup in product(points, repeat=spec.n - 1):
        pts = _points_from_differences(tup, params, LatticePoint(0, 0))
        table[tup] = _kernel_at(vac, tables, pts)
    return table


def spectral_table(vac: VacuumModel, spec: VevSpec,
                   frame: FrameObservable) -> dict:
    """Discrete Fourier transform of the difference-kernel table with the
    e^{+2 pi i q.xi / N} pairing and 1/N^2 normalization per factor."""
    N = frame.params.N
    m = spec.n - 1
    table = difference_kernel_table(vac, spec, frame)
    arr = np.zeros((N,) * (2 * m), dtype=complex)
    for tup, val in table.items():
        idx = tuple(c for xi in tup for c in (xi.u, xi.v))
        arr[idx] = val
    hat = np.fft.ifftn(arr)
    out = {}
    for idx in np.ndindex(*hat.shape):
        key = tuple(LatticePoint(idx[2 * j], idx[2 * j + 1]) for j in range(m))
        out[key] = complex(hat[idx])
    return out


@dataclass
class SpectralReport:
    support: frozenset
    table: dict
    max_leak: float
    max_on_support: float
    vacuous: bool
    verdict: str


def spectral_check(vac: VacuumModel, spec: VevSpec, frame: FrameObservable,
                   tol_dft: float = TOL_DFT) -> SpectralReport:
    """Transform magnitudes must vanish whenever any momentum component
    lies outside the character support of the system representation.

    The assertion is vacuous when the support is all of the momentum
    lattice (for example the regular representation).
    """
    support = frozenset(ops.translation_character_support(vac.rep))
    table = spectral_table(vac, spec, frame)
    leak = 0.0
    on_support = 0.0
    for key, val in table.items():
        if all(q in support for q in key):
            on_support = max(on_support, abs(val))
        else:
            leak = max(leak, abs(val))
    vacuous = len(support) == frame.params.N ** 2
    return SpectralReport(
        support, table, leak, on_support, vacuous,
        verdict([Measurement("outside_support", leak, tol_dft)], not vacuous))


# ---------------------------------------------------------------------------
# hermiticity, positivity, swaps

def hermiticity_check(vac: VacuumModel, spec: VevSpec, frame: FrameObservable,
                      point_samples: int = 10) -> float:
    """Residual of vev(spec) against the conjugate of the reversed-adjoint
    spec, plus the kernel-level analog at sampled point tuples."""
    rev = spec.reversed_adjoint()
    residual = abs(vev(vac, spec, frame) - np.conj(vev(vac, rev, frame)))
    tables = _site_tables(vac, spec, frame)
    rev_tables = _site_tables(vac, rev, frame)
    points = list(frame.params.lattice_points())
    rng = ops.make_rng(len(points))
    for _ in range(point_samples):
        tup = tuple(points[rng.integers(len(points))] for _ in range(spec.n))
        lhs = _kernel_at(vac, tables, tup)
        rhs = np.conj(_kernel_at(vac, rev_tables, tuple(reversed(tup))))
        residual = max(residual, abs(lhs - rhs))
    return float(residual)


def gram_matrix(vac: VacuumModel, families, frame: FrameObservable) -> np.ndarray:
    """G[j, k] = Tr[vacuum A_k^dag A_j] for A_j the ordered product of the
    j-th family's relational observables."""
    prods = []
    for spec in families:
        obs = _observables(vac, spec, frame)
        acc = np.eye(vac.dim, dtype=complex)
        for A in obs:
            acc = acc @ A
        prods.append(acc)
    k = len(prods)
    G = np.zeros((k, k), dtype=complex)
    for j in range(k):
        for m in range(k):
            G[j, m] = np.trace(vac.state @ dagger(prods[m]) @ prods[j])
    return G


def positivity_check(vac: VacuumModel, families, frame: FrameObservable) -> float:
    """psd_gap of the Gram matrix of family products; >= -tol_psd means
    the positive-definiteness condition holds."""
    return ops.psd_gap(gram_matrix(vac, families, frame))


def adjacent_swap_residual(vac: VacuumModel, spec: VevSpec,
                           frame: FrameObservable, i: int) -> float:
    """|vev(spec) - vev(spec with factors i, i+1 exchanged)|."""
    return abs(vev(vac, spec, frame) - vev(vac, spec.swapped(i), frame))


def kernel_swap_residual(vac: VacuumModel, spec: VevSpec, frame: FrameObservable,
                         points, i: int) -> float:
    """Kernel-level adjacent swap: factors and their points exchanged."""
    pts = list(points)
    pts[i], pts[i + 1] = pts[i + 1], pts[i]
    return abs(kernel(vac, spec, frame, points)
               - kernel(vac, spec.swapped(i), frame, pts))


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


def time_ordered_detailed(vac: VacuumModel, spec: VevSpec, frame: FrameObservable,
                          points) -> tuple[complex, bool]:
    """Theta-weighted permutation sum over factor orderings; returns the
    value and whether any coincident-time pair invoked theta(0) = 1/2."""
    params = frame.params
    if params.causal_mode != "lifted":
        raise TimeOrderError("time ordering requires the lifted causal mode")
    if len(points) != spec.n:
        raise ValueError("one lattice point per factor required")
    taus = [lattice.time_coordinate(x, params) for x in points]
    fields = _fields_at(vac, _site_tables(vac, spec, frame), points)
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
        total += weight * _trace_product(vac.state, [fields[j] for j in perm])
    return total, coincident


# ---------------------------------------------------------------------------
# irreducibility of the trace-class field span

def field_operator_span(rf: RelationalField) -> list[np.ndarray]:
    """Orthonormal spanning basis of {extend_trace_class(rf, T)} as T runs
    over a full matrix-unit basis of the frame space.

    For the unit T = e_ij, Tr[T E(f)] = E(f)[j, i], so the whole raw span
    is one product of the transposed effect array (a view) with the
    oriented stack; its rows are then put back in the unit order i, j."""
    d_s, d_r = rf.system.dim, rf.frame.dim
    n = len(rf.frame.effects)
    oriented = oriented_fields(rf.system).reshape(n, -1)
    raw = (rf.frame.effects.reshape(n, -1).T @ oriented).reshape(d_r, d_r, -1)
    raw = raw.transpose(1, 0, 2).reshape(-1, d_s, d_s)
    return AlgebraSubspace.from_spanning(d_s, raw).basis_ops()


@dataclass
class IrreducibilityReport:
    span_dim: int
    commutant_dim: int
    irreducible: bool
    bicommutant_dim: int
    generates_full: bool
    cyclic: bool | None
    cyclic_rank: int | None
    implication_ok: bool


def irreducibility_check(rf: RelationalField,
                         vacuum_vector: np.ndarray | None = None) -> IrreducibilityReport:
    """Commutant triviality of the trace-class field span, the *-algebra it
    generates (its bicommutant), and when a vector v is supplied its cyclic
    rank: the rank of {B v : B in a basis of that algebra}.

    Irreducibility should imply cyclicity of every nonzero vector; the
    report records whether that implication held.
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
        basis_ops = algebra.Q.T.reshape(-1, dim, dim)
        svals = np.linalg.svd(basis_ops @ (v / np.linalg.norm(v)), compute_uv=False)
        rank = int(np.sum(svals > SVD_CUTOFF * svals[0]))
        cyclic = rank == dim
    implication_ok = not irreducible or cyclic is not False
    return IrreducibilityReport(
        span_dim=len(basis),
        commutant_dim=comm.subspace_dim,
        irreducible=irreducible,
        bicommutant_dim=algebra.subspace_dim,
        generates_full=generates_full,
        cyclic=cyclic,
        cyclic_rank=rank,
        implication_ok=implication_ok,
    )
