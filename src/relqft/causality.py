"""Causality predicates for relational fields and frames.

Four layers, from weakest premise to strongest:

* frame-state separation: the spacetime supports of two preparations are
  pairwise spacelike (``r_spacelike``);
* commutators of relational observables / fields under that premise
  (``check_r_causal``, ``check_r_microcausal``);
* commutativity of the frame's own effects at spacelike separation
  (``check_frame_einstein_causal``);
* statistical independence: a joint frame state reproducing the product of
  two Born measures, found (or refuted) by alternating projections
  (``find_joint_state``), feeding the intrinsic-causality pipeline.

Preparations are ``frames.OrientedFrame`` records, each measured once and
read at its own tol_supp however many predicates read it.

The commutator predicates return what they measured: a commutator norm,
or the number of point pairs they ran over with the largest commutator
norm among them (0.0 for none).  They judge nothing.  The checks in
``scenarios`` and the axiom records of ``net`` do, with
``tolerances.verdict``, under premises that several of these implications
make hard or impossible to meet: no lattice point is spacelike to itself,
so equal preparations are never spacelike separated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from relqft import lattice, operators as ops
from relqft.fields import (RelationalField, SystemModel, relational_local_fields,
                           relational_local_observable)
from relqft.frames import BornMeasure, FrameObservable, OrientedFrame
from relqft.operators import dagger, max_commutator
from relqft.tolerances import MAX_ITER_FEAS, TOL_FEAS


# ---------------------------------------------------------------------------
# spacelike separation of preparations

def r_spacelike(of1: OrientedFrame, of2: OrientedFrame) -> bool:
    """Whether the spacetime supports of two preparations are pairwise
    spacelike: each support is the ``support`` mask of the record's
    disintegration."""
    params = of1.frame.params
    points = params.lattice_points()
    supports = [frozenset(points[i] for i in
                          np.flatnonzero(of.disintegration.support))
                for of in (of1, of2)]
    return lattice.region_spacelike(*supports, params)


# ---------------------------------------------------------------------------
# commutator checks

def check_r_causal(system: SystemModel, of1: OrientedFrame, of2: OrientedFrame,
                   phi1: np.ndarray | None = None,
                   phi2: np.ndarray | None = None) -> float:
    """The larger operator norm of [A, B] and [A^dag, B] for the relational
    observables A of phi1 at the preparation of1 and B of phi2 at of2
    (``operators.max_commutator`` on the one pair).  The premise of
    R-causality, spacelike preparations (``r_spacelike``), is the
    caller's."""
    phi1 = system.phi if phi1 is None else phi1
    phi2 = phi1 if phi2 is None else phi2
    A = relational_local_observable(
        RelationalField(system.with_phi(phi1), of1.frame), of1)
    B = relational_local_observable(
        RelationalField(system.with_phi(phi2), of2.frame), of2)
    return max_commutator(A[None], B[None], np.zeros((1, 2), dtype=int),
                          adjoint=True)


def check_r_microcausal(system: SystemModel, of1: OrientedFrame,
                        of2: OrientedFrame,
                        phi1: np.ndarray | None = None,
                        phi2: np.ndarray | None = None) -> tuple[int, float]:
    """The number of spacelike pairs of supported lattice points, and the
    largest pointwise commutator norm of the relational fields over them.

    Both fields come from one site table per preparation
    (``relational_local_fields``); the commutators [A, B] and [A^dag, B]
    are normed in batches (``operators.max_commutator``), which forms the
    adjoint ones only when the first table is not exactly Hermitian, as
    it is for Hermitian phi1."""
    params = system.params
    phi1 = system.phi if phi1 is None else phi1
    phi2 = phi1 if phi2 is None else phi2
    fields1 = relational_local_fields(
        RelationalField(system.with_phi(phi1), of1.frame), of1)
    fields2 = relational_local_fields(
        RelationalField(system.with_phi(phi2), of2.frame), of2)
    points = params.lattice_points()
    sites = np.array([(i, j) for i in np.flatnonzero(of1.disintegration.support)
                      for j in np.flatnonzero(of2.disintegration.support)
                      if lattice.spacelike(points[i], points[j], params)],
                     dtype=int).reshape(-1, 2)
    return len(sites), max_commutator(fields1, fields2, sites, adjoint=True)


def check_frame_einstein_causal(frame: FrameObservable) -> tuple[int, float]:
    """The number of pairs of frame points whose spacetime projections are
    spacelike, and the largest commutator norm of their effects, batched
    as in ``check_r_microcausal``."""
    params = frame.params
    points = params.lattice_points()
    spacelike = np.array([[lattice.spacelike(x, y, params) for y in points]
                          for x in points])
    site = np.repeat(np.arange(len(points)), len(params.boosts()))
    pairs = np.argwhere(np.triu(spacelike[np.ix_(site, site)], k=1))
    return len(pairs), max_commutator(frame.effects, frame.effects, pairs)


# ---------------------------------------------------------------------------
# statistical independence via alternating projections

@lru_cache(maxsize=None)
def _hermitian_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat row-major positions in a d x d matrix of the diagonal, of the
    strict upper triangle in ``triu_indices`` order, and of its mirror
    image in the lower triangle; read-only, built once per d."""
    iu, ju = np.triu_indices(d, k=1)
    index = (np.arange(d) * (d + 1), iu * d + ju, ju * d + iu)
    for positions in index:
        positions.flags.writeable = False
    return index


def _hermitian_basis_coords(H: np.ndarray) -> np.ndarray:
    """Coordinates of a Hermitian matrix, or of each matrix of a stack,
    in the orthonormal real basis {E_ii} + {(E_ij + E_ji)/sqrt2} +
    {i(E_ij - E_ji)/sqrt2}: the diagonal, then the strict upper triangle
    in ``triu_indices`` order."""
    d = H.shape[-1]
    diag, upper, _ = _hermitian_index(d)
    flat = H.reshape(*H.shape[:-2], d * d)
    off = flat.take(upper, axis=-1)
    return np.concatenate([
        np.real(flat.take(diag, axis=-1)),
        np.sqrt(2.0) * np.real(off),
        np.sqrt(2.0) * np.imag(off),
    ], axis=-1)


def _coords_to_hermitian(x: np.ndarray, d: int) -> np.ndarray:
    diag, upper, lower = _hermitian_index(d)
    n_off = upper.size
    H = np.zeros(d * d, dtype=complex)
    H[diag] = x[:d]
    vals = (x[d:d + n_off] + 1j * x[d + n_off:]) / np.sqrt(2.0)
    H[upper] = vals
    H[lower] = np.conj(vals)
    return H.reshape(d, d)


def joint_constraint_system(frame: FrameObservable, pmf1: BornMeasure,
                            pmf2: BornMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The affine system A x = b for {Tr[w E(p)E(q)] = pmf1(p) pmf2(q)}.

    x parametrizes a Hermitian w in the orthonormal real basis; each pair
    (p, q), p-major, contributes a real and an imaginary row, the
    coordinates of the Hermitian and anti-Hermitian parts of E(p)E(q), and
    the trace-one condition is the final row.  Each E(p) takes its |F|
    products E(p)E(q) as one batched product whose rows are written into
    A, so the work memory beside A is one (|F|, d, d) stack; A itself is
    refused before allocation above ops.MAX_FRAME_BYTES.
    """
    E, d = frame.effects, frame.dim
    n = len(E)
    ops.require_stack_fits(n * n, d, f"a constraint system of {n * n} effect pairs")
    A = np.empty((2 * n * n + 1, d * d))
    pair_rows = A[:-1].reshape(n, n, 2, d * d)
    for p, Ep in enumerate(E):
        B = Ep @ E  # B[q] = E(p) E(q)
        B_dag = dagger(B)
        pair_rows[p, :, 0] = _hermitian_basis_coords((B + B_dag) / 2)
        pair_rows[p, :, 1] = _hermitian_basis_coords((B - B_dag) / 2j)
    A[-1] = _hermitian_basis_coords(np.eye(d, dtype=complex))
    b = np.zeros(2 * n * n + 1)
    b[:-1].reshape(n, n, 2)[..., 0] = np.outer(np.real(pmf1.weights),
                                               np.real(pmf2.weights))
    b[-1] = 1.0
    return A, b


#: Relative cutoff of the affine projection: singular values of the
#: constraint matrix below it times the largest are dropped, as are
#: row-space directions below it times the largest row norm.
PROJECTION_RCOND = 1e-10


def affine_projection(A: np.ndarray, b: np.ndarray):
    """The map x -> x - A^+ (A x - b) for a real matrix A: the orthogonal
    projection onto {x : A x = b}, or onto its least-squares set when that
    is empty.

    A^+ is taken as Q (A Q)^+ with Q an orthonormal basis of the row space
    of A, so no pseudo-inverse of A itself is formed.  Q is grown a block
    of rows at a time (``operators.fresh_directions``); a block takes a
    third of ops.WORK_BLOCK_BYTES (at least one row), since its residual
    and its singular vectors are as large again.  The work memory beside A
    is then a few blocks and the (len(A), rank) matrix A Q."""
    n = A.shape[1]
    scale = float(np.sqrt(np.max(np.einsum("ij,ij->i", A, A), initial=0.0)))
    step = max(1, ops.WORK_BLOCK_BYTES // (3 * A.itemsize * n))
    Q = np.zeros((n, 0))
    for start in range(0, len(A), step):
        if Q.shape[1] == n:
            break
        fresh = ops.fresh_directions(Q, A[start:start + step].T,
                                     PROJECTION_RCOND * scale)
        Q = np.concatenate([Q, fresh], axis=1)
    pinv = np.linalg.pinv(A @ Q, rcond=PROJECTION_RCOND)
    return lambda x: x - Q @ (pinv @ (A @ x - b))


@dataclass
class JointStateResult:
    state: np.ndarray | None
    residual: float
    iterations: int
    converged: bool


def find_joint_state(of1: OrientedFrame, of2: OrientedFrame,
                     tol_feas: float = TOL_FEAS,
                     max_iter: int = MAX_ITER_FEAS) -> JointStateResult:
    """Search for a state whose pair-correlations factorize into the Born
    measures of two preparations of one frame, by Dykstra alternating
    projections between the affine constraint set and the PSD cone.

    The affine step is ``affine_projection`` of the constraint system,
    built once from an orthonormal basis of its row space.  Success means
    the returned iterate is PSD (exactly, after eigenvalue clipping) and
    satisfies every affine constraint within tol_feas.  A
    residual bounded away from zero after max_iter is a no-certificate
    outcome: feasibility stays undecided, but for an empty affine set the
    residual cannot vanish.
    """
    frame = of1.frame
    if of2.frame is not frame:
        raise ValueError("a joint state needs two preparations of one frame")
    d = frame.dim
    A, b = joint_constraint_system(frame, of1.measure, of2.measure)
    project_affine = affine_projection(A, b)

    def project_psd(x: np.ndarray) -> np.ndarray:
        H = _coords_to_hermitian(x, d)
        eigs, V = np.linalg.eigh(H)
        eigs = np.clip(eigs, 0.0, None)
        return _hermitian_basis_coords((V * eigs) @ dagger(V))

    x = _hermitian_basis_coords(np.eye(d, dtype=complex) / d)
    correction = np.zeros_like(x)
    residual = np.inf
    for it in range(1, max_iter + 1):
        y = project_affine(x)
        z = y + correction
        x = project_psd(z)
        correction = z - x
        residual = float(np.max(np.abs(A @ x - b)))
        if residual <= tol_feas:
            return JointStateResult(_coords_to_hermitian(x, d), residual, it, True)
    return JointStateResult(None, residual, max_iter, False)
