"""Causality predicates for relational fields and frames.

Four layers, from weakest premise to strongest:

* frame-state separation: the spacetime supports of two preparations are
  pairwise spacelike (``r_spacelike``);
* commutators of relational observables / fields under that premise
  (``check_r_causal``, ``check_r_microcausal``);
* commutativity of the frame's own effects at spacelike separation
  (``check_frame_einstein_causal``);
* statistical independence: a joint frame state reproducing the product of
  two Born measures, found (or refuted) by alternating projections on the
  d x d density matrix (``find_joint_state``), feeding the
  intrinsic-causality pipeline.

Preparations are ``frames.OrientedFrame`` records, each measured once and
read at its own tol_supp however many predicates read it.

The commutator predicates return what they measured: a commutator norm,
or the number of point pairs they ran over with the largest commutator
norm among them (0.0 for none).  They judge nothing.  The checks in
``scenarios`` and the axiom records of ``net`` do, with
``tolerances.verdict``, under premises that several of these implications
make hard or impossible to meet: no lattice point is spacelike to itself,
so equal preparations are never spacelike separated.

A premise that only compares a commutator norm with its tol_eq passes
that bound to the predicate, which then returns a certified value on the
bound's side (``operators.max_commutator``): at most the bound exactly
when the largest norm is, so a ``Measurement`` against the bound holds
as it would on the exact norm.  Recorded residuals take no bound.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    spacelike in ``lattice.spacelike_table``: each support is the
    ``support`` mask of the record's disintegration."""
    table = lattice.spacelike_table(of1.frame.params)
    s1, s2 = of1.disintegration.support, of2.disintegration.support
    return not (s1[:, None] & s2[None, :] & ~table).any()


# ---------------------------------------------------------------------------
# commutator checks

def check_r_causal(system: SystemModel, of1: OrientedFrame, of2: OrientedFrame,
                   phi1: np.ndarray | None = None,
                   phi2: np.ndarray | None = None,
                   bound: float | None = None) -> float:
    """The larger operator norm of [A, B] and [A^dag, B] for the relational
    observables A of phi1 at the preparation of1 and B of phi2 at of2
    (``operators.max_commutator`` on the one pair, certified on the side
    of ``bound`` when one is given).  The premise of R-causality,
    spacelike preparations (``r_spacelike``), is the caller's."""
    phi1 = system.phi if phi1 is None else phi1
    phi2 = phi1 if phi2 is None else phi2
    A = relational_local_observable(
        RelationalField(system.with_phi(phi1), of1.frame), of1)
    B = relational_local_observable(
        RelationalField(system.with_phi(phi2), of2.frame), of2)
    return max_commutator(A[None], B[None], np.zeros((1, 2), dtype=int),
                          adjoint=True, bound=bound)


def check_r_microcausal(system: SystemModel, of1: OrientedFrame,
                        of2: OrientedFrame,
                        phi1: np.ndarray | None = None,
                        phi2: np.ndarray | None = None,
                        bound: float | None = None) -> tuple[int, float]:
    """The number of spacelike pairs of supported lattice points, and the
    largest pointwise commutator norm of the relational fields over them.
    The pairs are read from ``lattice.spacelike_table``, in row-major
    order.

    Both fields come from one site table per preparation
    (``relational_local_fields``); the commutators [A, B] and [A^dag, B]
    are normed in batches (``operators.max_commutator``), which forms the
    adjoint ones only when the first table's rows that the pairs read are
    not exactly Hermitian, as they are for Hermitian phi1.  Given a bound,
    the norm is certified on its side."""
    phi1 = system.phi if phi1 is None else phi1
    phi2 = phi1 if phi2 is None else phi2
    fields1 = relational_local_fields(
        RelationalField(system.with_phi(phi1), of1.frame), of1)
    fields2 = relational_local_fields(
        RelationalField(system.with_phi(phi2), of2.frame), of2)
    s1, s2 = of1.disintegration.support, of2.disintegration.support
    sites = np.argwhere(lattice.spacelike_table(system.params)
                        & s1[:, None] & s2[None, :])
    return len(sites), max_commutator(fields1, fields2, sites, adjoint=True,
                                      bound=bound)


def check_frame_einstein_causal(frame: FrameObservable,
                                bound: float | None = None) -> tuple[int, float]:
    """The number of pairs of frame points whose spacetime projections are
    spacelike, and the largest commutator norm of their effects, batched
    and certified on the side of ``bound`` as in ``check_r_microcausal``."""
    params = frame.params
    site = np.repeat(np.arange(params.N ** 2), len(params.boosts()))
    spacelike = lattice.spacelike_table(params)
    pairs = np.argwhere(np.triu(spacelike[np.ix_(site, site)], k=1))
    return len(pairs), max_commutator(frame.effects, frame.effects, pairs,
                                      bound=bound)


# ---------------------------------------------------------------------------
# statistical independence via alternating projections

def joint_constraint_system(frame: FrameObservable, pmf1: BornMeasure,
                            pmf2: BornMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The complex affine system A x = b, x = vec(w) for a d x d w, for
    {Tr[w E(p)E(q)] = pmf1(p) pmf2(q)} and Tr[w] = 1.

    Row (p, q), p-major, is vec((E(p)E(q))^T), so row . vec(w) is
    Tr[w E(p)E(q)]; the trace row vec(1) is the last.  Each E(p) takes its
    |F| products E(p)E(q) as one batched product, so the work memory
    beside A is one (|F|, d, d) stack; A itself is refused before
    allocation above ops.MAX_FRAME_BYTES.
    """
    E, d = frame.effects, frame.dim
    n = len(E)
    ops.require_stack_fits(n * n, d, f"a constraint system of {n * n} effect pairs")
    A = np.empty((n * n + 1, d * d), dtype=complex)
    pair_rows = A[:-1].reshape(n, n, d, d)
    for p, Ep in enumerate(E):
        pair_rows[p] = (Ep @ E).swapaxes(-1, -2)  # row q: (E(p) E(q))^T
    A[-1] = np.eye(d).reshape(-1)
    b = np.empty(n * n + 1)
    b[:-1] = np.outer(np.real(pmf1.weights), np.real(pmf2.weights)).reshape(-1)
    b[-1] = 1.0
    return A, b


#: Relative cutoff of the affine projection: singular values of the
#: constraint matrix below it times the largest are dropped, as are
#: row-space directions below it times the largest row norm.
PROJECTION_RCOND = 1e-10


def affine_projection(A: np.ndarray, b: np.ndarray):
    """The map x -> x - A^+ (A x - b) for a real or complex matrix A: the
    orthogonal projection onto {x : A x = b}, or onto its least-squares
    set when that is empty.

    A^+ is taken as Q (A Q)^+ with Q an orthonormal basis of the range of
    A^dag, so no pseudo-inverse of A itself is formed.  Q is grown from
    the adjoint of a block of rows at a time (``operators.fresh_directions``);
    a block takes a third of ops.WORK_BLOCK_BYTES (at least one row), since
    its residual and its singular vectors are as large again.  The row
    norms are read through a real view, so the work memory beside A is a
    few blocks and the (len(A), rank) matrix A Q."""
    n = A.shape[1]
    real = A.view(np.float64)
    scale = float(np.sqrt(np.max(np.einsum("ij,ij->i", real, real), initial=0.0)))
    step = max(1, ops.WORK_BLOCK_BYTES // (3 * A.itemsize * n))
    Q = np.zeros((n, 0), dtype=A.dtype)
    for start in range(0, len(A), step):
        if Q.shape[1] == n:
            break
        fresh = ops.fresh_directions(Q, A[start:start + step].conj().T,
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
    projections between the affine constraint set and the PSD cone, on
    the flattened d x d operator itself.

    The affine step is ``affine_projection`` of the constraint system,
    built once; the PSD step clips the eigenvalues of the Hermitian part.
    The limit, the projection of the start 1/d onto the intersection, is
    Hermitian, since both sets are closed under w -> w^dag.  Success means
    the returned iterate, as a d x d matrix, is PSD (exactly, after
    eigenvalue clipping) and satisfies every affine constraint within
    tol_feas.  A residual bounded away from zero after max_iter is a
    no-certificate outcome: feasibility stays undecided, but for an empty
    affine set the residual cannot vanish.
    """
    frame = of1.frame
    if of2.frame is not frame:
        raise ValueError("a joint state needs two preparations of one frame")
    d = frame.dim
    A, b = joint_constraint_system(frame, of1.measure, of2.measure)
    project_affine = affine_projection(A, b)

    def project_psd(x: np.ndarray) -> np.ndarray:
        W = x.reshape(d, d)
        eigs, V = np.linalg.eigh((W + dagger(W)) / 2)
        return ((V * np.clip(eigs, 0.0, None)) @ dagger(V)).reshape(-1)

    x = (np.eye(d, dtype=complex) / d).reshape(-1)
    correction = np.zeros_like(x)
    residual = np.inf
    for it in range(1, max_iter + 1):
        z = project_affine(x) + correction
        x = project_psd(z)
        correction = z - x
        residual = float(np.max(np.abs(A @ x - b)))
        if residual <= tol_feas:
            return JointStateResult(x.reshape(d, d), residual, it, True)
    return JointStateResult(None, residual, max_iter, False)
