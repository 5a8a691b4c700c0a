"""Relativization: oriented fields, relational observables and fields.

The system carries its own representation U_S and a seed observable phi.
Conjugating phi along the torsor gives the oriented fields phi_f; pairing
them with a frame observable produces the invariant relativization on
H_S (x) H_R, and conditioning on a frame state collapses that back to the
system via the Born weights:

    relativize:    Y(phi)      = sum_f phi_f (x) E(f)
    restrict:      G_w(O)      = Tr_R[(1 (x) w) O]
    observable:    Phi(w)      = sum_f pmf_w(f) phi_f = G_w(Y(phi))
    local field:   phi_w(x)    = sum_lam cond_w(lam | x) phi_(x,lam)

All sums are finite, so the covariance and reconstruction identities hold
to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from relqft import lattice, operators as ops
from relqft.frames import (
    FrameObservable,
    OrientedFrame,
    born_measure,
    born_measure_trace_class,
    disintegrate,
)
from relqft.lattice import FramePoint, LatticePoint, ModelParams
from relqft.operators import UnitaryRep, dagger, tensor
from relqft.tolerances import TOL_SUPP


@dataclass
class SystemModel:
    """The observed system: dimension, representation and seed observable."""

    params: ModelParams
    rep: UnitaryRep
    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=complex)
        lattice.require_same_params(self.params, self.rep.params)
        if self.phi.shape != (self.rep.dim, self.rep.dim):
            raise ops.SizeError(
                f"phi shape {self.phi.shape} does not match rep dim {self.rep.dim}")

    @property
    def dim(self) -> int:
        return self.rep.dim

    def with_phi(self, phi: np.ndarray) -> "SystemModel":
        return SystemModel(self.params, self.rep, phi)


@dataclass
class RelationalField:
    """A system observable read through a frame observable."""

    system: SystemModel
    frame: FrameObservable

    def __post_init__(self):
        lattice.require_same_params(self.system.params, self.frame.params)

    @property
    def params(self) -> ModelParams:
        return self.system.params


def oriented_field(sys: SystemModel, f: FramePoint) -> np.ndarray:
    """phi_f = U_S(g_f) phi U_S(g_f)^dag, with g_f the transporter from
    the base frame point to f."""
    g = lattice.frame_to_group(FramePoint(LatticePoint(*f[0]), f[1]))
    return sys.rep.conjugate(g, sys.phi)


def relativize(rf: RelationalField) -> np.ndarray:
    """Y(phi) = sum_f phi_f (x) E(f), invariant under the diagonal action."""
    total = None
    for f, E in zip(rf.params.frame_points(), rf.frame.effects):
        term = tensor(oriented_field(rf.system, f), E)
        total = term if total is None else total + term
    return total


def restrict(O: np.ndarray, omega: np.ndarray, dimS: int, dimR: int) -> np.ndarray:
    """State-conditioned partial trace G_w(O) = Tr_R[(1 (x) w) O].

    Satisfies the duality Tr[rho G_w(O)] = Tr[(rho (x) w) O] for all rho.
    """
    O = np.asarray(O, dtype=complex)
    if O.shape != (dimS * dimR, dimS * dimR):
        raise ops.SizeError(f"expected dim {dimS * dimR}, got {O.shape}")
    W = np.kron(np.eye(dimS, dtype=complex), np.asarray(omega, dtype=complex))
    return ops.partial_trace_frame(W @ O, dimS, dimR)


def _weighted_fields(sys: SystemModel, points, weights) -> np.ndarray:
    """sum_i weights[i] phi_(points[i]), skipping zero weights."""
    total = np.zeros((sys.dim, sys.dim), dtype=complex)
    for f, w in zip(points, weights):
        if w != 0.0:
            total += w * oriented_field(sys, f)
    return total


def relational_local_observable(rf: RelationalField, omega: np.ndarray) -> np.ndarray:
    """Phi(w) = sum_f pmf_w(f) phi_f; equals restrict(relativize(.), w)."""
    bm = born_measure(OrientedFrame(rf.frame, omega))
    return _weighted_fields(rf.system, rf.params.frame_points(), bm.weights)


def extend_trace_class(rf: RelationalField, T: np.ndarray) -> np.ndarray:
    """Phi(T) = sum_f Tr[T E(f)] phi_f, linear in an arbitrary T."""
    bm = born_measure_trace_class(rf.frame, T)
    return _weighted_fields(rf.system, rf.params.frame_points(), bm.weights)


def relational_local_field(rf: RelationalField, omega: np.ndarray,
                           x: LatticePoint, tol_supp: float = TOL_SUPP) -> np.ndarray:
    """phi_w(x) = sum_lam cond(lam | x) phi_(x, lam); zero off the support.

    The extension by zero keeps the reconstruction sum
    sum_x marginal(x) phi_w(x) = Phi(w) total over all of M.
    """
    x = LatticePoint(*x)
    dis = disintegrate(born_measure(OrientedFrame(rf.frame, omega)), tol_supp)
    site = rf.params.site_index(x)
    if not dis.support[site]:
        return np.zeros((rf.system.dim, rf.system.dim), dtype=complex)
    fiber = [FramePoint(x, lam) for lam in rf.params.boosts()]
    return _weighted_fields(rf.system, fiber, dis.conditional[site])


def predual_polarization(rf: RelationalField, omega: np.ndarray,
                         rho: np.ndarray) -> np.ndarray:
    """P_w(rho) = sum_f pmf_w(f) U_S(g_f)^dag rho U_S(g_f).

    The predual of w-restricted relativization on system states: invariant
    states are fixed, and Tr[rho Phi(w; phi)] = Tr[P_w(rho) phi] for every
    test observable phi.
    """
    bm = born_measure(OrientedFrame(rf.frame, omega))
    total = np.zeros((rf.system.dim, rf.system.dim), dtype=complex)
    for f, w in zip(rf.params.frame_points(), bm.weights):
        if w != 0.0:
            U = rf.system.rep(lattice.frame_to_group(f))
            total += w * (dagger(U) @ np.asarray(rho, dtype=complex) @ U)
    return total


def relativization_channel(rf: RelationalField, omega: np.ndarray):
    """The restricted relativization as a map phi -> Phi_w(phi).

    Returns a closure; the Born weights are computed once.
    """
    bm = born_measure(OrientedFrame(rf.frame, omega))
    terms = [(w, rf.system.rep(lattice.frame_to_group(f)))
             for f, w in zip(rf.params.frame_points(), bm.weights) if w != 0.0]

    def channel(phi: np.ndarray) -> np.ndarray:
        total = np.zeros((rf.system.dim, rf.system.dim), dtype=complex)
        for w, U in terms:
            total += w * (U @ np.asarray(phi, dtype=complex) @ dagger(U))
        return total

    return channel


def certify_globally_oriented(of: OrientedFrame, tol: float = 1e-10,
                              tol_supp: float = TOL_SUPP) -> bool:
    """Check that the Lorentz conditional is position-independent."""
    dis = disintegrate(born_measure(of), tol_supp)
    conds = dis.conditional[dis.support]
    return bool(np.all(np.abs(conds - conds[:1]) <= tol))
