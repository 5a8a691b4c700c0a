"""Relativization: oriented fields, relational observables and fields.

The system carries its own representation U_S and a seed observable phi.
Conjugating phi along the torsor gives the oriented fields phi_f; pairing
them with a frame observable produces the invariant relativization on
H_S (x) H_R, and conditioning on a frame state collapses that back to the
system via the Born weights:

    relativize:    Y(phi)      = sum_f phi_f (x) E(f)
    invariance:    max_g |V Y(phi) V^dag - Y(phi)|, V = U_S(g) (x) U_R(g)
    restrict:      G_w(O)      = Tr_R[(1 (x) w) O]
    observable:    Phi(w)      = sum_f pmf_w(f) phi_f = G_w(Y(phi))
    units:         Phi(T)      for the matrix units T of V with Born weight
    local field:   phi_w(x)    = sum_lam cond_w(lam | x) phi_(x,lam)

All sums are finite, so the covariance and reconstruction identities hold
to machine precision.  The system representation is monomial, so every
phi_f is a gather of phi times phases (``UnitaryRep.orbit``), and each sum
over frame points is that gather over the points of nonzero weight,
contracted with the weights (``UnitaryRep.orbit_sum``); both follow the
frame-point order.

Two whole-lattice arrays carry the pointwise quantities:

* the oriented stack (``oriented_fields``): every phi_f as one
  (|G|, dS, dS) array in frame-point order, so it reshapes to
  (N^2, |C|, dS, dS) with sites first;
* the site table (``relational_local_fields``): phi_w(x) for every lattice
  point x as one (N^2, dS, dS) array in lattice_points() order, from the
  disintegration of w and the oriented fields of the supported sites,
  zero off the support.

A preparation w is a ``frames.OrientedFrame`` of the field's frame, or a
bare state, prepared anew at the default tol_supp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from relqft import lattice, operators as ops
from relqft.frames import (
    Disintegration,
    FrameObservable,
    OrientedFrame,
    born_measure,
    born_measure_trace_class,
)
from relqft.lattice import FramePoint, LatticePoint, ModelParams
from relqft.operators import UnitaryRep
from relqft.tolerances import TOL_EQ


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


def oriented_fields(system: SystemModel) -> np.ndarray:
    """Every oriented field phi_f as one (|G|, dS, dS) array in
    frame_points() order: the orbit of phi under the system representation,
    one gather (``UnitaryRep.orbit``) refused before allocation above
    ops.MAX_FRAME_BYTES."""
    return system.rep.orbit(system.phi)


def relativize(rf: RelationalField) -> np.ndarray:
    """Y(phi) = sum_f phi_f (x) E(f), invariant under the diagonal action;
    refused before allocation above ops.MAX_DIM, like ``tensor``.  The
    frame contracts the stacked oriented fields with its effect array
    (``FrameObservable.tensor_sum``), which it builds on any layout."""
    ops.require_tensor_fits(rf.system.dim * rf.frame.dim)
    return rf.frame.tensor_sum(oriented_fields(rf.system))


def relativization_invariance_defect(rf: RelationalField, elements) -> float:
    """max over g in elements of |V Y(phi) V^dag - Y(phi)| with
    V = U_S(g) (x) U_R(g): the diagonal invariance of ``relativize``.  The
    frame measures it from the stacked oriented fields
    (``FrameObservable.diagonal_invariance_defect``), on a regular
    representation without forming Y, so the ops.MAX_DIM guard of Y holds
    only on the other layouts."""
    return rf.frame.diagonal_invariance_defect(
        oriented_fields(rf.system), rf.system.rep, elements)


def restrict(O: np.ndarray, omega: np.ndarray, dimS: int, dimR: int) -> np.ndarray:
    """State-conditioned partial trace G_w(O) = Tr_R[(1 (x) w) O], as one
    contraction of w with O read as (dS, dR, dS, dR): G[a, b] =
    sum_(r, s) w[r, s] O[(a, s), (b, r)].

    Satisfies the duality Tr[rho G_w(O)] = Tr[(rho (x) w) O] for all rho.
    """
    O = np.asarray(O, dtype=complex)
    if O.shape != (dimS * dimR, dimS * dimR):
        raise ops.SizeError(f"expected dim {dimS * dimR}, got {O.shape}")
    return np.einsum("rs,asbr->ab", np.asarray(omega, dtype=complex),
                     O.reshape(dimS, dimR, dimS, dimR))


def _prepared(rf: RelationalField, omega) -> OrientedFrame:
    """omega as a preparation of rf's frame, a bare state prepared anew."""
    if not isinstance(omega, OrientedFrame):
        return OrientedFrame(rf.frame, omega)
    if omega.frame is not rf.frame:
        raise ValueError("the preparation is of another frame")
    return omega


def relational_local_observable(rf: RelationalField, omega) -> np.ndarray:
    """Phi(w) = sum_f pmf_w(f) phi_f; equals restrict(relativize(.), w)."""
    return rf.system.rep.orbit_sum(_prepared(rf, omega).measure.weights,
                                   rf.system.phi)


def extend_trace_class(rf: RelationalField, T: np.ndarray) -> np.ndarray:
    """Phi(T) = sum_f Tr[T E(f)] phi_f, linear in an arbitrary T."""
    bm = born_measure_trace_class(rf.frame, T)
    return rf.system.rep.orbit_sum(bm.weights, rf.system.phi)


def unit_observables(frame: FrameObservable, rep: UnitaryRep, system_ops,
                     V: np.ndarray | None = None) -> np.ndarray:
    """Phi(T) of each system operator at each matrix unit T of V's
    columns (of the frame space when V is None) that carries Born weight,
    as one (len(system_ops), m, dS, dS) stack: one orbit sum with the
    frame's unit weights (``FrameObservable.unit_weights``), in the order
    (j, i) of T = |v_i><v_j|.  A unit of zero weight at every f has
    Phi(T) = 0, and one whose weights are all at most SVD_CUTOFF times the
    largest is rounding residue of such a unit; both are dropped there."""
    return rep.orbit_sum(frame.unit_weights(V), system_ops)


def relational_local_fields(rf: RelationalField, omega) -> np.ndarray:
    """The site table of phi_w: an (N^2, dS, dS) array whose row x is
    phi_w(x) = sum_lam cond(lam | x) phi_(x, lam), in lattice_points()
    order.

    The oriented fields are gathered at the frame points of the supported
    sites only, rows site |C| + fiber of the orbit of phi, and contracted
    with those sites' rows of the (N^2, |C|) conditional of the
    preparation's disintegration.  Rows off the support are zero, as
    their conditionals are; the extension by zero keeps the
    reconstruction sum sum_x marginal(x) phi_w(x) = Phi(w) total over all
    of M.
    """
    dis = _prepared(rf, omega).disintegration
    (n_sites, n_fibers), dim = dis.conditional.shape, rf.system.dim
    sites = np.flatnonzero(dis.support)
    rows = (sites[:, None] * n_fibers + np.arange(n_fibers)).reshape(-1)
    # the gather is freed before the table is allocated
    supported = dis.conditional[sites, None, :] @ rf.system.rep.orbit(
        rf.system.phi, rows).reshape(len(sites), n_fibers, dim * dim)
    table = np.zeros((n_sites, 1, dim * dim), dtype=complex)
    table[sites] = supported
    return table.reshape(n_sites, dim, dim)


def relational_local_field(rf: RelationalField, omega,
                           x: LatticePoint) -> np.ndarray:
    """phi_w(x) = sum_lam cond(lam | x) phi_(x, lam); zero off the support.

    Row x of the site table ``relational_local_fields(rf, omega)``; a
    caller that needs several points of one preparation should take the
    table once.
    """
    table = relational_local_fields(rf, omega)
    return table[rf.params.site_index(LatticePoint(*x))]


def predual_polarization(rf: RelationalField, omega,
                         rho: np.ndarray) -> np.ndarray:
    """P_w(rho) = sum_f pmf_w(f) U_S(g_f)^dag rho U_S(g_f).

    The predual of w-restricted relativization on system states: invariant
    states are fixed, and Tr[rho Phi(w; phi)] = Tr[P_w(rho) phi] for every
    test observable phi.  U_S(g)^dag rho U_S(g) is the conjugation by
    g^-1, so this is the orbit sum with the weights read through the group
    inverse.
    """
    weights = _prepared(rf, omega).measure.weights
    params = rf.params
    inverses = [params.frame_index(lattice.inverse(g, params))
                for g in params.group_elements()]
    return rf.system.rep.orbit_sum(weights[inverses], rho)


def relativization_channel(rf: RelationalField, omega):
    """The restricted relativization as a map phi -> Phi_w(phi).

    Returns the orbit sum (``UnitaryRep.orbit_sum``) with the preparation's
    Born weights bound, which takes one (dS, dS) operator or an (m, dS, dS)
    stack and maps the m operators of a stack in one orbit sum.
    """
    return partial(rf.system.rep.orbit_sum, _prepared(rf, omega).measure.weights)


def certify_globally_oriented(dis: Disintegration, tol_eq: float = TOL_EQ) -> bool:
    """Check that the Lorentz conditional of a disintegrated Born measure
    is the same at every supported site."""
    conds = dis.conditional[dis.support]
    return bool(np.all(np.abs(conds - conds[:1]) <= tol_eq))
