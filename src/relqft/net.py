"""Nets of relational local algebras and the axiom verification suite.

A local algebra A(O) is generated by the relational observables
Phi_w(phi) = sum_f Tr[w E(f)] phi_f over the frame preparations w
localized in the region O and a caller-chosen family of system operators
phi.  The localized preparations are the states on the joint kernel K_O of
the complementary marginal effects; Phi is linear in w, so the generators
span exactly the images of the matrix units |v_i><v_j| of an orthonormal
basis V of K_O.  Those images are ``fields.unit_observables``: one orbit
sum per phi, with the units of zero Born weight dropped.  The frame reads
the units' weights from its seed (``FrameObservable.unit_weights``), so
on a free layout, as on the fiber-uniform frame, no effect array is
built.  The algebra is their word closure
(``operators.generated_algebra``), and its record keeps V, the localized
basis it was built from.  The deterministic variant localizes in the
causal hull instead.  A net caches each algebra under the region it was
built on (the hull, for a deterministic net), so two nets of one frame
and system can share one cache.  So the time-slice axiom holds
by definition: two regions with one hull read one cached algebra, and
their residual is the rounding of comparing it with itself.  An intrinsic
net has no time-slice pairs.  Such nets can share the judged causality
premises too.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from relqft import lattice
from relqft.causality import check_r_causal, r_spacelike
from relqft.fields import SystemModel, unit_observables
from relqft.frames import FrameObservable, OrientedFrame, born_measure
from relqft.lattice import ModelParams
from relqft.operators import AlgebraSubspace, generated_algebra, max_commutator
from relqft.tolerances import (SVD_CUTOFF, TOL_EQ, TOL_SUPP, Measurement,
                               verdict)


def states_supported_in(frame: FrameObservable, region) -> np.ndarray:
    """Orthonormal basis, as the columns of a (d, k) array, of the
    subspace K carrying every state whose spacetime Born marginal is
    supported inside the region.

    A state puts zero weight on x exactly when its range lies in the kernel
    of the marginal effect F_R(x), so K is the joint kernel of all outside
    effects.  They are positive semidefinite, so that is the kernel of
    their sum M (``FrameObservable.spacetime_marginal_sum``), read from one
    ``eigh`` of M: K is spanned by the eigenvectors whose eigenvalues are at
    most SVD_CUTOFF times the largest, or than 1 when that is smaller.
    k = 0 when K = {0}.
    """
    region = frozenset(region)
    outside = [x for x in frame.params.lattice_points() if x not in region]
    if not outside:
        return np.eye(frame.dim, dtype=complex)
    eigs, V = np.linalg.eigh(frame.spacetime_marginal_sum(outside))
    return V[:, :np.sum(eigs <= SVD_CUTOFF * max(float(eigs[-1]), 1.0))]


@dataclass
class LocalAlgebra:
    """A region's algebra and the (d, k) localized basis it was built from."""

    algebra: AlgebraSubspace
    states: np.ndarray


@dataclass
class LocalAlgebraNet:
    frame: FrameObservable
    system: SystemModel
    system_ops: list
    deterministic: bool = False
    algebras: dict = dc_field(default_factory=dict)
    premises: dict = dc_field(default_factory=dict)

    def algebra(self, region) -> LocalAlgebra:
        """The algebra of the region, or of its causal hull on a
        deterministic net, cached under the region it is built on."""
        key = frozenset(region)
        if self.deterministic:
            key = lattice.causal_hull(key, self.frame.params)
        if key not in self.algebras:
            self.algebras[key] = local_algebra(
                self.frame, self.system, self.system_ops, key)
        return self.algebras[key]


def local_algebra(frame: FrameObservable, system: SystemModel, system_ops,
                  region) -> LocalAlgebra:
    """Unital *-algebra generated, by word closure, by the relational
    observables of the given system operators at every preparation
    localized in the region: ``fields.unit_observables`` of the matrix
    units of K's basis V."""
    lattice.require_same_params(frame.params, system.params)
    V = states_supported_in(frame, region)
    generators = unit_observables(frame, system.rep, system_ops, V)
    return LocalAlgebra(generated_algebra(
        generators.reshape(-1, system.dim, system.dim), system.dim), V)


# ---------------------------------------------------------------------------
# axiom suite

@dataclass
class AxiomReport:
    """One axiom's largest residual over the pairs it was checked on, and
    its verdict: ``tolerances.verdict`` of that residual against tol_eq,
    vacuous when no pair was checked."""

    pairs_checked: int
    max_residual: float
    verdict: str
    details: dict = dc_field(default_factory=dict)


def _judged(axiom: str, pairs: int, residual: float, tol_eq: float,
            **details) -> AxiomReport:
    return AxiomReport(pairs, float(residual), verdict(
        [Measurement(axiom, residual, tol_eq)], pairs > 0), details)


@dataclass
class NetReport:
    axioms: dict


def _transform_region(g, region, params: ModelParams) -> frozenset:
    return frozenset(lattice.act_point(g, x, params) for x in region)


def verify_net_axioms(net: LocalAlgebraNet, regions, group_sample,
                      spacelike_pairs=(), tol_eq: float = TOL_EQ,
                      tol_supp: float = TOL_SUPP) -> NetReport:
    """Isotony, covariance, causality, and (for deterministic nets)
    time-slice, evaluated on explicit region lists.

    Covariance conjugates every basis element by the system representation
    and compares subspaces with the algebra of the transformed region,
    whose hull a deterministic net finds for every group element.
    Causality norms the commutators between the algebra bases of each
    spacelike region pair in batches (``operators.max_commutator``),
    conditional on the relational-causality premise for localized
    preparations (one per region, prepared at tol_supp and judged with
    tol_eq, which bounds their certified commutator norms, once per pair
    and tolerances, and kept in ``net.premises``);
    premise failures make the pair vacuous, not failed.
    """
    params = net.frame.params
    axioms = {}
    regions = [frozenset(u) for u in regions]
    nested = [(su, sv) for su in regions for sv in regions if su < sv]

    # isotony over all nested pairs in the given list
    worst = 0.0
    for su, sv in nested:
        worst = np.maximum(worst, net.algebra(su).algebra.containment_defect(
            net.algebra(sv).algebra))
    axioms["isotony"] = _judged("isotony", len(nested), worst, tol_eq)

    # covariance: conjugated algebra equals algebra of the transformed region
    worst = 0.0
    count = 0
    for g in group_sample:
        for su in regions:
            moved = _transform_region(g, su, params)
            a_u = net.algebra(su).algebra
            a_moved = net.algebra(moved).algebra
            conjugated = AlgebraSubspace.from_spanning(
                net.system.dim, net.system.rep.conjugate(g, a_u.basis_ops()))
            worst = np.maximum(worst, conjugated.equality_defect(a_moved))
            count += 1
    axioms["covariance"] = _judged("covariance", count, worst, tol_eq)

    # causality on spacelike region pairs, under the R-causal premise
    worst = 0.0
    count = 0
    skipped = 0
    for u, v in spacelike_pairs:
        su, sv = frozenset(u), frozenset(v)
        if not lattice.region_spacelike(su, sv, params):
            raise ValueError("causality pair is not spacelike separated")
        key = (su, sv, tol_eq, tol_supp)
        if key not in net.premises:
            # each region's representative: the first state of the basis
            # its algebra was built from
            preparations = []
            for region in (su, sv):
                basis = net.algebra(region).states
                if basis.shape[1]:
                    v = basis[:, 0]
                    preparations.append(OrientedFrame(
                        net.frame, np.outer(v, np.conj(v)), tol_supp))
            # R-causal: spacelike preparations, and every system operator's
            # commutator within tol_eq
            net.premises[key] = (
                len(preparations) == 2 and r_spacelike(*preparations)
                and all(Measurement("r-causal", check_r_causal(
                    net.system, *preparations, phi1=phi, phi2=phi,
                    bound=tol_eq), tol_eq).holds
                    for phi in net.system_ops))
        if not net.premises[key]:
            skipped += 1
            continue
        a_u = net.algebra(su).algebra
        a_v = net.algebra(sv).algebra
        pairs = np.argwhere(np.ones((a_u.subspace_dim, a_v.subspace_dim)))
        worst = np.maximum(worst, max_commutator(
            a_u.basis_ops(), a_v.basis_ops(), pairs))
        count += 1
    axioms["causality"] = _judged("causality", count, worst, tol_eq,
                                  premise_failures=skipped)

    # time-slice for deterministic nets: a region containing a Cauchy slice
    # of another region's hull reads the algebra cached under that hull
    slices = [(su, sv) for su, sv in nested if net.deterministic and
              lattice.causal_hull(su, params) == lattice.causal_hull(sv, params)]
    worst = 0.0
    for su, sv in slices:
        worst = np.maximum(worst, net.algebra(su).algebra.equality_defect(
            net.algebra(sv).algebra))
    axioms["time-slice"] = _judged("time-slice", len(slices), worst, tol_eq)
    return NetReport(axioms)

