"""Nets of relational local algebras and the axiom verification suite.

A local algebra is generated by relational observables whose frame
preparations are localized in a region: the states come from the kernel
intersection of the complementary marginal effects, the observables from a
caller-chosen family of system operators, and the algebra is the word
closure of the generator span (``operators.generated_algebra``).  The
deterministic variant localizes in the causal hull instead, which is what
makes the time-slice comparison a computation rather than a definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from relqft import lattice, operators as ops
from relqft.causality import CausalReport, check_r_causal
from relqft.fields import RelationalField, SystemModel, relational_local_observable
from relqft.frames import FrameObservable, born_measure
from relqft.lattice import ModelParams
from relqft.operators import AlgebraSubspace, dagger, generated_algebra, op_norm
from relqft.tolerances import SVD_CUTOFF, TOL_EQ, TOL_SUPP


def states_supported_in(frame: FrameObservable, region,
                        cutoff: float = SVD_CUTOFF) -> list[np.ndarray]:
    """States whose spacetime Born marginal is supported inside the region.

    A state puts zero weight on x exactly when its range lies in the kernel
    of the marginal effect F_R(x), so the joint kernel K of all outside
    effects carries every localized preparation.  Returns a family spanning
    the Hermitian operators on K: basis projectors plus the two standard
    superposition projectors per pair.  Empty when K = {0}.
    """
    region = frozenset(region)
    outside = [x for x in frame.params.lattice_points() if x not in region]
    if not outside:
        kernel_basis = np.eye(frame.dim, dtype=complex)
    else:
        stacked = np.concatenate(
            [frame.spacetime_marginal_effect(x) for x in outside], axis=0)
        _, svals, Vh = np.linalg.svd(stacked, full_matrices=False)
        scale = max(float(svals[0]) if svals.size else 0.0, 1.0)
        rank = int(np.sum(svals > cutoff * scale))
        kernel_basis = dagger(Vh)[:, rank:]
    k = kernel_basis.shape[1]
    states = []
    for i in range(k):
        v = kernel_basis[:, i]
        states.append(np.outer(v, np.conj(v)))
    for i in range(k):
        for j in range(i + 1, k):
            for w in ((kernel_basis[:, i] + kernel_basis[:, j]) / np.sqrt(2.0),
                      (kernel_basis[:, i] + 1j * kernel_basis[:, j]) / np.sqrt(2.0)):
                states.append(np.outer(w, np.conj(w)))
    return states


@dataclass
class LocalAlgebra:
    region: frozenset
    algebra: AlgebraSubspace
    generator_rank: int
    vacuous: bool  # no localized preparations existed; algebra is scalars


@dataclass
class LocalAlgebraNet:
    frame: FrameObservable
    system: SystemModel
    system_ops: list
    deterministic: bool = False
    algebras: dict = dc_field(default_factory=dict)

    def algebra(self, region) -> LocalAlgebra:
        key = frozenset(region)
        if key not in self.algebras:
            build = deterministic_local_algebra if self.deterministic else local_algebra
            self.algebras[key] = build(self.frame, self.system, self.system_ops, key)
        return self.algebras[key]


def local_algebra(frame: FrameObservable, system: SystemModel, system_ops,
                  region) -> LocalAlgebra:
    """Unital *-algebra generated, by word closure, by {relational
    observable of phi at omega} over the given system operators and all
    preparations localized in the region."""
    lattice.require_same_params(frame.params, system.params)
    region = frozenset(region)
    states = states_supported_in(frame, region)
    raw = []
    for phi in system_ops:
        rf = RelationalField(system.with_phi(phi), frame)
        for omega in states:
            raw.append(relational_local_observable(rf, omega))
    span = AlgebraSubspace.from_spanning(system.dim, raw)
    alg = generated_algebra(span.basis_ops(), system.dim)
    return LocalAlgebra(region, alg, span.subspace_dim, vacuous=not raw)


def deterministic_local_algebra(frame: FrameObservable, system: SystemModel,
                                system_ops, region) -> LocalAlgebra:
    """Local algebra of the causal hull of the region (lifted mode only)."""
    hull = lattice.causal_hull(region, frame.params)
    out = local_algebra(frame, system, system_ops, hull)
    return LocalAlgebra(frozenset(region), out.algebra, out.generator_rank,
                        out.vacuous)


# ---------------------------------------------------------------------------
# axiom suite

@dataclass
class NetReport:
    axioms: dict

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.axioms.values())


def _transform_region(g, region, params: ModelParams) -> frozenset:
    return frozenset(lattice.act_point(g, x, params) for x in region)


def verify_net_axioms(net: LocalAlgebraNet, regions, group_sample,
                      spacelike_pairs=(), tol_eq: float = TOL_EQ,
                      tol_supp: float = TOL_SUPP) -> NetReport:
    """Isotony, covariance, causality, and (for deterministic nets)
    time-slice, evaluated on explicit region lists.

    Covariance conjugates every basis element by the system representation
    and compares subspaces with the algebra of the transformed region.
    Causality checks commutators between algebra bases of spacelike region
    pairs, conditional on the relational-causality premise for localized
    preparations (judged with tol_eq and tol_supp); premise failures make
    the pair vacuous, not failed.
    """
    params = net.frame.params
    axioms = {}

    # isotony over all nested pairs in the given list
    worst = 0.0
    count = 0
    for u in regions:
        for v in regions:
            su, sv = frozenset(u), frozenset(v)
            if su == sv or not su.issubset(sv):
                continue
            a_u = net.algebra(su).algebra
            a_v = net.algebra(sv).algebra
            worst = max(worst, a_u.containment_defect(a_v))
            count += 1
    axioms["isotony"] = CausalReport.judged("isotony", count, worst, tol_eq,
                                            count > 0)

    # covariance: conjugated algebra equals algebra of the transformed region
    worst = 0.0
    count = 0
    for g in group_sample:
        for u in regions:
            su = frozenset(u)
            moved = _transform_region(g, su, params)
            if net.deterministic:
                # hulls only exist inside the window; skip regions the
                # transformation pushes out of it
                try:
                    lattice.causal_hull(moved, params)
                except lattice.WindowViolationError:
                    continue
            a_u = net.algebra(su).algebra
            a_moved = net.algebra(moved).algebra
            conjugated = AlgebraSubspace.from_spanning(
                net.system.dim,
                [net.system.rep.conjugate(g, A) for A in a_u.basis_ops()])
            worst = max(worst, conjugated.equality_defect(a_moved))
            count += 1
    axioms["covariance"] = CausalReport.judged("covariance", count, worst,
                                               tol_eq, count > 0)

    # causality on spacelike region pairs, under the R-causal premise
    worst = 0.0
    count = 0
    skipped = 0
    for u, v in spacelike_pairs:
        su, sv = frozenset(u), frozenset(v)
        if not lattice.region_spacelike(su, sv, params):
            raise ValueError("causality pair is not spacelike separated")
        premise_ok = _r_causal_premise(net, su, sv, tol_eq, tol_supp)
        if not premise_ok:
            skipped += 1
            continue
        a_u = net.algebra(su).algebra
        a_v = net.algebra(sv).algebra
        for A in a_u.basis_ops():
            for B in a_v.basis_ops():
                worst = max(worst, op_norm(A @ B - B @ A))
        count += 1
    axioms["causality"] = CausalReport.judged(
        "causality", count, worst, tol_eq, count > 0, premise_failures=skipped)

    # time-slice for deterministic nets: a region containing a Cauchy slice
    # of another region's hull generates the same algebra
    worst = 0.0
    count = 0
    if net.deterministic:
        for u in regions:
            for v in regions:
                su, sv = frozenset(u), frozenset(v)
                if su == sv or not su.issubset(sv):
                    continue
                if lattice.causal_hull(su, params) != lattice.causal_hull(sv, params):
                    continue
                a_u = net.algebra(su).algebra
                a_v = net.algebra(sv).algebra
                worst = max(worst, a_u.equality_defect(a_v))
                count += 1
    axioms["time-slice"] = CausalReport.judged("time-slice", count, worst,
                                               tol_eq, count > 0)
    return NetReport(axioms)


def _r_causal_premise(net: LocalAlgebraNet, region_u: frozenset,
                      region_v: frozenset, tol_eq: float,
                      tol_supp: float) -> bool:
    """Relational causality of the system for representative localized
    preparations, the premise of the causality axiom."""
    states_u = states_supported_in(net.frame, region_u)
    states_v = states_supported_in(net.frame, region_v)
    if not states_u or not states_v:
        return False
    for phi in net.system_ops:
        report = check_r_causal(net.system, net.frame, states_u[0], states_v[0],
                                phi1=phi, phi2=phi, tol_eq=tol_eq,
                                tol_supp=tol_supp)
        if report.verdict != "verified":
            return False
    return True


def haag_duality_diagnostic(net: LocalAlgebraNet, region) -> dict:
    """Compare A(U') with A(U)': a diagnostic, not an axiom.

    U' is the set of points spacelike to every point of U.
    """
    params = net.frame.params
    region = frozenset(region)
    complement = frozenset(
        x for x in params.lattice_points()
        if all(lattice.spacelike(x, y, params) for y in region))
    a_u = net.algebra(region).algebra
    a_comp = net.algebra(complement).algebra
    comm = ops.commutant(a_u.basis_ops(), net.system.dim)
    return {
        "causal_complement_size": len(complement),
        "algebra_dim": a_u.subspace_dim,
        "complement_algebra_dim": a_comp.subspace_dim,
        "commutant_dim": comm.subspace_dim,
        "duality_defect": a_comp.equality_defect(comm),
    }
