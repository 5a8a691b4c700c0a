import numpy as np
import pytest

from relqft import fields, frames, lattice, net, scenarios
from relqft import operators as ops
from relqft.lattice import GroupElement, LatticePoint, ModelParams
from relqft.tolerances import TOL_EQ

P3 = ModelParams(3, 2)
P5 = ModelParams(5, 2)


def diagonal_net(params, deterministic=False):
    rep = ops.spacetime_representation(params)
    fr = frames.fiber_uniform_spacetime_frame(params)
    phi = np.diag(ops.make_rng(5).random(rep.dim)).astype(complex)
    system = fields.SystemModel(params, rep, phi)
    return net.LocalAlgebraNet(fr, system, [phi], deterministic=deterministic)


def projector_family_algebra(frame, system, system_ops, region):
    """The reference construction: relational observables at the basis
    projectors of K and at the two superposition projectors of each basis
    pair, one Born measure each, spanned and then word-closed."""
    V = net.states_supported_in(frame, region)
    k = V.shape[1]
    vectors = [V[:, i] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            vectors += [(V[:, i] + V[:, j]) / np.sqrt(2.0),
                        (V[:, i] + 1j * V[:, j]) / np.sqrt(2.0)]
    raw = [fields.relational_local_observable(
               fields.RelationalField(system.with_phi(phi), frame),
               np.outer(w, np.conj(w)))
           for phi in system_ops for w in vectors]
    span = ops.AlgebraSubspace.from_spanning(system.dim, raw)
    return ops.generated_algebra(span.basis_ops(), system.dim)


def test_states_supported_in_single_site():
    nt = diagonal_net(P3)
    V = net.states_supported_in(nt.frame, {LatticePoint(1, 2)})
    assert V.shape == (9, 1)
    index = list(P3.lattice_points()).index(LatticePoint(1, 2))
    expected = np.zeros((9, 9), dtype=complex)
    expected[index, index] = 1.0
    assert np.allclose(np.outer(V[:, 0], np.conj(V[:, 0])), expected)


def test_empty_region_gives_scalars():
    nt = diagonal_net(P3)
    assert net.states_supported_in(nt.frame, frozenset()).shape == (9, 0)
    assert nt.algebra(frozenset()).algebra.subspace_dim == 1


def test_local_algebra_dims_for_diagonal_generator():
    # a diagonal generator produces boost-averaged diagonal observables:
    # one site is constant on the five boost orbits of the 3 x 3 lattice,
    # and a second generic site refines the level sets to all diagonals
    nt = diagonal_net(P3)
    one = nt.algebra({LatticePoint(0, 0)})
    two = nt.algebra({LatticePoint(0, 0), LatticePoint(1, 2)})
    full = nt.algebra(P3.lattice_points())
    assert one.algebra.subspace_dim == 5
    assert two.algebra.subspace_dim == 9
    assert full.algebra.subspace_dim == 9


@pytest.mark.parametrize("region", [
    (), ((1, 1),), ((0, 2), (1, 1), (2, 0)),
    tuple((u, v) for u in range(3) for v in range(3))],
    ids=["empty", "site", "slice", "diamond"])
def test_local_algebra_matches_the_projector_family(region):
    # the matrix-unit orbit sums span the same generators as one relational
    # observable per basis and superposition projector
    nt = diagonal_net(P5)
    region = frozenset(LatticePoint(*x) for x in region)
    built = nt.algebra(region).algebra
    reference = projector_family_algebra(nt.frame, nt.system, nt.system_ops,
                                         region)
    assert built.subspace_dim == reference.subspace_dim
    assert built.equality_defect(reference) < 1e-10


def test_off_diagonal_unit_weights_match_the_projector_family():
    # on a smeared frame the units |v_i><v_j|, i != j, carry weight too
    rng = ops.make_rng(3)
    rep = ops.spacetime_representation(P3)
    fr = scenarios.smeared_frame(rep, rng, 0.35)
    system = fields.SystemModel(P3, rep, ops.random_operator(rng, rep.dim))
    region = frozenset(P3.lattice_points())
    built = net.local_algebra(fr, system, [system.phi], region).algebra
    reference = projector_family_algebra(fr, system, [system.phi], region)
    assert built.subspace_dim == reference.subspace_dim == 81
    assert built.equality_defect(reference) < 1e-10


def test_intrinsic_net_axioms():
    nt = diagonal_net(P3)
    regions = [frozenset(), frozenset({LatticePoint(0, 0)}),
               frozenset({LatticePoint(0, 0), LatticePoint(1, 2)}),
               frozenset(P3.lattice_points())]
    sample = [GroupElement(LatticePoint(1, 0), 1),
              GroupElement(LatticePoint(0, 0), P3.s)]
    pair = (frozenset({LatticePoint(0, 1)}), frozenset({LatticePoint(1, 0)}))
    report = net.verify_net_axioms(nt, regions, sample, spacelike_pairs=[pair])
    assert all(r.verdict != "failed" for r in report.axioms.values())
    assert report.axioms["isotony"].verdict == "verified"
    assert report.axioms["isotony"].max_residual < 1e-12
    assert report.axioms["covariance"].verdict == "verified"
    assert report.axioms["covariance"].max_residual < 1e-12
    assert report.axioms["causality"].verdict == "verified"
    assert report.axioms["causality"].max_residual < 1e-12
    assert report.axioms["causality"].details["premise_failures"] == 0
    # intrinsic nets have no hull notion, so time-slice never fires
    assert report.axioms["time-slice"].verdict == "vacuous"


def test_deterministic_net_time_slice():
    nt = diagonal_net(P5, deterministic=True)
    slice_tips = frozenset({LatticePoint(0, 2), LatticePoint(1, 1),
                            LatticePoint(2, 0), LatticePoint(0, 0),
                            LatticePoint(2, 2)})
    diamond = frozenset(LatticePoint(u, v) for u in range(3) for v in range(3))
    assert lattice.causal_hull(slice_tips, P5) == diamond
    pair = (frozenset({LatticePoint(1, 4)}), frozenset({LatticePoint(4, 1)}))
    report = net.verify_net_axioms(nt, [slice_tips, diamond], [],
                                   spacelike_pairs=[pair])
    assert report.axioms["isotony"].verdict == "verified"
    assert report.axioms["covariance"].verdict == "vacuous"
    assert report.axioms["causality"].verdict == "verified"
    assert report.axioms["causality"].max_residual < 1e-12
    assert report.axioms["time-slice"].verdict == "verified"
    assert report.axioms["time-slice"].pairs_checked == 1
    assert report.axioms["time-slice"].max_residual < 1e-12
    # both regions share the algebra of their hull, built once
    assert nt.algebra(slice_tips) is nt.algebra(diamond)
    assert diamond in nt.algebras and slice_tips not in nt.algebras


def test_causality_rejects_non_spacelike_pair():
    nt = diagonal_net(P3)
    pair = (frozenset({LatticePoint(0, 0)}), frozenset({LatticePoint(1, 1)}))
    with pytest.raises(ValueError):
        net.verify_net_axioms(nt, [], [], spacelike_pairs=[pair])



def test_an_algebra_of_all_of_m_d_has_the_matrix_units_as_basis():
    # the site projector at (0, 0) and the hop (0, 0)-(1, 1) generate all
    # of M_25 on the diamond; a basis accumulated over the closure's rounds
    # drifted 3.5e-10 from orthonormal and failed isotony at 1.5e-10
    rep = ops.spacetime_representation(P5)
    system_ops = [scenarios._site_state(P5, (0, 0)),
                  scenarios._two_site_operator(P5, (0, 0), (1, 1))]
    system = fields.SystemModel(P5, rep, system_ops[0])
    nt = net.LocalAlgebraNet(frames.fiber_uniform_spacetime_frame(P5),
                             system, system_ops)
    regions = scenarios._net_regions(P5)
    report = net.verify_net_axioms(nt, regions, [])
    isotony = report.axioms["isotony"]
    assert isotony.verdict == "verified" and isotony.max_residual <= TOL_EQ
    Q = nt.algebra(regions[-1]).algebra.Q
    assert Q.shape == (625, 625)
    assert np.array_equal(Q, np.eye(625))
