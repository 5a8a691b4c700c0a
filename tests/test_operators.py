import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqft import operators as ops
from relqft.lattice import GroupElement, LatticePoint, ModelParams

P3 = ModelParams(3, 2)
P5 = ModelParams(5, 2)
P7 = ModelParams(7, 2)


def elements(params):
    return st.builds(
        lambda u, v, k: GroupElement(LatticePoint(u, v),
                                     pow(params.s, k, params.N)),
        st.integers(0, params.N - 1), st.integers(0, params.N - 1),
        st.integers(0, len(params.boosts()) - 1))


ALL_REPS = [
    ops.regular_representation(P3),
    ops.spacetime_representation(P3),
    ops.lorentz_representation(P3),
    ops.trivial_representation(P3),
    ops.character_representation(P3, [LatticePoint(1, 0), LatticePoint(2, 0)]),
]


def test_representation_dims():
    assert ops.regular_representation(P5).dim == 100
    assert ops.spacetime_representation(P5).dim == 25
    assert ops.lorentz_representation(P5).dim == 4
    assert ops.trivial_representation(P5).dim == 1
    assert ops.character_representation(
        P5, [LatticePoint(1, 0), LatticePoint(2, 0),
             LatticePoint(4, 0), LatticePoint(3, 0)]).dim == 4


@settings(max_examples=40, deadline=None)
@given(elements(P3), elements(P3))
def test_homomorphism_and_unitarity(g, h):
    from relqft.lattice import compose
    gh = compose(g, h, P3)
    for rep in ALL_REPS:
        U, V = rep(g), rep(h)
        assert ops.eq_defect(U @ V, rep(gh)) < 1e-12
        assert ops.eq_defect(U @ ops.dagger(U), np.eye(rep.dim)) < 1e-12


def test_character_rep_requires_boost_closure():
    with pytest.raises(ValueError):
        ops.character_representation(P5, [LatticePoint(1, 0)])


def test_character_projector_picks_listed_momentum():
    # the orbit of (1,0) under s=2 mod 7 is {1,2,4}, which negation maps
    # off itself; a sign error in the character pairing would land the
    # projector on the mirror momenta instead
    momenta = [LatticePoint(1, 0), LatticePoint(2, 0), LatticePoint(4, 0)]
    rep = ops.character_representation(P7, momenta)
    for i, p in enumerate(momenta):
        e = np.zeros(rep.dim, dtype=complex)
        e[i] = 1.0
        P_same = ops.translation_character_projector(rep, p)
        mirror = LatticePoint((-p.u) % 7, (-p.v) % 7)
        P_mirror = ops.translation_character_projector(rep, mirror)
        assert np.linalg.norm(P_same @ e - e) < 1e-12
        assert np.linalg.norm(P_mirror @ e) < 1e-12


def test_character_projectors_resolve_identity():
    rep = ops.spacetime_representation(P3)
    total = sum(ops.translation_character_projector(rep, p)
                for p in P3.lattice_points())
    assert ops.eq_defect(total, np.eye(rep.dim)) < 1e-12
    for p in P3.lattice_points():
        P = ops.translation_character_projector(rep, p)
        assert ops.eq_defect(P @ P, P) < 1e-12


def test_character_support():
    momenta = [LatticePoint(1, 0), LatticePoint(2, 0)]
    rep = ops.direct_sum_rep([ops.trivial_representation(P3),
                              ops.character_representation(P3, momenta)])
    assert set(ops.translation_character_support(rep)) == {
        LatticePoint(0, 0), LatticePoint(1, 0), LatticePoint(2, 0)}


def test_fixed_point_projector_rank():
    P = ops.translation_fixed_point_projector(ops.regular_representation(P5))
    assert int(round(float(np.real(np.trace(P))))) == 4  # one per boost
    P3fix = ops.translation_fixed_point_projector(ops.spacetime_representation(P3))
    assert int(round(float(np.real(np.trace(P3fix))))) == 1


def test_restrict_representation_preserves_homomorphism():
    regular = ops.regular_representation(P3)
    fixed = ops.translation_fixed_point_projector(regular)
    vals, vecs = np.linalg.eigh(fixed)
    W = vecs[:, vals < 0.5]
    reduced = ops.restrict_representation(regular, W)
    assert reduced.dim == regular.dim - 2
    for g in P3.generators():
        U = reduced(g)
        assert ops.eq_defect(U @ ops.dagger(U), np.eye(reduced.dim)) < 1e-10


def test_commutant_oracles():
    d = 4
    units = [np.zeros((d, d), dtype=complex) for _ in range(2)]
    units[0][0, 1] = 1.0
    units[1][1, 0] = 1.0
    # scalars commute with everything
    assert ops.commutant([np.eye(d, dtype=complex)], d).subspace_dim == d * d
    # a full matrix-unit ladder is irreducible
    ladder = []
    for i in range(d - 1):
        E = np.zeros((d, d), dtype=complex)
        E[i, i + 1] = 1.0
        ladder.append(E + ops.dagger(E))
    ladder.append(np.diag(np.arange(d, dtype=complex)))
    assert ops.commutant(ladder, d).subspace_dim == 1
    # the diagonal algebra is its own commutant
    diag = [np.diag(np.eye(d)[i]).astype(complex) for i in range(d)]
    com = ops.commutant(diag, d)
    assert com.subspace_dim == d
    for D in diag:
        assert com.membership_defect(D) < 1e-10


def test_double_commutant_closure():
    d = 3
    E = np.zeros((d, d), dtype=complex)
    E[0, 1] = 1.0
    generated = ops.double_commutant([E, ops.dagger(E)], d)
    # E and E* generate the full 2x2 corner plus the scalar ladder:
    # {units on span(e0,e1)} + scalars on e2
    assert generated.subspace_dim == 5
    again = ops.double_commutant(generated.basis_ops(), d)
    assert again.subspace_dim == 5
    assert generated.containment_defect(again) < 1e-10


def _block_algebra_element(rng, blocks, W):
    """W (+)_i (X_i (x) 1_{m_i}) W^dag with each X_i a random n_i x n_i."""
    d = W.shape[0]
    A = np.zeros((d, d), dtype=complex)
    start = 0
    for n, m in blocks:
        stop = start + n * m
        A[start:stop, start:stop] = np.kron(ops.random_operator(rng, n),
                                            np.eye(m))
        start = stop
    return W @ A @ ops.dagger(W)


BLOCK_ORACLES = [
    ([(1, 1), (2, 3), (3, 2)], (1.0, 1e-6, 1e6)),          # d = 13
    ([(2, 2), (1, 3), (3, 1), (1, 2)], (1.0, 1e-6, 1e6)),  # d = 12
    ([(5, 5)], (1.0,)),                                    # d = 25
    ([(3, 3), (4, 4)], (1.0,)),                            # d = 25
]


@pytest.mark.parametrize("blocks, scales", BLOCK_ORACLES)
def test_commutant_block_algebra_oracle(blocks, scales):
    # B = W (+)_i (M_{n_i} (x) 1_{m_i}) W^dag has dim B = sum n_i^2 and
    # dim B' = sum m_i^2, and B'' = B; two random elements and their
    # adjoints generate B
    d = sum(n * m for n, m in blocks)
    rng = np.random.Generator(np.random.Philox(key=[d, len(blocks)]))
    W, _ = np.linalg.qr(ops.random_operator(rng, d))
    gens = [_block_algebra_element(rng, blocks, W) for _ in range(2)]
    gens += [ops.dagger(A) for A in gens]
    fresh = [_block_algebra_element(rng, blocks, W) for _ in range(3)]
    for scale in scales:
        scaled = [scale * A for A in gens]
        assert ops.commutant(scaled, d).subspace_dim == sum(
            m * m for _, m in blocks)
        generated = ops.double_commutant(scaled, d)
        assert generated.subspace_dim == sum(n * n for n, _ in blocks)
        for A in fresh:
            assert generated.membership_defect(A) < 1e-10


def test_algebra_subspace_membership():
    d = 3
    basis = [np.eye(d, dtype=complex)]
    sub = ops.AlgebraSubspace.from_spanning(d, basis)
    assert sub.subspace_dim == 1
    assert sub.membership_defect(2.5 * np.eye(d)) < 1e-12
    off = np.zeros((d, d), dtype=complex)
    off[0, 1] = 1.0
    assert sub.membership_defect(off) > 0.5


def test_subspace_defects_ordering():
    d = 3
    small = ops.AlgebraSubspace.from_spanning(d, [np.eye(d, dtype=complex)])
    big = ops.AlgebraSubspace.from_spanning(
        d, [np.eye(d, dtype=complex),
            np.diag(np.arange(d, dtype=complex))])
    assert small.containment_defect(big) < 1e-12
    assert big.containment_defect(small) > 0.1
    assert big.equality_defect(big) < 1e-12


def test_tensor_and_partial_traces(rng):
    A = ops.random_operator(rng, 3)
    B = ops.random_operator(rng, 4)
    T = ops.tensor(A, B)
    assert T.shape == (12, 12)
    assert ops.eq_defect(ops.partial_trace_frame(T, 3, 4),
                         np.trace(B) * A) < 1e-12


def test_vec_unvec_roundtrip(rng):
    A = ops.random_operator(rng, 5)
    assert ops.eq_defect(ops.unvec(ops.vec(A), 5), A) < 1e-15


def test_random_state_properties(rng):
    for d in (2, 5):
        rho = ops.random_state(rng, d)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert ops.psd_gap(rho) > -1e-12
        assert ops.herm_defect(rho) < 1e-12
        assert ops.is_state(rho)


def test_effect_and_norm_helpers(rng):
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert abs(ops.op_norm(sigma_x) - 1.0) < 1e-12
    assert abs(ops.psd_gap(sigma_x) + 1.0) < 1e-12


def test_make_rng_deterministic():
    a = ops.make_rng(7).standard_normal(5)
    b = ops.make_rng(7).standard_normal(5)
    assert np.array_equal(a, b)
