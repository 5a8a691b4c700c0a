import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relqft import operators as ops
from relqft.lattice import (
    GroupElement,
    LatticePoint,
    ModelParams,
    act,
    act_point,
    compose,
)

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
    support = ops.translation_multiplicities(rep) > 0.5
    assert {LatticePoint(*p) for p in np.argwhere(support).tolist()} == {
        LatticePoint(0, 0), LatticePoint(1, 0), LatticePoint(2, 0)}


def sector_representation(params):
    """The regular representation less its translation-fixed p = 0 sector:
    every nonzero momentum tensored with the Lorentz representation."""
    return ops.tensor_product_rep(
        ops.character_representation(params, params.lattice_points()[1:]),
        ops.lorentz_representation(params))


@pytest.mark.parametrize("params", [P3, P5])
@pytest.mark.parametrize("kind", ["regular", "spacetime", "lorentz", "sector"])
def test_character_projector_scatter_matches_the_dense_sum(params, kind,
                                                           monkeypatch):
    build = getattr(ops, f"{kind}_representation", sector_representation)
    rep = build(params)
    expected = {
        p: sum(np.exp(-2j * np.pi * ((p.u * a.u + p.v * a.v) % params.N)
                      / params.N)
               * rep(GroupElement(a, 1))
               for a in params.lattice_points()) / params.N ** 2
        for p in params.lattice_points()}

    def dense(rep, g):
        raise AssertionError("dense U(g) built")

    monkeypatch.setattr(ops.UnitaryRep, "__call__", dense)
    for p in params.lattice_points():
        assert ops.eq_defect(ops.translation_character_projector(rep, p),
                             expected[p]) < 1e-15


def witness_representation(params):
    """The product frame's system: spacetime (x) Lorentz."""
    return ops.tensor_product_rep(ops.spacetime_representation(params),
                                  ops.lorentz_representation(params))


def trivial_plus_character(params):
    """The spectral-condition system: the trivial character plus the
    boost orbit {(1, 0), (2, 0)} of N = 3."""
    momenta = [LatticePoint(1, 0), LatticePoint(2, 0)]
    return ops.direct_sum_rep([ops.trivial_representation(params),
                               ops.character_representation(params, momenta)])


MULTIPLICITY_CASES = [
    (params, build) for params in (P3, P5)
    for build in (ops.regular_representation, ops.spacetime_representation,
                  ops.lorentz_representation, ops.trivial_representation,
                  sector_representation, witness_representation)
] + [(P3, trivial_plus_character)]


@pytest.mark.parametrize("params, build", MULTIPLICITY_CASES, ids=[
    f"N{params.N}-{build.__name__}" for params, build in MULTIPLICITY_CASES])
def test_multiplicities_are_the_projector_traces(params, build):
    # the inner product of characters against the rank of each dense
    # character projector
    rep = build(params)
    multiplicities = ops.translation_multiplicities(rep)
    assert multiplicities.shape == (params.N, params.N)
    counts = np.rint(multiplicities)
    assert np.max(np.abs(multiplicities - counts)) <= 1e-12
    assert counts.min() >= 0 and counts.sum() == rep.dim
    for p in params.lattice_points():
        rank = np.trace(ops.translation_character_projector(rep, p)).real
        assert round(rank) == counts[p]
        assert abs(rank - multiplicities[p]) <= 1e-12


def test_fixed_point_projector_rank():
    P = ops.translation_fixed_point_projector(ops.regular_representation(P5))
    assert int(round(float(np.real(np.trace(P))))) == 4  # one per boost
    P3fix = ops.translation_fixed_point_projector(ops.spacetime_representation(P3))
    assert int(round(float(np.real(np.trace(P3fix))))) == 1


def test_phased_representations_are_homomorphisms_on_all_pairs():
    character = ops.character_representation(
        P3, [LatticePoint(1, 0), LatticePoint(2, 0)])
    reps = [character,
            ops.direct_sum_rep([ops.trivial_representation(P3), character]),
            ops.tensor_product_rep(character, ops.lorentz_representation(P3)),
            sector_representation(P3)]
    assert [rep.dim for rep in reps] == [2, 3, 4, 16]
    elements = P3.group_elements()
    for rep in reps:
        assert rep.phases is not None
        dense = {g: rep(g) for g in elements}
        for g1 in elements:
            U = dense[g1]
            assert ops.eq_defect(U @ ops.dagger(U), np.eye(rep.dim)) < 1e-15
            for g2 in elements:
                assert ops.eq_defect(dense[compose(g1, g2, P3)],
                                     U @ dense[g2]) < 1e-15


#: Models at N = 3, 5 and 7 with two fiber sizes |C| each.
TABLE_MODELS = [ModelParams(3, 2), ModelParams(3, 1), ModelParams(5, 2),
                ModelParams(5, 4), ModelParams(7, 2), ModelParams(7, 3)]


@pytest.mark.parametrize("params", TABLE_MODELS,
                         ids=lambda p: f"N{p.N}-s{p.s}")
def test_permutation_tables_match_the_scalar_action(params):
    elements = params.group_elements()
    sites = params.lattice_points()
    points = params.frame_points()
    boosts = params.boosts()
    regular = ops.regular_representation(params).table
    spacetime = ops.spacetime_representation(params).table
    lorentz = ops.lorentz_representation(params).table
    assert regular.shape == (len(elements), len(points))
    assert spacetime.shape == (len(elements), len(sites))
    assert lorentz.shape == (len(elements), len(boosts))
    for i, g in enumerate(elements):
        assert list(regular[i]) == [
            params.frame_index(act(g, f, params)) for f in points]
        assert list(spacetime[i]) == [
            params.site_index(act_point(g, x, params)) for x in sites]
        assert list(lorentz[i]) == [
            boosts.index((g.boost * lam) % params.N) for lam in boosts]


def test_permutation_representations_are_homomorphisms_on_all_pairs():
    elements = P3.group_elements()
    for rep in (ops.regular_representation(P3),
                ops.spacetime_representation(P3),
                ops.lorentz_representation(P3)):
        for g1 in elements:
            for g2 in elements:
                g12 = compose(g1, g2, P3)
                assert np.array_equal(rep(g12), rep(g1) @ rep(g2))
                i1, i2, i12 = (P3.frame_index(g) for g in (g1, g2, g12))
                assert np.array_equal(rep.table[i12],
                                      rep.table[i1][rep.table[i2]])


def test_conjugate_matches_dense_products(rng, monkeypatch):
    character = ops.character_representation(
        P3, [LatticePoint(1, 0), LatticePoint(2, 0)])
    reps = [ops.regular_representation(P3), ops.spacetime_representation(P3),
            ops.lorentz_representation(P3), character,
            ops.direct_sum_rep([ops.trivial_representation(P3), character]),
            ops.tensor_product_rep(character, ops.lorentz_representation(P3)),
            sector_representation(P3)]
    row_kinds = [slice(3, 11), slice(None, None, 5), [7, 0, 7, 17],
                 np.array([16, 2]), []]
    for rep in reps:
        A = ops.random_operator(rng, rep.dim)
        orbit = rep.orbit(A)
        for g, conjugated in zip(P3.group_elements(), orbit):
            U = rep(g)
            assert ops.eq_defect(rep.conjugate(g, A), U @ A @ ops.dagger(U)) < 1e-15
            assert np.array_equal(conjugated, rep.conjugate(g, A))
        # the rows of a gather are the rows of the whole orbit to the bit,
        # of one operator and of each operator of a stack
        stack = np.array([ops.random_operator(rng, rep.dim) for _ in range(3)])
        orbits = rep.orbit(stack)
        assert orbits.shape == (3, len(rep.table), rep.dim, rep.dim)
        for rows in row_kinds:
            assert np.array_equal(rep.orbit(A, rows), orbit[rows])
            assert np.array_equal(rep.orbit(stack, rows), orbits[:, rows])
    # a gather is refused by the count of its rows: 4 conjugates of 9 x 9
    # take 5184 bytes, 5 take 6480
    monkeypatch.setattr(ops, "MAX_FRAME_BYTES", 6000)
    rep = ops.spacetime_representation(P3)
    assert rep.orbit(np.eye(9), slice(4)).shape == (4, 9, 9)
    for rows in (slice(2, 7), [0, 1, 2, 3, 4], np.arange(13, 18)):
        with pytest.raises(ops.SizeError, match="stack of 5 conjugates of 9x9"):
            rep.orbit(np.eye(9), rows)
    with pytest.raises(ops.SizeError,
                       match="stack of 2 conjugates of 3 operators of 9x9"):
        rep.orbit(np.zeros((3, 9, 9)), [0, 1])
    with pytest.raises(ops.SizeError, match="stack of 18 conjugates"):
        rep.orbit(np.eye(9))


def test_orbit_sum_matches_dense_conjugations_and_is_capped(rng, monkeypatch):
    reps = [ops.regular_representation(P3),
            ops.character_representation(
                P3, [LatticePoint(1, 0), LatticePoint(2, 0)]),
            sector_representation(P3)]
    n = len(P3.group_elements())
    real = rng.standard_normal(n)
    partly_zero = real.copy()
    partly_zero[::3] = 0.0
    weight_kinds = [real, real + 1j * rng.standard_normal(n), partly_zero]
    for rep, weights in itertools.product(reps, weight_kinds):
        A = ops.random_operator(rng, rep.dim)
        expected = sum(w * rep(g) @ A @ ops.dagger(rep(g))
                       for g, w in zip(P3.group_elements(), weights))
        assert ops.eq_defect(rep.orbit_sum(weights, A), expected) < 1e-14
    # a (|G|, m) weight matrix gives the m sums at once; zero rows are
    # skipped, a zero column sums to zero, and m = 0 gives no sums
    matrix = np.stack([real, np.zeros(n), partly_zero * 1j], axis=1)
    matrix[1::3] = 0.0
    for rep in reps:
        A = ops.random_operator(rng, rep.dim)
        sums = rep.orbit_sum(matrix, A)
        assert sums.shape == (3, rep.dim, rep.dim)
        for column, total in zip(matrix.T, sums):
            expected = sum(w * rep(g) @ A @ ops.dagger(rep(g))
                           for g, w in zip(P3.group_elements(), column))
            assert ops.eq_defect(total, expected) < 1e-14
        assert not sums[1].any()
        assert rep.orbit_sum(np.zeros((n, 0)), A).shape == (0, rep.dim, rep.dim)
    monkeypatch.setattr(ops, "MAX_FRAME_BYTES", 1024)
    weights = np.ones(n)
    weights[:6] = 0.0
    with pytest.raises(ops.SizeError, match="stack of 12 conjugates"):
        ops.spacetime_representation(P3).orbit_sum(weights, np.eye(9))
    # a row counts when any of its weights is nonzero
    with pytest.raises(ops.SizeError, match="stack of 13 conjugates"):
        ops.spacetime_representation(P3).orbit_sum(
            np.stack([weights, np.eye(n)[0]], axis=1), np.eye(9))


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
    # the word closure adds E* itself: its input need not be *-closed
    closed = ops.generated_algebra([E], d)
    assert closed.subspace_dim == 5
    assert closed.membership_defect(ops.dagger(E)) < 1e-10
    assert closed.equality_defect(generated) < 1e-10


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
        reference = ops.double_commutant(scaled, d)
        generated = ops.generated_algebra(scaled, d)
        for algebra in (reference, generated):
            assert algebra.subspace_dim == sum(n * n for n, _ in blocks)
            for A in fresh:
                assert algebra.membership_defect(A) < 1e-10
        assert generated.is_product_closed()
        assert generated.equality_defect(reference) < 1e-10


@pytest.mark.parametrize("d, tol", [(8, 1e-12), (25, 1e-11), (40, 1e-8)])
def test_generated_algebra_of_one_hermitian(d, tol):
    # a Hermitian H with d distinct eigenvalues generates the d-dimensional
    # algebra of its spectral projectors; the words reach length d - 1, the
    # longest chain a single generator can need.  The rounding outside the
    # algebra grows with the chain: the projectors sit within 4e-15, 4e-13
    # and 9e-10 of the result at d = 8, 25 and 40
    rng = np.random.Generator(np.random.Philox(key=[d, 1]))
    H = ops.random_hermitian(rng, d)
    generated = ops.generated_algebra([H], d)
    assert generated.subspace_dim == d
    gram = ops.dagger(generated.Q) @ generated.Q
    assert ops.eq_defect(gram, np.eye(d)) < 1e-10
    _, V = np.linalg.eigh(H)
    for k in range(d):
        P = np.outer(V[:, k], V[:, k].conj())
        assert generated.membership_defect(P) < tol
    # repeated eigenvalues: one projector per distinct value
    W, _ = np.linalg.qr(ops.random_operator(rng, d))
    levels = np.arange(d) % 5
    D = W @ np.diag(levels).astype(complex) @ ops.dagger(W)
    assert ops.generated_algebra([D], d).subspace_dim == 5


def test_generated_algebra_trivial_inputs():
    # no generators: the scalars; the identity alone: the scalars
    d = 4
    for gens in ([], [np.eye(d, dtype=complex)]):
        scalars = ops.generated_algebra(gens, d)
        assert scalars.subspace_dim == 1
        assert scalars.membership_defect(np.eye(d)) < 1e-12
    # an irreducible set reaches all d^2 matrices and stops there
    rng = np.random.Generator(np.random.Philox(key=[d, 2]))
    full = ops.generated_algebra([ops.random_operator(rng, d)], d)
    assert full.subspace_dim == d * d


def _nearly_commuting_pair(eps):
    """A = W diag(0,0,1,1,2,2) W^dag, whose commutant is M_2 + M_2 + M_2
    (dim 12), and B = c W (sigma_z + sigma_z + sigma_z) W^dag, with c such
    that [B, .] has singular value eps |A|_F on the off-diagonal units of
    each block.  Any B != 0 cuts the commutant to the diagonal (dim 6).
    Returns A, B and the unscaled X."""
    d = 6
    rng = np.random.Generator(np.random.Philox(key=[d, 3]))
    W, _ = np.linalg.qr(ops.random_operator(rng, d))
    A = W @ np.diag([0, 0, 1, 1, 2, 2]).astype(complex) @ ops.dagger(W)
    X = W @ np.diag([1, -1] * 3).astype(complex) @ ops.dagger(W)
    return A, (eps * np.linalg.norm(A) / 2) * X, X


@pytest.mark.parametrize("eps, commutant_dim", [
    # around the coarse eigenvalue split (1e-4 of the generator scale):
    # the split only defers, the exact pass decides
    (5e-5, 6), (1e-4, 6), (2e-4, 6),
    # around the exact-pass cutoff (SVD_CUTOFF = 1e-8 of the scale): B
    # counts above it and is numerical dust below it
    (2e-8, 6), (5e-9, 12),
])
def test_commutant_rank_of_nearly_commuting_pair(eps, commutant_dim):
    A, B, _ = _nearly_commuting_pair(eps)
    assert ops.commutant([A, B], 6).subspace_dim == commutant_dim


_SQUARED_PASS_LOSS = pytest.mark.xfail(strict=True, reason=(
    "directions just above the coarse split are dropped by the squared "
    "Gram pass, whose eigenvector error eps_mach |G| / gap is ~1e-9 here"))


@pytest.mark.parametrize("eps", [
    1e-2, 5e-5, 2e-8, 5e-9,
    pytest.param(1e-4, marks=_SQUARED_PASS_LOSS),
    pytest.param(2e-4, marks=_SQUARED_PASS_LOSS),
])
def test_commutant_basis_of_nearly_commuting_pair(eps):
    # A and X commute with both generators, so they lie in the commutant
    A, B, X = _nearly_commuting_pair(eps)
    com = ops.commutant([A, B], 6)
    assert com.membership_defect(A) < 1e-10
    assert com.membership_defect(X) < 1e-10


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
    # the frame factor is the second: tracing it out leaves Tr[B] A
    assert ops.eq_defect(np.einsum("arbr->ab", T.reshape(3, 4, 3, 4)),
                         np.trace(B) * A) < 1e-12


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


def test_op_norms_match_op_norm_per_matrix(rng):
    stack = np.array([ops.random_operator(rng, 6) for _ in range(5)])
    stack[2] = 0.0
    norms = ops.op_norms(stack)
    assert norms.shape == (5,)
    assert [float(v) for v in norms] == [ops.op_norm(A) for A in stack]
    assert ops.op_norms(np.zeros((3, 6, 0))).tolist() == [0.0, 0.0, 0.0]
    assert norms[2] == 0.0


@pytest.mark.parametrize("shape", [(4, 7, 3), (4, 3, 7), (1, 5, 5)])
def test_op_norms_of_rectangular_stacks(rng, shape):
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    expected = [np.linalg.norm(C, 2) for C in stack]
    assert np.allclose(ops.op_norms(stack), expected, rtol=1e-14, atol=0)


def test_op_norms_of_empty_stacks():
    assert ops.op_norms(np.zeros((0, 4, 4))).shape == (0,)
    assert ops.op_norms(np.zeros((2, 0, 5))).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(3, 4, 4), (3, 5, 2)])
def test_op_norms_give_nan_for_matrices_with_non_finite_entries(rng, entry, shape):
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    finite = ops.op_norms(stack)
    stack[1, 2, 1] = entry
    with np.errstate(invalid="ignore"):
        norms = ops.op_norms(stack)
        assert np.isnan(ops.op_norm(stack[1]))
    assert np.isnan(norms[1])
    assert norms[[0, 2]].tolist() == finite[[0, 2]].tolist()


def test_unbounded_max_commutator_propagates_nan(rng):
    stack = np.array([ops.random_operator(rng, 4) for _ in range(3)])
    stack[1, 2, 3] = np.nan
    chunk = [[0, 2]] * ops.PAIR_CHUNK
    with np.errstate(invalid="ignore"):
        # alone, after a chunk of finite commutators and before one
        for pairs in ([[1, 0]], chunk + [[2, 1]], [[1, 0]] + chunk):
            assert np.isnan(ops.max_commutator(stack, stack, np.array(pairs)))
        assert np.isnan(ops.max_commutator(stack[1:2], stack[:1],
                                           np.array([[0, 0]]), adjoint=True))


def per_pair_commutator_norm(left, right, pairs, adjoint):
    """The oracle: max_commutator one pair at a time, by a dense SVD."""
    worst = 0.0
    for i, j in pairs:
        A, B = left[i], right[j]
        worst = max(worst, np.linalg.norm(A @ B - B @ A, 2))
        if adjoint:
            A_dag = ops.dagger(A)
            worst = max(worst, np.linalg.norm(A_dag @ B - B @ A_dag, 2))
    return worst


@pytest.mark.parametrize("hermitian", [False, True])
def test_max_commutator_matches_per_pair_norms(rng, hermitian):
    draw = ops.random_hermitian if hermitian else ops.random_operator
    left = np.array([draw(rng, 5) for _ in range(9)])
    right = np.array([ops.random_operator(rng, 5) for _ in range(8)])
    # more pairs than one chunk, and not a multiple of it
    pairs = np.argwhere(np.ones((9, 8), dtype=bool))[:2 * ops.PAIR_CHUNK + 7]
    for adjoint in (False, True):
        expected = per_pair_commutator_norm(left, right, pairs, adjoint)
        got = ops.max_commutator(left, right, pairs, adjoint=adjoint)
        assert abs(got - expected) <= 1e-14 * expected
    assert ops.max_commutator(left, right, pairs[:0], adjoint=True) == 0.0


def test_max_commutator_of_commuting_pairs_is_zero(rng):
    # [A, A] and [1, B] vanish in floating point too
    stack = np.array([ops.random_operator(rng, 6) for _ in range(3)]
                     + [np.eye(6, dtype=complex)])
    pairs = np.array([[0, 0], [1, 1], [2, 2], [3, 0], [3, 1], [3, 2]])
    assert ops.max_commutator(stack, stack, pairs) == 0.0
    # the adjoint pass of [1, B] vanishes as well; that of [A, A] does not
    assert ops.max_commutator(stack, stack, pairs[3:], adjoint=True) == 0.0


# ---------------------------------------------------------------------------
# max_commutator with a bound: certified on the bound's side

def decisions_agree(left, right, pairs, bound, adjoint=False):
    """The bounded value is on the bound's side of the oracle's norm, and
    brackets it: at least the norm when it holds, at most when it fails."""
    exact = per_pair_commutator_norm(left, right, pairs, adjoint)
    got = ops.max_commutator(left, right, pairs, adjoint=adjoint, bound=bound)
    assert (got <= bound) == (exact <= bound), (got, exact, bound)
    if got <= bound:
        assert got >= exact * (1 - 1e-14)
    else:
        assert got <= exact * (1 + 1e-14)
    return got


def count_op_norms(monkeypatch):
    calls = []
    op_norms = ops.op_norms

    def counted(stack):
        calls.append(len(stack))
        return op_norms(stack)

    monkeypatch.setattr(ops, "op_norms", counted)
    return calls


@pytest.mark.parametrize("hermitian", [False, True])
def test_bounded_max_commutator_decides_like_the_exact_norm(rng, hermitian):
    draw = ops.random_hermitian if hermitian else ops.random_operator
    left = np.array([draw(rng, 5) for _ in range(9)])
    right = np.array([ops.random_operator(rng, 5) for _ in range(8)])
    pairs = np.argwhere(np.ones((9, 8), dtype=bool))[:2 * ops.PAIR_CHUNK + 7]
    for adjoint in (False, True):
        exact = per_pair_commutator_norm(left, right, pairs, adjoint)
        for bound in (0.0, 1e-9, exact * (1 - 1e-12), exact * (1 + 1e-12),
                      4 * exact, np.inf):
            decisions_agree(left, right, pairs, bound, adjoint)
    assert ops.max_commutator(left, right, pairs[:0], bound=1e-9) == 0.0


def test_bounded_max_commutator_norms_only_undecided_chunks(rng, monkeypatch):
    # a bound far from every norm is settled by the bracket alone; a bound
    # within the bracket of the chunk holding the largest norm is not
    left = np.array([ops.random_operator(rng, 6) for _ in range(4)])
    pairs = np.argwhere(np.ones((4, 4), dtype=bool))
    exact = per_pair_commutator_norm(left, left, pairs, True)
    calls = count_op_norms(monkeypatch)
    assert ops.max_commutator(left, left, pairs, True, bound=1e-9) > 1e-9
    assert ops.max_commutator(left, left, pairs, True, bound=1e3) <= 1e3
    assert calls == []
    decisions_agree(left, left, pairs, exact * (1 + 1e-12), adjoint=True)
    assert calls == [2 * len(pairs)]


def test_bounded_max_commutator_of_commuting_pairs(rng, monkeypatch):
    stack = np.array([ops.random_operator(rng, 6) for _ in range(3)]
                     + [np.eye(6, dtype=complex)])
    pairs = np.array([[0, 0], [1, 1], [2, 2], [3, 0], [3, 1], [3, 2]])
    calls = count_op_norms(monkeypatch)
    for bound in (0.0, 1e-300, 1e-9):
        assert ops.max_commutator(stack, stack, pairs, bound=bound) == 0.0
    assert calls == []
    # one pair that does not commute, in a later chunk
    many = np.concatenate([np.tile(pairs, (ops.PAIR_CHUNK, 1)), [[0, 1]]])
    assert ops.max_commutator(stack, stack, many, bound=1e-9) > 1e-9
    decisions_agree(stack, stack, many, 0.0)


def test_bounded_max_commutator_propagates_nan(rng):
    stack = np.array([ops.random_operator(rng, 4) for _ in range(3)])
    stack[1, 2, 3] = np.nan
    for bound in (1e-9, 1e3, np.inf):
        assert np.isnan(ops.max_commutator(stack, stack, np.array([[1, 0]]),
                                           bound=bound))
    # after chunks that hold, and in the adjoint commutators only
    pairs = np.array([[0, 0]] * ops.PAIR_CHUNK + [[2, 1]])
    assert np.isnan(ops.max_commutator(stack, stack, pairs, bound=1e3))
    assert np.isnan(ops.max_commutator(stack[1:2], stack[:1],
                                       np.array([[0, 0]]), adjoint=True,
                                       bound=1e3))
    # a norm above the bound ends the scan before the NaN is reached
    pairs[:-1] = [0, 2]
    assert ops.max_commutator(stack, stack, pairs, bound=1e-9) > 1e-9


def exact_norm_stacks():
    """Pairs whose commutators have norms that every path computes exactly:
    rank one ([2 E_01, E_00] = -2 E_01, norm 2), and full rank on a block
    ([sigma_x, sigma_z] = -2i sigma_y, norm 2, Frobenius norm 2 sqrt 2)."""
    e00, e01 = np.zeros((2, 4, 4), dtype=complex)
    e00[0, 0] = e01[0, 1] = 1.0
    sigma_x, sigma_z = np.zeros((2, 4, 4), dtype=complex)
    sigma_x[:2, :2] = [[0, 1], [1, 0]]
    sigma_z[:2, :2] = [[1, 0], [0, -1]]
    return [np.array([2 * e01, e00]), np.array([sigma_x, sigma_z])]


@pytest.mark.parametrize("stack", exact_norm_stacks(), ids=["rank-one", "block"])
def test_bounded_max_commutator_a_few_ulps_from_the_bound(stack):
    pairs = np.array([[0, 1]] * (ops.PAIR_CHUNK + 3))
    assert per_pair_commutator_norm(stack, stack, pairs[:1], False) == 2.0
    assert ops.max_commutator(stack, stack, pairs) == 2.0
    below = above = 2.0
    for _ in range(8):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, 4.0)
        for bound in (below, 2.0, above):
            decisions_agree(stack, stack, pairs, bound)
            decisions_agree(stack, stack, pairs, bound, adjoint=True)


def rank_one_commutators(rng, d=7, n=64):
    """A_k = |u_k><e_0| for random u_k, then n copies of E_00: the
    commutators [A_k, E_00] = |w_k><e_0|, w_k being u_k with its first
    entry zeroed, are rank one, so their column norm, Frobenius norm and
    operator norm are one value, ||w_k||, reached by differently rounded
    sums."""
    e0 = np.zeros((d, d), dtype=complex)
    e0[0, 0] = 1.0
    u = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    A = np.zeros((n, d, d), dtype=complex)
    A[:, :, 0] = u
    return np.concatenate([A, np.broadcast_to(e0, (n, d, d))])


def test_bounded_max_commutator_agrees_with_the_unbounded_a_few_ulps_away(rng):
    stack = rank_one_commutators(rng)
    n = len(stack) // 2
    for k in range(n):
        pairs = np.array([[k, n + k]])
        exact = ops.max_commutator(stack, stack, pairs)
        below = above = exact
        for _ in range(8):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 2 * exact)
            for bound in (below, exact, above):
                got = ops.max_commutator(stack, stack, pairs, bound=bound)
                assert (got <= bound) == (exact <= bound), (k, got, exact, bound)


def stacked_orbit_sum_reps():
    return [ops.spacetime_representation(P3),
            ops.character_representation(
                P5, [LatticePoint(k, 0) for k in range(1, 5)]),
            ops.tensor_product_rep(
                ops.spacetime_representation(P3),
                ops.character_representation(
                    P3, [LatticePoint(1, 0), LatticePoint(2, 0)]))]


@pytest.mark.parametrize("rep", stacked_orbit_sum_reps(),
                         ids=["permutation", "character", "tensor-product"])
def test_stacked_orbit_sum_matches_one_operator_at_a_time(rng, rep, monkeypatch):
    n = len(rep.table)
    stack = np.array([ops.random_operator(rng, rep.dim) for _ in range(7)])
    weights = rng.standard_normal(n)
    weights[::4] = 0.0
    matrix = rng.standard_normal((n, 3))
    # the default budget takes the stack in one block; a budget of two
    # operators' conjugates takes it in four
    for budget in (ops.WORK_BLOCK_BYTES, 2 * 16 * n * rep.dim ** 2):
        monkeypatch.setattr(ops, "WORK_BLOCK_BYTES", budget)
        sums = rep.orbit_sum(weights, stack)
        by_column = rep.orbit_sum(matrix, stack)
        assert sums.shape == stack.shape
        assert by_column.shape == (7, 3, rep.dim, rep.dim)
        # each operator is contracted on its own, so the sums agree to the bit
        for i, A in enumerate(stack):
            assert np.array_equal(sums[i], rep.orbit_sum(weights, A))
            assert np.array_equal(by_column[i], rep.orbit_sum(matrix, A))


@pytest.mark.parametrize("rep", stacked_orbit_sum_reps()[:2],
                         ids=["permutation", "character"])
def test_stacked_conjugate_matches_one_operator_at_a_time(rng, rep):
    stack = np.array([ops.random_operator(rng, rep.dim) for _ in range(4)])
    for g in rep.params.generators():
        conjugated = rep.conjugate(g, stack)
        assert conjugated.shape == stack.shape
        for A, moved in zip(stack, conjugated):
            assert np.array_equal(moved, rep.conjugate(g, A))


def test_stacked_orbit_sum_is_capped_naming_the_stack(monkeypatch):
    rep = ops.spacetime_representation(P3)
    n = len(rep.table)
    # one operator's 18 conjugates of 9 x 9 take 23328 bytes, five take five
    # times that
    monkeypatch.setattr(ops, "MAX_FRAME_BYTES", 50_000)
    assert rep.orbit_sum(np.ones(n), np.eye(9)).shape == (9, 9)
    with pytest.raises(ops.SizeError,
                       match="stack of 18 conjugates of 5 operators of 9x9"):
        rep.orbit_sum(np.ones(n), np.zeros((5, 9, 9)))


def test_make_rng_deterministic():
    a = ops.make_rng(7).standard_normal(5)
    b = ops.make_rng(7).standard_normal(5)
    assert np.array_equal(a, b)
