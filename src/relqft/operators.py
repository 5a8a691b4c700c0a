"""Dense complex-matrix operator tools.

States, effects, tensor products, commutants, generated algebras and
unitary representations of the toy group (the partial trace is
``fields.restrict``).  Everything is a plain numpy array; the classes
here only bundle arrays with the bookkeeping the rest of the package
needs (representation tables, subspace bases).

Every representation is monomial, a permutation times a diagonal of
phases, and ``UnitaryRep`` holds it in that one format: an index table and
a phase table over the group.  ``UnitaryRep.orbit(A, rows)``, the
conjugates of A by the elements at the rows, is the one gather on the
tables: a conjugation is its one-row read, and an orbit sum contracts its
operator blocks with the weights.  A dense U(g) is built only for test
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from relqft import lattice
from relqft.lattice import GroupElement, LatticePoint, ModelParams
from relqft.tolerances import SVD_CUTOFF, TOL_EQ, TOL_HERM, TOL_PSD, TOL_TRACE


class HermiticityError(ValueError):
    """Raised when an operation requires a Hermitian input."""


class SizeError(ValueError):
    """Raised on dimension mismatches or oversized tensor products."""


MAX_DIM = 4096  # guard for runaway tensor products
#: Cap on the |F| d^2 complex entries of one frame's effect array (2 GiB):
#: the regular representation at N = 9 fits (1.7 GiB), N = 11 does not.
#: Stacks of conjugates, the joint-state constraints of ``causality`` and
#: a frame's unit weights are held to the same cap.
MAX_FRAME_BYTES = 2 * 1024**3
#: Bytes of one block of work memory (at least one row or operator per
#: block): the gather index of ``UnitaryRep.orbit``, the operator blocks
#: of a stacked ``UnitaryRep.orbit_sum``, the row and column batches of
#: ``FrameObservable.diagonal_invariance_defect``, and the row blocks of
#: the joint-state projection in ``causality``.
WORK_BLOCK_BYTES = 2**19
#: Operator pairs whose commutators ``max_commutator`` forms at once;
#: bounds its working memory at a few (chunk, d, d) stacks.
PAIR_CHUNK = 32


# ---------------------------------------------------------------------------
# elementary helpers

def dagger(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix of a stack."""
    return A.conj().swapaxes(-1, -2)


def eq_defect(A: np.ndarray, B: np.ndarray) -> float:
    """Largest entrywise deviation |A - B|."""
    return float(np.max(np.abs(np.asarray(A) - np.asarray(B)))) if np.size(A) else 0.0


def op_norm(A: np.ndarray) -> float:
    """Operator norm = largest singular value: ``op_norms`` of the one
    matrix."""
    return float(op_norms(np.asarray(A)[None])[0])


def op_norms(stack: np.ndarray) -> np.ndarray:
    """op_norm of every matrix C of an (n, a, b) stack: the square root of
    the largest eigenvalue of the smaller Gram matrix, C^dag C or C C^dag,
    from one batched ``eigvalsh``.  Squaring costs accuracy only in the
    small singular values, not in the largest; an all-zero matrix gives
    exactly 0.0."""
    stack = np.asarray(stack)
    if min(stack.shape[-2:]) == 0:
        return np.zeros(stack.shape[:-2])
    adjoint = dagger(stack)
    gram = adjoint @ stack if stack.shape[-1] <= stack.shape[-2] else stack @ adjoint
    return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0))


def max_commutator(left: np.ndarray, right: np.ndarray, pairs: np.ndarray,
                   adjoint: bool = False, bound: float | None = None) -> float:
    """Largest operator norm of [left[i], right[j]] over the (n, 2) index
    pairs (i, j) of two (m, d, d) stacks, and of [left[i]^dag, right[j]]
    too when ``adjoint``: PAIR_CHUNK pairs at a time, normed by one
    ``op_norms`` call per chunk; 0.0 for no pairs.  When the rows of
    ``left`` that the pairs read are exactly Hermitian the adjoint
    commutators are the plain ones, so they are not formed again.

    A caller that only compares the largest norm with a bound passes the
    bound, and the value returned is then certified only on the bound's
    side: at most the bound exactly when the largest norm is, and NaN
    when a commutator holds a NaN.  Each chunk is first bracketed
    (``_norm_bracket``): a chunk whose upper bound is within the bound
    holds without ``op_norms`` and counts with that upper bound; a lower
    bound above the bound ends the scan and is returned; only a chunk the
    bracket leaves open is normed, and a norm above the bound ends the
    scan."""
    if adjoint:
        read = left[np.bincount(pairs[:, 0], minlength=len(left)) > 0]
        adjoint = not np.array_equal(read, dagger(read))
    worst = 0.0
    for start in range(0, len(pairs), PAIR_CHUNK):
        chunk = pairs[start:start + PAIR_CHUNK]
        A, B = left[chunk[:, 0]], right[chunk[:, 1]]
        commutators = A @ B - B @ A
        if adjoint:
            A_dag = dagger(A)
            commutators = np.concatenate([commutators, A_dag @ B - B @ A_dag])
        if bound is not None:
            lower, upper = _norm_bracket(commutators)
            if math.isnan(upper):
                return math.nan
            if upper <= bound:
                worst = max(worst, upper)
                continue
            if lower > bound:
                return lower
        worst = np.maximum(worst, op_norms(commutators).max())
        if bound is not None and worst > bound:
            break
    return float(worst)


def _norm_bracket(stack: np.ndarray) -> tuple[float, float]:
    """Bounds lower <= max ||C||_2 <= upper over an (n, d, d) stack, from
    ||C e_j|| <= ||C||_2 <= ||C||_F (Golub & Van Loan, Matrix
    Computations, 2.3) with c the largest column norm and F the Frobenius
    norm of each C, read in one pass over the squares of the real and
    imaginary parts.  c^2 and F^2 are sums of nonnegative terms, within
    about d ulps of their values, and ``op_norms`` reads ||C||_2^2 from a
    Gram matrix whose rounding moves its largest eigenvalue by about
    d F^2 ulps.  A margin m of 4 d ulps covers both: upper^2 =
    (1 + m) max F^2 and lower^2 = max((1 - m) c^2 - m F^2) bound the norm
    that ``op_norms`` computes as well as the exact one.  NaN when any
    entry is."""
    n, d = len(stack), stack.shape[-1]
    margin = 4 * d * np.finfo(float).eps
    parts = stack.view(stack.real.dtype)  # real and imaginary interleaved
    squares = np.einsum("nij,nij->nj", parts, parts)
    columns = squares.reshape(n, d, -1).sum(axis=-1)
    frobenius = columns.sum(axis=-1)
    upper = math.sqrt((1 + margin) * frobenius.max(initial=0.0))
    lower = (1 - margin) * columns.max(axis=-1, initial=0.0) - margin * frobenius
    return math.sqrt(max(lower.max(initial=0.0), 0.0)), upper


def herm_defect(A: np.ndarray) -> float:
    return eq_defect(A, dagger(A))


def psd_gap(A: np.ndarray) -> float:
    """Minimum eigenvalue of a Hermitian matrix: ``psd_gaps`` of the one
    matrix.

    A is accepted as positive semidefinite when psd_gap(A) >= -tol_psd.
    """
    return float(psd_gaps(np.asarray(A)[None])[0])


def psd_gaps(stack: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of every matrix of an (n, d, d) stack of
    Hermitian matrices, from one batched ``eigvalsh`` of their Hermitian
    parts.  Non-Hermitian input is a usage error, not a numerical
    condition: HermiticityError when any matrix is not Hermitian within
    TOL_HERM."""
    stack = np.asarray(stack)
    adjoint = dagger(stack)
    if not eq_defect(stack, adjoint) <= TOL_HERM:
        raise HermiticityError(f"matrix is not Hermitian within {TOL_HERM}")
    return np.linalg.eigvalsh((stack + adjoint) / 2)[..., 0]


def is_state(rho: np.ndarray) -> bool:
    return (
        herm_defect(rho) <= TOL_HERM
        and psd_gap(rho) >= -TOL_PSD
        and abs(np.trace(rho) - 1.0) <= TOL_TRACE
    )


def require_tensor_fits(d: int) -> None:
    """Raise SizeError when a tensor product space of dimension d would
    exceed MAX_DIM."""
    if d > MAX_DIM:
        raise SizeError(f"tensor product dimension {d} exceeds {MAX_DIM}")


def tensor(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product, with a size guard."""
    require_tensor_fits(A.shape[0] * B.shape[0])
    return np.kron(A, B)


# ---------------------------------------------------------------------------
# matrix subspaces and commutants

class AlgebraSubspace:
    """A subspace of d x d matrices, stored as an orthonormal basis.

    The basis is orthonormal for the Hilbert-Schmidt inner product, held as
    the columns of a d^2 x k matrix of row-major flattened operators.
    Closure under products is checked on demand (``is_product_closed``),
    not enforced, because the same container also carries plain generator
    spans.
    """

    def __init__(self, dim: int, basis_matrix: np.ndarray):
        self.dim = dim
        self.Q = basis_matrix  # d^2 x k, orthonormal columns

    @classmethod
    def from_spanning(cls, dim: int, ops) -> "AlgebraSubspace":
        ops = list(ops)
        if not ops:
            return cls(dim, np.zeros((dim * dim, 0), dtype=complex))
        M = np.stack([np.reshape(A, -1) for A in ops], axis=1)
        U, svals, _ = np.linalg.svd(M, full_matrices=False)
        if svals.size and svals[0] > 0:
            rank = int(np.sum(svals > SVD_CUTOFF * svals[0]))
        else:
            rank = 0
        return cls(dim, U[:, :rank])

    @property
    def subspace_dim(self) -> int:
        return self.Q.shape[1]

    def basis_ops(self) -> np.ndarray:
        """The basis as one (k, d, d) array of operators."""
        return self.Q.T.reshape(-1, self.dim, self.dim)

    def project(self, A: np.ndarray) -> np.ndarray:
        x = np.reshape(A, -1)
        return (self.Q @ (dagger(self.Q) @ x)).reshape(self.dim, self.dim)

    def membership_defect(self, A: np.ndarray) -> float:
        """Entrywise distance from A to its projection onto the subspace."""
        return eq_defect(A, self.project(A))

    def contains(self, A: np.ndarray) -> bool:
        return self.membership_defect(A) <= TOL_EQ

    def containment_defect(self, other: "AlgebraSubspace") -> float:
        """Max membership defect of this subspace's basis in ``other``."""
        if self.subspace_dim == 0:
            return 0.0
        return float(np.max([other.membership_defect(B)
                             for B in self.basis_ops()]))

    def equality_defect(self, other: "AlgebraSubspace") -> float:
        return float(np.maximum(self.containment_defect(other),
                                other.containment_defect(self)))

    def is_product_closed(self) -> bool:
        ops = self.basis_ops()
        return all(self.contains(A @ B) for A in ops for B in ops)


def commutant(ops, dim: int | None = None) -> AlgebraSubspace:
    """Basis of {X : [X, A] = 0 for all A}, via one SVD nullspace.

    The map X -> AX - XA has matrix kron(A, I) - kron(I, A.T) on row-major
    flattened X; stacking these for every generator and taking the joint
    nullspace gives the commutant.  Always contains the identity.
    """
    ops = list(ops)
    if dim is None:
        if not ops:
            raise ValueError("need ops or an explicit dim")
        dim = ops[0].shape[0]
    if not ops:
        return AlgebraSubspace(dim, np.eye(dim * dim, dtype=complex))
    d2 = dim * dim
    eye = np.eye(dim, dtype=complex)
    scale = max(max(float(np.linalg.norm(A)) for A in ops), 1e-300)

    # Gram operator of all the commutator maps at once: with
    # M_i = [A_i, .] on vectorized matrices, the nullspace of
    # G = sum_i M_i^dag M_i is the commutant.  The Kronecker expansion
    # below assembles G without ever stacking the maps, so memory stays
    # at one d^2 x d^2 block.  Aggregating before any rank decision
    # matters: a generator-by-generator sweep makes hard keep/cut calls
    # whose early errors compound over long generator lists.
    G = np.zeros((d2, d2), dtype=complex)
    left = np.zeros((dim, dim), dtype=complex)
    right = np.zeros((dim, dim), dtype=complex)
    for A in ops:
        Ad = dagger(A)
        left += Ad @ A
        right += A @ Ad
        G -= np.kron(Ad, A.T)
        G -= np.kron(A, np.conj(A))
    G += np.kron(left, eye)
    G += np.kron(eye, right.T)
    G = (G + dagger(G)) / 2.0
    evals, evecs = np.linalg.eigh(G)

    # Generous split: only directions clearly excluded are dropped here;
    # everything near the boundary is deferred to the unsquared pass, so
    # the squaring in G never decides a borderline case.  The generator
    # scale anchors the threshold because G is numerical dust whenever
    # every generator nearly commutes with everything.
    coarse = 1e-4
    tau = coarse * max(float(np.sqrt(max(evals[-1], 0.0))), scale)
    Q = evecs[:, evals <= tau * tau]
    k = Q.shape[1]
    if k == 0:
        return AlgebraSubspace(dim, Q)

    # Exact pass: one aggregate rank decision over the stacked commutator
    # maps restricted to the candidates.  Repeated QR accumulates the R
    # factor, which has the same singular structure as the full stack,
    # while never holding more than one d^2 x k block.
    X = Q.reshape(dim, dim, k)
    R = np.zeros((0, k), dtype=complex)
    for A in ops:
        C = np.einsum("ab,bck->ack", A, X) - np.einsum("abk,bc->ack", X, A)
        R = np.linalg.qr(np.concatenate([R, C.reshape(d2, k)], axis=0), mode="r")
    _, svals, Vh = np.linalg.svd(R, full_matrices=False)
    tolv = SVD_CUTOFF * max(svals[0] if svals.size else 0.0, scale)
    rank = int(np.sum(svals > tolv))
    return AlgebraSubspace(dim, Q @ dagger(Vh)[:, rank:])


def double_commutant(ops, dim: int | None = None) -> AlgebraSubspace:
    """commutant(commutant(S)); the generated algebra for *-closed S.  The
    reference the tests compare ``generated_algebra`` against."""
    first = commutant(ops, dim=dim)
    return commutant(first.basis_ops(), dim=first.dim)


def fresh_directions(Q: np.ndarray, P: np.ndarray, floor: float) -> np.ndarray:
    """Orthonormal columns spanning the part of span(P) outside span(Q),
    for Q with orthonormal columns: two passes of classical Gram-Schmidt
    against Q, then the left singular vectors of the residual whose
    singular values exceed ``floor``."""
    for _ in range(2):  # classical Gram-Schmidt, reorthogonalised
        P = P - Q @ (dagger(Q) @ P)
    U, svals, _ = np.linalg.svd(P, full_matrices=False)
    return U[:, svals > floor]


def generated_algebra(ops, dim: int) -> AlgebraSubspace:
    """Unital *-algebra generated by ops, by word closure.

    From span{1}, each round multiplies the directions added last round by
    an orthonormal basis of span{S, S^dag} and squares them, projects out
    the basis so far, and keeps new directions above SVD_CUTOFF times the
    largest product norm seen, until a round adds nothing or all d^2
    matrices are spanned; all of M_d gets the matrix units as its basis.
    Each round multiplies the rounding error outside the algebra by up to
    |G| / (kept singular value); the squares cut the rounds of a long
    chain to about log2 of its length, yet one Hermitian generator with
    d = 48 distinct eigenvalues can still return all d^2 matrices.  For
    *-closed S this is double_commutant(S) (bicommutant theorem) at d x d
    cost.
    """
    ops = list(ops)
    d2 = dim * dim
    gens = AlgebraSubspace.from_spanning(
        dim, ops + [dagger(A) for A in ops]).basis_ops()
    Q = (np.eye(dim, dtype=complex) / np.sqrt(dim)).reshape(d2, 1)
    newest = Q
    scale = 0.0
    chunk = max(1, d2 // (len(gens) + 1))  # at most d^2 products at once
    while len(gens) and newest.shape[1] and Q.shape[1] < d2:
        added = []
        for start in range(0, newest.shape[1], chunk):
            N = newest[:, start:start + chunk].T.reshape(-1, dim, dim)
            P = np.concatenate([(gens[:, None] @ N).reshape(-1, d2),
                                (N @ N).reshape(-1, d2)]).T
            scale = max(scale, float(np.max(np.linalg.norm(P, axis=0))))
            fresh = fresh_directions(Q, P, SVD_CUTOFF * scale)
            Q = np.concatenate([Q, fresh], axis=1)
            added.append(fresh)
            if Q.shape[1] >= d2:
                break
        newest = np.concatenate(added, axis=1)
    if Q.shape[1] >= d2:
        # all of M_d: the matrix units, free of the rounding Q has gathered
        Q = np.eye(d2, dtype=complex)
    return AlgebraSubspace(dim, Q)


# ---------------------------------------------------------------------------
# unitary representations

class UnitaryRep:
    """A monomial unitary representation of the toy group.

    Every U(g) is a permutation times a diagonal of phases, held as two
    (|G|, dim) arrays in group_elements() order: for g =
    params.group_elements()[i], row i of the integer ``table`` holds the
    image j -> table[i, j] of every basis index and row i of ``phases``
    its phase, so U(g) e_j = phases[i, j] e_table[i, j].  ``phases`` is
    None for a permutation representation (every phase 1).

    ``orbit(A, rows)`` gathers the conjugates of A by the elements at the
    rows, an index gather times phases that builds no unitary;
    ``conjugate`` reads its one row and ``orbit_sum`` contracts it with
    weights.  ``rep(g)`` scatters the tables into one dense U(g), for test
    oracles only.  ``free_index`` holds the index tables of a subgroup
    that acts freely and transitively on the basis (the whole group on a
    regular representation, the translations on the spacetime one), on
    which the frames read their orbits as convolutions.  Builders below
    cover the permutation representations (regular, spacetime, Lorentz),
    the trivial and character representations, direct sums and tensor
    products, which is everything the workbench uses.
    """

    def __init__(self, params: ModelParams, table: np.ndarray,
                 phases: np.ndarray | None = None):
        self.params = params
        self.table = table
        self.phases = phases
        self.dim = table.shape[1]

    def __call__(self, g: GroupElement) -> np.ndarray:
        """The dense U(g), for test oracles: entry (table[i, j], j) is
        phases[i, j]."""
        i = self.params.frame_index(g)
        U = np.zeros((self.dim, self.dim), dtype=complex)
        U[self.table[i], np.arange(self.dim)] = _phase_table(self)[i]
        return U

    def inverse_rows(self, rows) -> tuple[np.ndarray, np.ndarray | None]:
        """The inverse of the table rows at ``rows``, argsort(table[rows],
        axis=1), and the phases read through it (None for a permutation
        representation): with inv and c those of g, U(g) A U(g)^dag has
        entry (j, k) c[j] A[inv[j], inv[k]] conj(c[k])."""
        inverse = np.argsort(self.table[rows], axis=1)
        if self.phases is None:
            return inverse, None
        return inverse, np.take_along_axis(self.phases[rows], inverse, axis=1)

    def _conjugates(self, inverse: np.ndarray, phases: np.ndarray | None,
                    A: np.ndarray, what: str) -> np.ndarray:
        """U(g) A U(g)^dag for the group elements whose inverse table rows
        and phases (``inverse_rows``) are given, as a (k, dim, dim) array, or
        (m, k, dim, dim) for an (m, dim, dim) stack A, each operator's
        conjugates contiguous: the gather (k, l) -> c[k] A[inv[k], inv[l]]
        conj(c[l]), with inv the inverse of the table row and c =
        phases[inv].  The row phase goes on first, as a dense product
        rounds.  The int64 gather index is built about WORK_BLOCK_BYTES at
        a time (at least one row) and serves every operator, so it adds
        little to the stack; the stack is refused before allocation above
        MAX_FRAME_BYTES, named by ``what``."""
        A = np.asarray(A, dtype=complex)
        n, d = len(inverse), self.dim
        flats = A.reshape(-1, d * d)
        stack = zero_stack(len(flats) * n, d, what).reshape(len(flats), n, d, d)
        block = max(1, WORK_BLOCK_BYTES // (8 * d * d))
        for start in range(0, n, block):
            inv = inverse[start:start + block]
            index = inv[:, :, None] * d + inv[:, None, :]
            for flat, out in zip(flats, stack[:, start:start + block]):
                flat.take(index, out=out, mode="clip")
            del index  # freed before the next block's is built
        if phases is not None:
            stack *= phases[:, :, None]
            stack *= phases.conj()[:, None, :]
        return stack.reshape(A.shape[:-2] + (n, d, d))

    def _require_conjugates_fit(self, n: int, A: np.ndarray) -> str:
        """Refuse n conjugates of A, one operator or each of an (m, dim,
        dim) stack, above MAX_FRAME_BYTES; returns the stack's name."""
        what = f"a stack of {n} conjugates"
        if A.ndim == 3:
            what += f" of {len(A)} operators"
        require_stack_fits(n * (len(A) if A.ndim == 3 else 1), self.dim, what)
        return what

    def orbit(self, A: np.ndarray, rows=slice(None)) -> np.ndarray:
        """U(g) A U(g)^dag for the elements g at ``rows`` (a slice or a
        sequence of positions in group_elements() order; every element by
        default), from one gather: a (k, dim, dim) array, or (m, k, dim,
        dim) for an (m, dim, dim) stack A, equal to the rows of the whole
        orbit to the bit.  Refused before any allocation, the gather index
        included, when it would exceed MAX_FRAME_BYTES."""
        A = np.asarray(A, dtype=complex)
        n = (len(range(len(self.table))[rows]) if isinstance(rows, slice)
             else len(rows))
        what = self._require_conjugates_fit(n, A)
        return self._conjugates(*self.inverse_rows(rows), A, what)

    def conjugate(self, g: GroupElement, A: np.ndarray) -> np.ndarray:
        """U(g) A U(g)^dag, of one operator or of each operator of an (m,
        dim, dim) stack: the one-row ``orbit``."""
        return self.orbit(A, [self.params.frame_index(g)])[..., 0, :, :]

    def orbit_sum(self, weights, A: np.ndarray) -> np.ndarray:
        """sum_g weights[g] U(g) A U(g)^dag, weights in group_elements()
        order: a gather of the conjugates by the elements of nonzero
        weight, contracted with their weights.

        A (|G|, m) weight matrix gives the m sums, column k weighted by
        weights[:, k], as one (m, dim, dim) array: the gather then takes
        the elements with any nonzero weight.  An (n, dim, dim) stack A
        gives n results, result[i] being orbit_sum(weights, A[i]) to the
        bit: the table rows are inverted once, and the operators are
        gathered and contracted in blocks of about WORK_BLOCK_BYTES of
        conjugates (at least one operator), each operator's conjugates
        with the weights on their own.  The conjugates of the whole stack
        are refused before any allocation when they would exceed
        MAX_FRAME_BYTES, as if built at once."""
        weights = np.asarray(weights)
        rows = np.flatnonzero(weights if weights.ndim == 1 else weights.any(axis=1))
        if len(rows) < len(weights):  # no copy when every element is taken
            weights = weights[rows]
        A = np.asarray(A, dtype=complex)
        d = self.dim
        what = self._require_conjugates_fit(len(rows), A)
        inverse, phases = self.inverse_rows(rows)
        stack = A.reshape(-1, d, d)
        sums = np.empty((len(stack),) + weights.shape[1:] + (d * d,), dtype=complex)
        step = max(1, WORK_BLOCK_BYTES // (16 * d * d * max(1, len(rows))))
        for start in range(0, len(stack), step):
            block = self._conjugates(inverse, phases,
                                     stack[start:start + step], what)
            sums[start:start + step] = weights.T @ block.reshape(
                block.shape[:-2] + (d * d,))
        return sums.reshape(A.shape[:-2] + weights.shape[1:] + (d, d))

    @cached_property
    def free_index(self) -> FreeIndex | None:
        """The index tables of a subgroup H that acts freely and
        transitively on the basis, built on first read and kept; None
        when there is none of the form below.

        With c the number of leading table rows that fix basis vector 0
        (at least one), H is the set of elements at rows 0, c, 2c, ...:
        the whole group when c = 1 (a regular representation), the
        translations when c = |C| (the spacetime one), the identity when
        c = |G|.  The layout is free when the representation permutes (no
        phases) the basis, |H| c = |G|, and the images of basis vector 0
        under H are the whole basis, each once.  Then the first c rows are
        the stabilizer of basis vector 0, and the element at row h c + j
        is h after the stabilizer element j."""
        t = self.table
        moved = np.flatnonzero(t[:, 0])
        c = int(moved[0]) if len(moved) else len(t)
        if self.phases is not None or c == 0:
            return None
        act = t[::c]
        if len(act) * c != len(t):
            return None
        order = np.argsort(act[:, 0])
        if not np.array_equal(act[order, 0], np.arange(self.dim)):
            return None
        return FreeIndex(stabilizer=c, act=act, product=act[order],
                         quotient=np.argsort(act, axis=1)[order])


@dataclass(frozen=True)
class FreeIndex:
    """Index tables of a subgroup H acting freely and transitively on the
    basis of a permutation representation.  Basis vector x is h_x e_0 for
    exactly one h_x in H, so basis indices name the elements of H, and
    x.r is the basis index of h_x h_r, that is h_x e_r:

    * ``stabilizer`` is c, the count of leading table rows that fix e_0;
    * ``act[h, x]`` is h.x, the table row h c;
    * ``product[x, r]`` is x.r;
    * ``quotient[x, y]`` is the r with x.r = y.
    """

    stabilizer: int
    act: np.ndarray
    product: np.ndarray
    quotient: np.ndarray


def _phase_table(rep: UnitaryRep) -> np.ndarray:
    """``rep.phases``, ones for a permutation representation."""
    if rep.phases is None:
        return np.ones(rep.table.shape, dtype=complex)
    return rep.phases


def require_fits(shape: tuple[int, ...], what: str) -> None:
    """Raise SizeError when a complex array of the shape would exceed
    MAX_FRAME_BYTES; ``what`` names it in the error."""
    nbytes = math.prod(shape) * np.dtype(complex).itemsize
    if nbytes > MAX_FRAME_BYTES:
        raise SizeError(
            f"{what} needs {nbytes / 2**30:.1f} GiB,"
            f" over the {MAX_FRAME_BYTES / 2**30:.0f} GiB cap")


def require_stack_fits(n: int, dim: int, what: str) -> None:
    """Raise SizeError when a complex (n, dim, dim) array would exceed
    MAX_FRAME_BYTES; ``what`` names it in the error."""
    require_fits((n, dim, dim), f"{what} of {dim}x{dim}")


def zero_stack(n: int, dim: int, what: str) -> np.ndarray:
    """A zeroed complex (n, dim, dim) array, refused before allocation when
    it would exceed MAX_FRAME_BYTES; ``what`` names it in the error."""
    require_stack_fits(n, dim, what)
    return np.zeros((n, dim, dim), dtype=complex)


def regular_representation(params: ModelParams) -> UnitaryRep:
    """Permutation matrices of the torsor action on F; dim = N^2 |C|."""
    return UnitaryRep(params, lattice.frame_action_table(params))


def spacetime_representation(params: ModelParams) -> UnitaryRep:
    """Permutation matrices of the (transitive) action on M; dim = N^2."""
    return UnitaryRep(params, lattice.site_action_table(params))


def lorentz_representation(params: ModelParams) -> UnitaryRep:
    """Permutation matrices of lam -> boost * lam on C; translations act
    trivially (the representation factors through the boost quotient)."""
    return UnitaryRep(params, lattice.fiber_action_table(params))


def trivial_representation(params: ModelParams) -> UnitaryRep:
    """The one-dimensional trivial representation."""
    table = np.zeros((len(params.group_elements()), 1), dtype=int)
    return UnitaryRep(params, table)


def character_phase(p: LatticePoint, a: LatticePoint, N: int) -> complex:
    """chi_p(a) = exp(2 pi i (p_u a_u + p_v a_v) / N)."""
    return np.exp(2j * np.pi * ((p.u * a.u + p.v * a.v) % N) / N)


def momentum_boost(b: int, p: LatticePoint, params: ModelParams) -> LatticePoint:
    """Action of a boost on momentum labels.

    With translations acting as U(a) e_p = chi_p(a) e_p, the homomorphism
    property forces boosts to send p to b^-1 |> p = (b^-1 p_u, b p_v)."""
    binv = params.boost_inverse(b)
    return LatticePoint((binv * p.u) % params.N, (b * p.v) % params.N)


def character_representation(params: ModelParams,
                             momenta: list[LatticePoint]) -> UnitaryRep:
    """Representation on a boost-closed set of translation characters.

    Basis vectors carry momenta p, and U(a, b) e_p = chi_q(a) e_q with
    q = momentum_boost(b, p): boosts permute the labels, translations
    multiply by characters.  Raises ValueError for a momentum outside
    0 <= u, v < N, for a repeated momentum, and when the label set is not
    closed under the boost action.
    """
    N = params.N
    momenta = [LatticePoint(*p) for p in momenta]
    index = np.full((N, N), -1)
    for i, p in enumerate(momenta):
        if not (0 <= p.u < N and 0 <= p.v < N):
            raise ValueError(f"momentum {tuple(p)} outside 0 <= u, v < {N}")
        if index[p.u, p.v] >= 0:
            raise ValueError(f"momentum {tuple(p)} listed twice")
        index[p.u, p.v] = i
    for p in momenta:
        q = momentum_boost(params.s, p, params)
        if index[q.u, q.v] < 0:
            raise ValueError(f"momentum set not boost-closed: {p} -> {q}")
    elements = params.group_elements()
    shift = np.array([g.a for g in elements])
    boost = np.array([g.boost for g in elements])
    inverse = np.array([params.boost_inverse(g.boost) for g in elements])
    p = np.array(momenta, dtype=int).reshape(-1, 2)
    qu = (inverse[:, None] * p[:, 0]) % N
    qv = (boost[:, None] * p[:, 1]) % N
    # chi_q(a) depends only on q.a mod N: one root of unity per residue
    roots = np.array([character_phase(LatticePoint(k, 0), LatticePoint(1, 0), N)
                      for k in range(N)])
    phases = roots[(qu * shift[:, :1] + qv * shift[:, 1:]) % N]
    return UnitaryRep(params, index[qu, qv], phases)


def direct_sum_rep(reps: list[UnitaryRep]) -> UnitaryRep:
    params = reps[0].params
    for r in reps[1:]:
        lattice.require_same_params(params, r.params)
    offsets = np.cumsum([0] + [r.dim for r in reps[:-1]])
    table = np.concatenate([r.table + off for r, off in zip(reps, offsets)], axis=1)
    phases = None
    if any(r.phases is not None for r in reps):
        phases = np.concatenate([_phase_table(r) for r in reps], axis=1)
    return UnitaryRep(params, table, phases)


def tensor_product_rep(rep1: UnitaryRep, rep2: UnitaryRep) -> UnitaryRep:
    """U1 (x) U2 on the row-major product basis, as np.kron orders it."""
    lattice.require_same_params(rep1.params, rep2.params)
    n = len(rep1.table)
    table = (rep1.table[:, :, None] * rep2.dim
             + rep2.table[:, None, :]).reshape(n, -1)
    phases = None
    if rep1.phases is not None or rep2.phases is not None:
        phases = (_phase_table(rep1)[:, :, None]
                  * _phase_table(rep2)[:, None, :]).reshape(n, -1)
    return UnitaryRep(rep1.params, table, phases)


# ---------------------------------------------------------------------------
# translation characters of a representation

def translation_character_projector(rep: UnitaryRep, p: LatticePoint) -> np.ndarray:
    """Projector onto the chi_p eigenspace of the translation subgroup:
    P_p = (1/N^2) sum_a conj(chi_p(a)) U(a).

    Each term is scattered at the entries (table[a], j) of U(a), so no
    dense U(a) is built."""
    params = rep.params
    P = np.zeros((rep.dim, rep.dim), dtype=complex)
    columns = np.arange(rep.dim)
    phases = _phase_table(rep)
    for a in params.lattice_points():
        i = params.frame_index(GroupElement(a, 1))
        P[rep.table[i], columns] += (
            np.conj(character_phase(p, a, params.N)) * phases[i])
    return P / params.N**2


def translation_character_support(rep: UnitaryRep) -> list[LatticePoint]:
    """Momenta whose character projector is nonzero: the finite analog of
    the joint spectrum of the translation generators."""
    out = []
    for p in rep.params.lattice_points():
        if op_norm(translation_character_projector(rep, p)) > TOL_EQ:
            out.append(p)
    return out


def translation_fixed_point_projector(rep: UnitaryRep) -> np.ndarray:
    """Group average over translations; projects onto invariant vectors."""
    return translation_character_projector(rep, LatticePoint(0, 0))


# ---------------------------------------------------------------------------
# randomized test material

def make_rng(seed: int) -> np.random.Generator:
    """Counter-based deterministic generator (Philox), stable across runs."""
    return np.random.Generator(np.random.Philox(seed))


def random_operator(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    A = random_operator(rng, d)
    return (A + dagger(A)) / 2


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    G = random_operator(rng, d)
    rho = G @ dagger(G)
    return rho / np.trace(rho)


def random_psd(rng: np.random.Generator, d: int) -> np.ndarray:
    G = random_operator(rng, d)
    return G @ dagger(G)
