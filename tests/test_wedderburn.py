"""Block decomposition, ideals, and quotient maps."""
import numpy as np
import pytest

from cstarenv.corpus import corpus_entries, standard_pairs
from cstarenv.errors import DecompositionError
from cstarenv.analysis import analyze_system
from cstarenv.linalg import (
    DEFAULT_TOL,
    span_of,
    subspace_contains,
    subspace_equal,
    subspace_intersection,
)
from cstarenv.opsys import CStarAlgebra, generated_cstar, opsys_from_generators
from cstarenv.specio import opsys_of
from cstarenv.tensor import product_blocks
from cstarenv import wedderburn as wedderburn_module
from cstarenv.wedderburn import (
    _VALIDATION_TOL,
    BlockIdeal,
    _pattern_residuals,
    _sylvester_rows,
    commutant,
    quotient_map,
    wedderburn_decompose,
)

from _oracles import (
    as_linear_map,
    ideal_subspace,
    tensor_map,
    block_layout_residual,
    orthonormality_residual,
    check_pattern_bounds,
    closure_residual,
    coefficient_irrep,
    coefficient_quotient,
    commutant_dim,
    enumerate_ideals,
    is_irreducible,
    random_complex,
)

KNOWN_BLOCKS = {
    "full_M1": ((1, 1),),
    "full_M2": ((2, 1),),
    "jordan_M2": ((2, 1),),
    "state_sum": ((2, 1), (1, 1)),
    "full_M3": ((3, 1),),
    "state_sum_s3": ((3, 1), (1, 1)),
}


def test_known_block_structures(wedderburn):
    for name, blocks in KNOWN_BLOCKS.items():
        _, W = wedderburn(name)
        assert W.blocks == blocks, name


def test_unitary_and_block_layout_corpus_wide(entries, wedderburn):
    for name in entries:
        A, W = wedderburn(name)
        n = W.u.shape[0]
        assert np.abs(W.u @ W.u.conj().T - np.eye(n)).max() < 1e-9, name
        resid = block_layout_residual(W.u, A.space.basis, W.blocks)
        assert resid < 1e-8, (name, resid)
        # copies of a block are equal, so multiplicities add no dimension
        assert sum(d * d for d, _ in W.blocks) == A.space.dim, name
        # the pattern is the only structural certificate: the all-pairs
        # closure and multiplicativity checks stay within its proved bounds
        check_pattern_bounds(W, name)


def test_blocks_sorted_by_descending_dimension(entries, wedderburn):
    for name in entries:
        _, W = wedderburn(name)
        dims = [d for d, _ in W.blocks]
        assert dims == sorted(dims, reverse=True), name


def test_irreps_are_unital_star_homomorphisms(wedderburn):
    rng = np.random.default_rng(31)
    for name in ("state_sum", "jordan_M3_k2", "random_02"):
        A, W = wedderburn(name)
        basis = A.space.basis
        eye = np.eye(A.space.ambient, dtype=complex)
        for label in W.labels:
            d = W.blocks[label - 1][0]
            assert np.abs(W.irrep_apply(label, eye) - np.eye(d)).max() < 1e-8
            for _ in range(5):
                ca = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
                cb = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
                a = np.tensordot(ca, basis, axes=1)
                b = np.tensordot(cb, basis, axes=1)
                pa, pb = W.irrep_apply(label, a), W.irrep_apply(label, b)
                assert np.abs(W.irrep_apply(label, a @ b) - pa @ pb).max() < 1e-7
                assert np.abs(W.irrep_apply(label, a.conj().T) - pa.conj().T).max() < 1e-7


def test_irreducibility_via_commutant_oracle(wedderburn):
    for name in ("state_sum", "full_M3", "random_01"):
        A, W = wedderburn(name)
        for label in W.labels:
            d = W.blocks[label - 1][0]
            rep = [W.irrep_apply(label, b) for b in A.space.basis]
            assert commutant_dim(rep, d) == 1, (name, label)
            assert is_irreducible(W, label)


def test_multiplicity_two_copy_major_layout():
    # I_2 (x) g duplicates the irrep: one block of dimension 2, multiplicity 2
    rng = np.random.default_rng(32)
    g = random_complex(rng, 2)
    E = opsys_from_generators(4, [np.kron(np.eye(2), g)])
    A = generated_cstar(E)
    W = wedderburn_decompose(A)
    assert W.blocks == ((2, 2),)
    assert A.space.dim == 4  # d^2, not m * d^2
    assert block_layout_residual(W.u, A.space.basis, W.blocks) < 1e-8


def test_local_span_matches_span_of(entries, wedderburn, bench_blocks, monkeypatch):
    # one SVD of each compressed isotypic component gives the dimension and
    # the subspace the Gram–Schmidt span gives, multiplicity 2 included
    stacks = []
    real = wedderburn_module._local_span

    def recording(compressed, tol):
        local = real(compressed, tol)
        stacks.append((compressed, local))
        return local

    monkeypatch.setattr(wedderburn_module, "_local_span", recording)
    rng = np.random.default_rng(32)
    g = random_complex(rng, 2)
    algebras = [wedderburn(name)[0] for name in entries]
    algebras += [generated_cstar(E) for _, E in bench_blocks]
    algebras.append(generated_cstar(opsys_from_generators(4, [np.kron(np.eye(2), g)])))
    multiplicities = set()
    for A in algebras:
        multiplicities.update(m for _, m in wedderburn_decompose(A).blocks)
    assert 2 in multiplicities and len(stacks) > 20
    for compressed, local in stacks:
        ref = span_of(list(compressed), compressed.shape[1])
        assert local.dim == ref.dim
        assert orthonormality_residual(local.basis) < 1e-13
        assert subspace_equal(local, ref)


def test_enumerate_ideals_is_the_power_set(wedderburn):
    _, W = wedderburn("state_sum")
    ideals = enumerate_ideals(W)
    killed_sets = {i.killed for i in ideals}
    assert killed_sets == {
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    }


def test_ideal_subspace_dims_and_annihilation(wedderburn):
    rng = np.random.default_rng(33)
    for name in ("state_sum", "state_sum_s3"):
        _, W = wedderburn(name)
        for killed in (frozenset({1}), frozenset({2})):
            ideal = BlockIdeal(W, killed)
            sub = ideal_subspace(ideal)
            assert sub.dim == sum(
                W.blocks[j - 1][1] * W.blocks[j - 1][0] ** 2 for j in killed
            )
            q = quotient_map(ideal)
            for k in range(sub.dim):
                assert np.abs(q.apply(sub.basis[k])).max() < 1e-8


def test_quotient_is_star_homomorphism_preserving_kept_blocks(wedderburn):
    rng = np.random.default_rng(34)
    A, W = wedderburn("state_sum")
    q = quotient_map(BlockIdeal(W, frozenset({2})))
    assert q.target_dim == 2
    basis = A.space.basis
    for _ in range(10):
        ca = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        cb = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        a = np.tensordot(ca, basis, axes=1)
        b = np.tensordot(cb, basis, axes=1)
        assert np.abs(q.apply(a @ b) - q.apply(a) @ q.apply(b)).max() < 1e-7
        assert np.abs(q.apply(a.conj().T) - q.apply(a).conj().T).max() < 1e-7
        # the kept irrep is the quotient, up to the block embedding
        assert np.abs(q.apply(a) - W.irrep_apply(1, a)).max() < 1e-8


@pytest.fixture(scope="module")
def decompositions(entries, wedderburn, seven_blocks):
    """Every corpus member's decomposition, the seven-block one and the
    synthetic decomposition ``product_blocks`` builds for state_sum (x)
    jordan_M2."""
    out = {name: wedderburn(name)[1] for name in entries}
    out["seven_blocks"] = seven_blocks[1]
    P = product_blocks(wedderburn("state_sum")[1], wedderburn("jordan_M2")[1])
    out["state_sum (x) jordan_M2"] = P.wedderburn
    return out


def _algebra_samples(W, seed: int) -> np.ndarray:
    """The algebra basis and two random unit-norm combinations of it."""
    basis = W.algebra.space.basis
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((2, len(basis))) + 1j * rng.standard_normal((2, len(basis)))
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    return np.concatenate([basis, np.einsum("bk,kij->bij", c, basis)])


def test_compression_matches_the_coefficient_route(decompositions):
    for name, W in decompositions.items():
        xs = _algebra_samples(W, 35)
        kept_sets = [W.labels] + [tuple(j for j in W.labels if j != i) for i in W.labels]
        for x in xs:
            for label in W.labels:
                got = W.irrep_apply(label, x)
                assert np.abs(got - coefficient_irrep(W, label, x)).max() < 1e-12, (name, label)
            for kept in kept_sets:
                q = quotient_map(BlockIdeal(W, frozenset(W.labels) - set(kept)))
                want = coefficient_quotient(W, kept, x)
                assert np.abs(q.apply(x) - want).max(initial=0.0) < 1e-12, (name, kept)


def test_stacked_calls_equal_per_matrix_calls(decompositions):
    for name, W in decompositions.items():
        xs = _algebra_samples(W, 36)
        for label in W.labels:
            single = np.stack([W.irrep_apply(label, x) for x in xs])
            assert np.array_equal(W.irrep_apply(label, xs), single), (name, label)
            pair = W.irrep_apply(label, np.stack([xs, xs[::-1]]))
            assert np.array_equal(pair, np.stack([single, single[::-1]])), (name, label)
        for killed in [frozenset()] + [frozenset({j}) for j in W.labels]:
            q = quotient_map(BlockIdeal(W, killed))
            assert np.array_equal(q.apply(xs), np.stack([q.apply(x) for x in xs])), (name, killed)


def test_quotient_killing_every_block_has_empty_images(wedderburn):
    A, W = wedderburn("state_sum")
    q = quotient_map(BlockIdeal(W, frozenset(W.labels)))
    assert q.target_dim == 0
    k = A.space.dim
    assert q.apply(A.space.basis).shape == (k, 0, 0)
    assert q.apply(A.space.basis[0]).shape == (0, 0)
    assert as_linear_map(q, A.space).values.shape == (k, 0, 0)
    # the zero ideal's subspace is empty, and so is every stack over it
    empty = ideal_subspace(BlockIdeal(W, frozenset()))
    full = quotient_map(BlockIdeal(W, frozenset()))
    assert as_linear_map(full, empty).values.shape == (0, full.target_dim, full.target_dim)


def test_decompose_rejects_non_algebra():
    # *-closed but not multiplicatively closed: span{I, h} in M_3
    from cstarenv.opsys import CStarAlgebra
    from cstarenv.linalg import span_of

    rng = np.random.default_rng(35)
    h = random_complex(rng, 3)
    h = h + h.conj().T
    fake = CStarAlgebra(space=span_of([np.eye(3, dtype=complex), h], 3))
    with pytest.raises(DecompositionError):
        wedderburn_decompose(fake)


def test_a_space_off_the_pattern_fails_validation(wedderburn):
    # the right dimension is not enough: move state_sum's last basis element
    # off the pattern, towards the (1, 3) matrix unit of the conjugated
    # picture, and orthonormalize again.  The space keeps dimension 5 but is
    # no algebra, and the pattern check rejects it with the real u, blocks
    # and irreps
    A, W = wedderburn("state_sum")
    n = A.ambient
    off = np.zeros((n, n), dtype=complex)
    off[0, 2] = 1.0
    basis = A.space.basis.copy()
    basis[-1] += 1e-3 * W.u.conj().T @ off @ W.u
    moved = CStarAlgebra(space=span_of(list(basis), n))
    assert moved.dim == A.dim
    assert closure_residual(moved.space.basis) > 1e-4
    args = (W.u, list(W.blocks), list(W.irreps), sum(m * m for _, m in W.blocks))
    assert sum(_pattern_residuals(A, *args)) <= _VALIDATION_TOL
    assert sum(_pattern_residuals(moved, *args)) > 1e-4


def full_svd_commutant(s, tol=DEFAULT_TOL):
    """The commutant through the full SVD of the stacked system, as it was
    computed before the thin SVD: the reference for the null space."""
    n = s.ambient
    eye = np.eye(n)
    stacked = np.concatenate([np.kron(eye, b.T) - np.kron(b, eye) for b in s.basis], axis=0)
    _, sig, vh = np.linalg.svd(stacked)
    rank = int(np.sum(sig > tol.tol_rank * sig[0]))
    return span_of(np.conj(vh[rank:]).reshape(-1, n, n), n, tol)


def test_commutant_matches_the_full_svd_null_space(entries, wedderburn, seven_blocks):
    small = [name for name, e in entries.items() if e.spec.ambient_dim <= 4]
    algebras = [wedderburn(name)[0].space for name in small]
    algebras.append(seven_blocks[1].algebra.space)
    for space in algebras:
        thin = commutant(space)
        assert subspace_equal(thin, full_svd_commutant(space)), space.ambient


def test_the_system_has_the_commutant_of_its_algebra(seven_blocks):
    # E = E* and 1 ∈ E, so {x : xb = bx for b in E} is the commutant of
    # C*(E): wedderburn_decompose solves it over the shorter basis of E
    algebras = [seven_blocks[1].algebra]
    for seed in (1, 2, 3):
        for e in corpus_entries(seed=seed, count=20):
            if e.spec.ambient_dim <= 4:
                algebras.append(generated_cstar(opsys_of(e.spec, DEFAULT_TOL)))
    for A in algebras:
        over_system, over_algebra = commutant(A.powers[0]), commutant(A.space)
        assert over_system.dim == over_algebra.dim, A.ambient
        assert subspace_equal(over_system, over_algebra), A.ambient


def test_an_algebra_built_from_a_basis_alone_decomposes(seven_blocks):
    W = seven_blocks[1]
    bare = CStarAlgebra(space=W.algebra.space)
    assert bare.powers == ()
    assert wedderburn_decompose(bare).blocks == W.blocks


def kron_rows(left, right):
    """``I (x) r^T - l (x) I`` stacked one ``np.kron`` pair at a time, as the
    commutant and the Schur intertwiners were solved before the broadcast."""
    eye = np.eye(left.shape[1])
    return np.concatenate(
        [np.kron(eye, r.T) - np.kron(l, eye) for l, r in zip(left, right)], axis=0
    )


def test_sylvester_rows_match_the_kron_loop_bit_for_bit(wedderburn, seven_blocks):
    rng = np.random.default_rng(5)
    stacks = [wedderburn(name)[0].space.basis for name in ("state_sum", "full_M3", "jordan_M4_k2")]
    stacks.append(seven_blocks[1].algebra.powers[0].basis)
    for d in (1, 2, 3, 8):
        pair = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
        # signed zeros: the products np.kron forms keep their signs
        pair[0, 0] = np.where(rng.random((d, d)) < 0.5, -0.0, pair[0, 0])
        pair[1, 1] = pair[1, 1].real - 0j
        stacks.append(pair)
    for stack in stacks:
        left, right = (stack[0], stack[1]) if stack.ndim == 4 else (stack, stack)
        assert _sylvester_rows(left, right).tobytes() == kron_rows(left, right).tobytes()


def test_svd_bases_are_orthonormal_and_span_the_same_rows(
    entries, system, wedderburn, pair_analyses
):
    # commutant, subspace_intersection and null_space keep their SVD rows as
    # the basis; span_of of the same rows, the basis they replaced, spans
    # the same subspace
    spaces = []
    for name in entries:
        E, (A, W) = system(name), wedderburn(name)
        comm = commutant(E.space)
        spaces += [comm, commutant(A.space), subspace_intersection(A.space, comm)]
        for ideal in enumerate_ideals(W)[:8]:
            spaces.append(as_linear_map(quotient_map(ideal), A.space).null_space())
    for a, b in standard_pairs(entries):
        fac = pair_analyses(a, b).factorization
        q = [
            as_linear_map(quotient_map(env.ideal), env.algebra.space)
            for env in (fac.left_envelope, fac.right_envelope)
        ]
        spaces.append(tensor_map(*q).null_space())
    assert sum(s.dim > 0 for s in spaces) >= 90
    for s in spaces:
        assert orthonormality_residual(s.basis) <= 1e-13
        again = span_of(s.basis, s.ambient)
        assert again.dim == s.dim and subspace_equal(again, s)


def test_full_matrix_algebras_have_the_identity_gauge(entries, analyses):
    # an algebra of dimension n^2 is M_n: u is the identity bit for bit, so
    # its one block's witness, the unit, does not move with rounding, and
    # reordering the generators leaves both as they are; the identity left
    # inverse kills nothing and has no parts
    full = [
        name
        for name, e in entries.items()
        if analyses(name).algebra.dim == e.spec.ambient_dim**2
    ]
    assert len(full) >= 12
    for name in full:
        spec = entries[name].spec
        n = spec.ambient_dim
        reordered = opsys_from_generators(n, spec.generators[::-1], label=name)
        for sa in (analyses(name), analyze_system(reordered, name=name)):
            assert sa.wedderburn.blocks == ((n, 1),), name
            assert np.array_equal(sa.wedderburn.u, np.eye(n)), name
            assert sa.lattice_certificate.witness == {}, name
            ((unit,),) = [b.witness for b in sa.dk_certificate.per_block]
            assert unit.tobytes() == np.eye(n, dtype=complex).tobytes(), name
