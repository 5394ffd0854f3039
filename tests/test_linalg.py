"""Subspace arithmetic and matrix numerics against plain-numpy references."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarenv.corpus import corpus_entries
from cstarenv.linalg import (
    DEFAULT_TOL,
    MatSubspace,
    hermitian_basis,
    hs_inner,
    hs_norm,
    matrix_units,
    op_norm,
    span_of,
    subspace_contains,
    subspace_equal,
    subspace_intersection,
)
from cstarenv.opsys import product_span
from cstarenv.specio import opsys_of
from cstarenv.tensor import subspace_kron

from _oracles import (
    hermitian_part_dim,
    mgs_real_reference,
    mgs_span_reference,
    op_norm_ref,
    random_complex,
    random_herm,
    span_dim,
)

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, width=32)


def small_matrix(draw, n):
    re = draw(st.lists(finite, min_size=n * n, max_size=n * n))
    im = draw(st.lists(finite, min_size=n * n, max_size=n * n))
    return np.array(re).reshape(n, n) + 1j * np.array(im).reshape(n, n)


@st.composite
def matrices(draw, n_min=1, n_max=4):
    n = draw(st.integers(n_min, n_max))
    return small_matrix(draw, n)


@st.composite
def matrix_pairs(draw):
    n = draw(st.integers(1, 3))
    return small_matrix(draw, n), small_matrix(draw, n)


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_op_norm_is_largest_singular_value(a):
    assert op_norm(a) == pytest.approx(op_norm_ref(a), abs=1e-10)


@given(matrix_pairs())
@settings(max_examples=100, deadline=None)
def test_hs_inner_matches_trace_form(pair):
    a, b = pair
    assert hs_inner(a, b) == pytest.approx(np.trace(a.conj().T @ b), abs=1e-9)
    assert hs_norm(a) == pytest.approx(np.sqrt(np.trace(a.conj().T @ a).real), abs=1e-9)


@given(matrix_pairs())
@settings(max_examples=60, deadline=None)
def test_kron_norm_multiplicativity(pair):
    a, b = pair
    assert op_norm(np.kron(a, b)) == pytest.approx(op_norm(a) * op_norm(b), abs=1e-8)


def test_span_dim_matches_rank_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, 7))
        mats = [random_complex(rng, n) for _ in range(k)]
        # throw in an exact linear combination so deficiency actually occurs
        if k >= 2:
            mats.append(0.3 * mats[0] - 1.7 * mats[1])
        s = span_of(mats, n)
        assert s.dim == span_dim(mats)


def test_span_basis_is_orthonormal_and_spans():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        mats = [random_complex(rng, n) for _ in range(int(rng.integers(1, 5)))]
        s = span_of(mats, n)
        gram = np.einsum("aij,bij->ab", s.basis.conj(), s.basis)
        assert np.abs(gram - np.eye(s.dim)).max() < 1e-9
        for m in mats:
            assert subspace_contains(s, m)
        coeffs = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
        combo = sum(c * m for c, m in zip(coeffs, mats))
        assert subspace_contains(s, combo)


def test_containment_rejects_outside_vectors():
    rng = np.random.default_rng(13)
    proper = span_of([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])], 3)
    for _ in range(20):
        x = random_complex(rng, 3)
        # generic matrices have mass outside the diagonal corner
        assert not subspace_contains(proper, x)


def test_intersection_dimension_formula():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        a_mats = [random_complex(rng, n) for _ in range(int(rng.integers(1, 4)))]
        b_mats = [random_complex(rng, n) for _ in range(int(rng.integers(1, 4)))]
        shared = random_complex(rng, n)
        a_mats.append(shared)
        b_mats.append(shared)
        s, t = span_of(a_mats, n), span_of(b_mats, n)
        inter = subspace_intersection(s, t)
        # dim(s cap t) = dim s + dim t - dim(s + t)
        union_dim = span_dim(a_mats + b_mats)
        assert inter.dim == s.dim + t.dim - union_dim
        for k in range(inter.dim):
            assert subspace_contains(s, inter.basis[k])
            assert subspace_contains(t, inter.basis[k])


def test_product_span_matches_pairwise_products():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        s = span_of([random_complex(rng, n) for _ in range(2)], n)
        t = span_of([random_complex(rng, n) for _ in range(2)], n)
        p = product_span(s, t)
        # contract: the result spans s together with all pairwise products
        mats = list(s.basis) + [a @ b for a in s.basis for b in t.basis]
        assert p.dim == span_dim(mats)
        for m in mats:
            assert subspace_contains(p, m)


def test_hermitian_basis_spans_hermitian_part():
    rng = np.random.default_rng(16)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        mats = [random_complex(rng, n) for _ in range(2)]
        mats += [m.conj().T for m in mats] + [np.eye(n, dtype=complex)]
        s = span_of(mats, n)
        h = hermitian_basis(s)
        assert h.shape[0] == hermitian_part_dim(mats, n)
        for k in range(h.shape[0]):
            assert np.abs(h[k] - h[k].conj().T).max() < 1e-9
            assert subspace_contains(s, h[k])


def test_subspace_kron_dims_and_membership():
    rng = np.random.default_rng(17)
    for _ in range(15):
        s = span_of([random_complex(rng, 2) for _ in range(2)], 2)
        t = span_of([random_complex(rng, 3) for _ in range(3)], 3)
        k = subspace_kron(s, t)
        assert k.ambient == 6
        assert k.dim == s.dim * t.dim
        a, b = s.basis[0], t.basis[-1]
        assert subspace_contains(k, np.kron(a, b))


def test_subspace_equal_is_basis_independent():
    rng = np.random.default_rng(18)
    mats = [random_complex(rng, 3) for _ in range(3)]
    s = span_of(mats, 3)
    shuffled = span_of([2.0 * mats[2], mats[0] + mats[1], 1j * mats[1]], 3)
    assert subspace_equal(s, shuffled)
    bigger = span_of(mats + [random_complex(rng, 3)], 3)
    assert not subspace_equal(s, bigger)


def test_matrix_units_are_the_standard_basis():
    units = matrix_units(3)
    assert len(units) == 9
    for k, u in enumerate(units):
        i, j = divmod(k, 3)
        expect = np.zeros((3, 3))
        expect[i, j] = 1.0
        assert np.array_equal(u, expect)


def test_eigensolver_reconstruction_residual():
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        h = random_herm(rng, n)
        w, v = np.linalg.eigh(h)
        assert np.abs(v @ np.diag(w) @ v.conj().T - h).max() < 1e-9 * max(
            1.0, np.abs(h).max()
        )


# --- the ordered Gram-Schmidt kernel against the one-input-at-a-time loop ---


def assert_span_matches_reference(mats, n):
    """Same dimension, same subspace and the same basis rows as the loop."""
    s = span_of(mats, n)
    ref = mgs_span_reference(mats)
    assert s.dim == ref.shape[0]
    assert subspace_equal(s, MatSubspace(n, ref.reshape(-1, n, n)))
    if s.dim:
        assert np.abs(s.vecs() - ref).max() <= 1e-12
    return s


def hermitian_candidates(s):
    """The Hermitian and anti-Hermitian halves of each basis element, in order."""
    out = []
    for b in s.basis:
        out += [(b + b.conj().T) / 2.0, (b - b.conj().T) / 2.0j]
    return out


def assert_hermitian_matches_reference(s):
    h = hermitian_basis(s)
    ref = mgs_real_reference(hermitian_candidates(s))
    assert h.shape[0] == ref.shape[0] == s.dim
    assert np.abs(h.reshape(s.dim, -1) - ref).max() <= 1e-12
    return h


def test_kernel_matches_loop_on_random_inputs():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, n * n + 1))
        s = assert_span_matches_reference([random_complex(rng, n) for _ in range(k)], n)
        assert s.dim == k


def test_kernel_matches_loop_on_duplicates():
    rng = np.random.default_rng(22)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        base = [random_complex(rng, n) for _ in range(int(rng.integers(1, n * n)))]
        mats = list(base)
        mats.insert(1, base[0].copy())  # exact duplicate
        mats.append(base[-1] + 1e-13 * random_complex(rng, n))  # near duplicate
        mats.append(0.5 * base[0] - 2.0j * base[-1])  # exact combination
        s = assert_span_matches_reference(mats, n)
        assert s.dim == len(base)


@pytest.mark.parametrize("factor, joins", [(0.5, False), (2.0, True)])
def test_kernel_matches_loop_at_the_threshold(factor, joins):
    # the cutoff is tol_rank times the largest input norm, here 1 up to 1e-18
    units = matrix_units(2)
    step = factor * DEFAULT_TOL.tol_rank
    mats = [units[0], units[0] + step * units[1], units[2], units[2] + step * units[3]]
    s = assert_span_matches_reference(mats, 2)
    assert s.dim == (4 if joins else 2)


def test_kernel_matches_loop_on_ill_conditioned_inputs():
    # rows of the Hilbert matrix as diagonals: condition numbers up to 1e13,
    # so a rank decision relies on re-orthogonalizing each accepted vector.
    # A direction accepted just above the cutoff is fixed only up to
    # rounding over the cutoff, so only the dimensions are compared.
    dims = []
    for n in range(4, 11):
        hilbert = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
        mats = [np.diag(row).astype(complex) for row in hilbert]
        s = span_of(mats, n)
        assert s.dim == mgs_span_reference(mats).shape[0]
        assert np.abs(s.vecs() @ s.vecs().conj().T - np.eye(s.dim)).max() < 1e-14
        dims.append(s.dim)
    assert dims == [4, 5, 6, 7, 7, 8, 8]


def test_kernel_matches_loop_on_zero_inputs():
    rng = np.random.default_rng(23)
    zero = np.zeros((3, 3), dtype=complex)
    assert span_of([zero, zero], 3).dim == 0
    assert mgs_span_reference([zero, zero]).shape[0] == 0
    mats = [zero, random_complex(rng, 3), zero, random_complex(rng, 3), zero]
    assert assert_span_matches_reference(mats, 3).dim == 2


@pytest.mark.parametrize("scale", [1e-200, 1e10])
def test_kernel_matches_loop_at_extreme_scales(scale):
    # at 1e-200 the row norms of the raw inputs underflow to zero; the kernel
    # rescales by a power of two first, so it finds the SVD rank and the
    # basis the loop gives on the inputs brought back to unit scale
    rng = np.random.default_rng(24)
    base = [random_complex(rng, 3) for _ in range(4)]
    unscaled = base + [base[0] - base[1]]
    s = span_of([scale * m for m in unscaled], 3)
    ref = mgs_span_reference(unscaled)
    assert s.dim == ref.shape[0] == span_dim(unscaled) == 4
    assert np.abs(s.vecs() - ref).max() <= 1e-12


def test_power_of_two_scale_leaves_the_span_bit_identical():
    rng = np.random.default_rng(26)
    mats = [random_complex(rng, 3) for _ in range(5)]
    mats.insert(3, mats[0] + 2 * mats[2])
    s = span_of(mats, 3)
    for k in (-600, -40, 0, 7, 500):
        scaled = [np.ldexp(m.real, k) + 1j * np.ldexp(m.imag, k) for m in mats]
        assert np.array_equal(span_of(scaled, 3).basis, s.basis), k


def test_kernel_matches_loop_past_saturation():
    rng = np.random.default_rng(25)
    for n in (1, 2, 3):
        mats = [random_complex(rng, n) for _ in range(n * n + 5)]
        mats.insert(2, mats[0] + mats[1])
        s = assert_span_matches_reference(mats, n)
        assert s.dim == n * n


def test_kernel_matches_loop_on_corpus_product_spans():
    seen = 0
    for entry in corpus_entries(seed=1, count=20):
        if entry.spec.ambient_dim > 3:
            continue
        E = opsys_of(entry.spec, DEFAULT_TOL).space
        mats = list(E.basis) + [a @ b for a in E.basis for b in E.basis]
        s = assert_span_matches_reference(mats, E.ambient)
        assert subspace_equal(s, product_span(E, E))
        assert_hermitian_matches_reference(E)
        assert_hermitian_matches_reference(s)
        seen += 1
    assert seen >= 8


def test_hermitian_kernel_matches_loop_on_random_inputs():
    rng = np.random.default_rng(26)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        mats = [random_complex(rng, n) for _ in range(int(rng.integers(1, n * n + 1)))]
        mats += [m.conj().T for m in mats]
        mats.insert(1, mats[0] + mats[-1])  # a redundant Hermitian candidate pair
        assert_hermitian_matches_reference(span_of(mats, n))


@st.composite
def low_rank_stacks(draw):
    """Seeded stacks of k matrices in M_n spanning a random r-dimensional space."""
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, n * n))
    k = draw(st.integers(r, r + 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gens = np.stack([random_complex(rng, n) for _ in range(r)])
    coeff = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
    return n, list(np.tensordot(coeff, gens, axes=(1, 0)))


@given(low_rank_stacks())
@settings(max_examples=60, deadline=None)
def test_span_dim_matches_svd_rank_on_low_rank_stacks(stack):
    n, mats = stack
    assert span_of(mats, n).dim == span_dim(mats)


@given(low_rank_stacks())
@settings(max_examples=60, deadline=None)
def test_hermitian_dim_matches_real_rank_on_low_rank_stacks(stack):
    n, mats = stack
    mats = mats + [m.conj().T for m in mats]
    s = span_of(mats, n)
    h = assert_hermitian_matches_reference(s)
    assert h.shape[0] == hermitian_part_dim(mats, n)
