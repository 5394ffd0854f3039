"""Operator systems and their generated C*-algebras."""
import numpy as np
import pytest

from cstarenv.analysis import analyze_system
from cstarenv.errors import InputError
from cstarenv.linalg import (
    DEFAULT_TOL,
    MatSubspace,
    dagger,
    hermitian_basis,
    span_of,
    subspace_contains,
    subspace_equal,
)
from cstarenv.opsys import OperatorSystem, generated_cstar, opsys_from_generators, product_span

from _oracles import (
    algebra_dim,
    gram_schmidt_system_space,
    orthonormality_residual,
    power_span_dims,
    random_complex,
)


def test_system_contains_unit_generators_and_adjoints():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        gens = [random_complex(rng, n) for _ in range(2)]
        E = opsys_from_generators(n, gens)
        assert subspace_contains(E.space, np.eye(n, dtype=complex))
        for g in gens:
            assert subspace_contains(E.space, g)
            assert subspace_contains(E.space, g.conj().T)


def test_systems_store_a_bitwise_hermitian_basis(entries, system):
    # the stored basis is Hermitian bit for bit, so hermitian_basis returns
    # it as it is; it spans what the Gram–Schmidt span did, and it is the
    # kernel's Hermitian basis of that span
    for name, e in entries.items():
        E = system(name)
        basis = E.space.basis
        assert np.array_equal(basis, np.conj(basis).transpose(0, 2, 1)), name
        assert hermitian_basis(E.space) is basis, name
        assert orthonormality_residual(basis) <= 1e-13, name
        old = gram_schmidt_system_space(e.spec.ambient_dim, e.spec.generators)
        assert old.dim == E.dim and subspace_equal(old, E.space), name
        kernel = MatSubspace(E.ambient, hermitian_basis(old))
        assert subspace_equal(kernel, E.space), name


def test_system_rejects_mismatched_shapes():
    with pytest.raises(InputError):
        opsys_from_generators(2, [np.eye(3)])


def test_validate_rejects_non_unital_and_non_adjoint_closed_spans():
    # the stacked adjoint check decides as the per-element loop of
    # subspace_contains does, on both sides of the tolerance
    rng = np.random.default_rng(4)
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InputError, match="does not contain the identity"):
        OperatorSystem(span_of([e12, e12.T], 2), label="off").validate()
    for eps, closed in ((0.0, True), (1e-12, True), (1e-6, False), (1.0, False)):
        for _ in range(5):
            n = 3
            g = random_complex(rng, n)
            tilt = random_complex(rng, n)
            mats = [np.eye(n), g, dagger(g) + eps * tilt]
            E = OperatorSystem(span_of(mats, n), label="tilted")
            loop = all(subspace_contains(E.space, dagger(b), DEFAULT_TOL) for b in E.space.basis)
            assert loop == closed, eps
            if closed:
                E.validate()
            else:
                with pytest.raises(InputError, match="not adjoint-closed"):
                    E.validate()


def test_system_rejects_non_finite_generators():
    for bad in (np.nan, np.inf):
        with pytest.raises(InputError):
            opsys_from_generators(2, [np.array([[0.0, bad], [0.0, 0.0]])])


@pytest.mark.parametrize("name", ["jordan_M2", "state_sum"])
def test_invariants_do_not_depend_on_generator_scale(entries, name):
    spec = entries[name].spec

    def invariants(scale):
        gens = [scale * np.asarray(g) for g in spec.generators]
        a = analyze_system(opsys_from_generators(spec.ambient_dim, gens))
        return (
            a.system.dim,
            a.wedderburn.blocks,
            a.silov_dk,
            a.silov_lattice,
            a.envelope_block_dims,
            a.prop.chain,
        )

    reference = invariants(1.0)
    for scale in (1e-200, 1e-9, 1e10):
        assert invariants(scale) == reference, scale


def test_generated_algebra_dims_match_closure_oracle(entries, system, wedderburn):
    expected = {
        "full_M1": 1,
        "full_M2": 4,
        "jordan_M2": 4,  # the shift generates everything
        "state_sum": 5,  # M_2 + C corner
        "full_M3": 9,
    }
    for name, dim in expected.items():
        A, _ = wedderburn(name)
        assert A.space.dim == dim, name
    # oracle sweep over the whole corpus, raw numpy closure
    for name, entry in entries.items():
        A, _ = wedderburn(name)
        gens = entry.spec.generators
        assert A.space.dim == algebra_dim(gens, entry.spec.ambient_dim), name


def test_algebra_is_star_closed_and_multiplicative(wedderburn):
    rng = np.random.default_rng(22)
    for name in ("full_M2", "state_sum", "jordan_M3_k2", "random_02"):
        A, _ = wedderburn(name)
        basis = A.space.basis
        for _ in range(10):
            ca = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            cb = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            a = np.tensordot(ca, basis, axes=1)
            b = np.tensordot(cb, basis, axes=1)
            assert subspace_contains(A.space, a @ b)
            assert subspace_contains(A.space, a.conj().T)


def test_algebra_chain_is_strictly_increasing_then_stable(system, wedderburn):
    # the kept powers rise strictly to the algebra, and one more product
    # leaves the last one's dimension unchanged
    for name in ("jordan_M3_k1", "state_sum"):
        A, _ = wedderburn(name)
        dims = [P.dim for P in A.powers]
        assert all(a < b for a, b in zip(dims, dims[1:]))
        assert dims[-1] == A.space.dim
        assert product_span(A.powers[-1], system(name).space).dim == A.space.dim


def power(A, k):
    """The k-th power span kept by ``A``, its last power past stabilization."""
    return A.powers[min(k, len(A.powers)) - 1]


def test_power_span_dims_match_word_oracle(entries, system):
    for name in ("jordan_M2", "state_sum", "jordan_M3_k1", "random_01"):
        entry = entries[name]
        gens = entry.spec.generators
        n = entry.spec.ambient_dim
        dims = power_span_dims(gens, n, 4)
        A = generated_cstar(system(name))
        for k in range(1, 5):
            assert power(A, k).dim == dims[k - 1], (name, k)


def test_power_spans_are_nested(system):
    A = generated_cstar(system("jordan_M4_k1"))
    prev = power(A, 1)
    for k in range(2, 5):
        cur = power(A, k)
        for b in prev.basis:
            assert subspace_contains(cur, b)
        prev = cur


def test_power_one_is_the_system(system):
    E = system("state_sum")
    assert subspace_equal(generated_cstar(E).powers[0], E.space)


def test_system_hermitian_dim_counts(system):
    # dim_R(herm part) equals dim_C for a *-closed span
    E = system("full_M2")
    assert hermitian_basis(E.space).shape[0] == E.space.dim
