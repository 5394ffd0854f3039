"""Tensor products: pair blocks, kernel ideals, and the quotient identities."""
import itertools
import re
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from cstarenv import boundary, linalg
from cstarenv.analysis import analyze_pair, analyze_system
from cstarenv.corpus import corpus_entries, standard_pairs
from cstarenv.errors import InputError, StructuralError, VerificationError
from cstarenv.linalg import (
    DEFAULT_TOL,
    MatSubspace,
    hermitian_basis,
    subspace_contains,
    subspace_equal,
)
from cstarenv.opsys import CStarAlgebra, generated_cstar, opsys_from_generators
from cstarenv.specio import opsys_of, spec_digest
from cstarenv.tensor import (
    _chain_certifies,
    _pair_permutation,
    _verified_power_chain,
    kernel_of_tensor_quotients,
    min_tensor,
    product_blocks,
    subspace_kron,
    verify_envelope_tensor_factorization,
)
from cstarenv.wedderburn import (
    BlockIdeal,
    quotient_map,
    wedderburn_decompose,
)

from _oracles import (
    as_linear_map,
    check_pattern_bounds,
    compression,
    concrete_power_chain,
    gram_schmidt_system_space,
    ideal_subspace,
    indefinite_null_shift,
    match_by_intertwiner,
    orthonormality_residual,
    pair_permutation_loop,
    pattern_residuals,
    searched_product_envelope,
    seeded_unitary,
    tensor_map,
)


@pytest.fixture(scope="module")
def pair_P(wedderburn):
    _, W = wedderburn("state_sum")
    return product_blocks(W, W)


def random_in(rng, space):
    c = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return np.einsum("k,kij->ij", c, space.basis)


def test_subspace_kron_basis(system):
    s = system("state_sum").space
    t = system("jordan_M2").space
    prod = subspace_kron(s, t)
    assert prod.ambient == s.ambient * t.ambient
    assert prod.dim == s.dim * t.dim
    flat = prod.basis.reshape(prod.dim, -1)
    gram = flat @ flat.conj().T
    assert np.abs(gram - np.eye(prod.dim)).max() < 1e-10
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = np.kron(random_in(rng, s), random_in(rng, t))
        assert subspace_contains(prod, x, DEFAULT_TOL)


def test_min_tensor_is_an_operator_system(system):
    T = min_tensor(system("state_sum"), system("jordan_M2"))
    assert T.product.space.ambient == 6
    assert T.product.space.dim == system("state_sum").space.dim * system("jordan_M2").space.dim
    # unital by construction: 1 ⊗ 1 is in the Kronecker basis's span
    assert subspace_contains(T.product.space, np.eye(6, dtype=complex), DEFAULT_TOL)


def test_every_product_up_to_ambient_9_passes_validation(entries, system):
    # min_tensor does not validate the product, which is an operator system
    # by construction; validate stays the reference, on every ordered pair
    # of the seed-1 corpus up to product ambient 9
    names = sorted(entries)
    checked = 0
    for a, b in itertools.product(names, repeat=2):
        E, F = system(a), system(b)
        if E.ambient * F.ambient <= 9:
            min_tensor(E, F).product.validate(DEFAULT_TOL)
            checked += 1
    assert checked >= 200, checked


def test_tensor_map_on_elementary_tensors(wedderburn):
    _, W = wedderburn("state_sum")
    qI = as_linear_map(quotient_map(BlockIdeal(W, frozenset({2}))), W.algebra.space)
    qJ = as_linear_map(quotient_map(BlockIdeal(W, frozenset())), W.algebra.space)
    tm = tensor_map(qI, qJ)
    rng = np.random.default_rng(6)
    for _ in range(8):
        a = random_in(rng, W.algebra.space)
        b = random_in(rng, W.algebra.space)
        got = tm.apply(np.kron(a, b))
        want = np.kron(qI.apply(a), qJ.apply(b))
        assert np.abs(got - want).max() < 1e-9


def test_product_blocks_of_a_state_sum_square(pair_P):
    P = pair_P
    assert P.wedderburn.blocks == ((4, 1), (2, 1), (2, 1), (1, 1))
    assert P.pairs == ((1, 1), (1, 2), (2, 1), (2, 2))
    for label, pair in enumerate(P.pairs, start=1):
        assert P.label_of(pair) == label
        assert P.pair_of(label) == pair
    with pytest.raises(InputError):
        P.label_of((3, 1))
    with pytest.raises(InputError):
        P.pair_of(5)
    # a decomposition of the product algebra from scratch finds the same
    # blocks, one to one and with the same shapes
    direct = wedderburn_decompose(P.wedderburn.algebra)
    matches = match_by_intertwiner(P.wedderburn, direct)
    assert [direct.blocks[t - 1] for t in matches] == list(P.wedderburn.blocks)


def test_pair_blocks_match_a_direct_decomposition(entries, system, wedderburn):
    # the pair decomposition stands on its block pattern alone; a second
    # decomposition of the tensor system's generated algebra, matched by
    # intertwiners, finds exactly the pair blocks on every standard pair, and
    # the all-pairs closure and multiplicativity checks stay within the
    # bounds the pattern proves
    pairs = standard_pairs(entries)
    assert len(pairs) == 9 and ("state_sum", "state_sum") in pairs
    for left, right in pairs:
        P = product_blocks(wedderburn(left)[1], wedderburn(right)[1])
        check_pattern_bounds(P.wedderburn, (left, right))
        T = min_tensor(system(left), system(right))
        direct = wedderburn_decompose(generated_cstar(T.product))
        matches = match_by_intertwiner(P.wedderburn, direct)
        shapes = [direct.blocks[t - 1] for t in matches]
        assert shapes == list(P.wedderburn.blocks), (left, right)


def _swap_block_1_rows(W):
    u = W.u.copy()
    u[[0, 1]] = u[[1, 0]]
    return replace(W, u=u)


def _transpose_block_1_irreps(W):
    return replace(W, irreps=(W.irreps[0].transpose(0, 2, 1), *W.irreps[1:]))


@pytest.mark.parametrize("tamper", [_swap_block_1_rows, _transpose_block_1_irreps])
def test_product_blocks_rejects_a_broken_pair_decomposition(wedderburn, tamper):
    # block 1 of state_sum is 2-dimensional: swapping its two rows of u, or
    # transposing its irreps, breaks the pattern u x u* = ⊕ 1 (x) ρ(x) that
    # the structural validation, the pair decomposition's only certificate,
    # demands.  The replaced copy recomputes its own pattern residuals, and
    # the product's bound, derived from them, fails
    _, W = wedderburn("state_sum")
    assert W.blocks[0] == (2, 1)
    broken = tamper(W)
    _, W_jordan = wedderburn("jordan_M2")
    with pytest.raises(StructuralError, match="pair decomposition failed structural validation"):
        product_blocks(broken, W_jordan)


def _rotate_rows(u, i, j, angle):
    c, s = np.cos(angle), np.sin(angle)
    rotated = u.copy()
    rotated[[i, j]] = np.array([[c, -s], [s, c]]) @ u[[i, j]]
    return rotated


def test_a_slightly_rotated_factor_unitary_fails_the_pair(analyses):
    # a rotation by 1e-4 between a row of state_sum's 2-dimensional block and
    # its scalar block keeps u unitary but moves the pattern by about 1e-4,
    # far past the acceptance tolerance: the product's derived bound reads
    # the rotated copy's own residuals, never the original's, and the pair
    # fails with the rotated factor on either side
    env, other = analyses("state_sum").envelope, analyses("jordan_M2").envelope
    W = env.wedderburn
    rotated = replace(W, u=_rotate_rows(W.u, 0, 2, 1e-4))
    delta, eta = rotated.pattern_residuals
    assert delta < 1e-14 and eta > 5e-5
    assert W.pattern_residuals[1] < 1e-12
    for left, right in ((rotated, other.wedderburn), (other.wedderburn, rotated), (rotated, rotated)):
        with pytest.raises(StructuralError, match="failed structural validation"):
            product_blocks(left, right)
    product_blocks(W, other.wedderburn)
    broken = replace(env, wedderburn=rotated)
    for left, right in ((broken, other), (other, broken)):
        with pytest.raises(StructuralError, match="failed structural validation"):
            verify_envelope_tensor_factorization(left, right)


def test_the_derived_pattern_bound_covers_the_concrete_residuals(entries, wedderburn):
    # the pair decomposition keeps a (δ, η) derived from the factors'; the
    # product-size check it replaced, recomputed from the raw arrays, never
    # exceeds it on the standard pairs
    for left, right in standard_pairs(entries):
        P = product_blocks(wedderburn(left)[1], wedderburn(right)[1])
        delta, eta = P.wedderburn.pattern_residuals
        want_delta, want_eta = pattern_residuals(P.wedderburn)
        assert want_delta <= delta + 1e-15 and want_eta <= eta + 1e-15, (left, right)
        assert delta + eta < 1e-12, (left, right)


def test_pair_permutation_matches_the_loop(entries, wedderburn):
    # the broadcast permutation is the four nested loops' on every seed-1
    # factor pair up to product ambient 12, and on compressions whose one
    # block has multiplicity 2 or 3
    factors = {name: wedderburn(name)[1] for name in entries}
    for args in ((1, 2, 1, 2), (2, 2, 2, 4), (1, 3, 1, 2)):
        factors[f"compression{args}"] = wedderburn_decompose(
            generated_cstar(compression(*args))
        )
    assert {W.blocks for W in factors.values()} >= {((2, 2),), ((2, 3),)}
    tried = 0
    for (a, W_A), (b, W_B) in itertools.product(factors.items(), repeat=2):
        if W_A.ambient * W_B.ambient > 12:
            continue
        order = sorted(itertools.product(W_A.labels, W_B.labels), key=lambda ij: ij[::-1])
        got = _pair_permutation(W_A, W_B, order)
        want = pair_permutation_loop(W_A, W_B, order)
        assert got.dtype == want.dtype and np.array_equal(got, want), (a, b)
        assert np.array_equal(np.sort(got), np.arange(W_A.ambient * W_B.ambient)), (a, b)
        tried += 1
    assert tried > 100


def test_product_blocks_forms_no_basis_products(wedderburn):
    # full_M3 (x) jordan_M4_k2: ambient 12, an algebra of dimension 144.  Its
    # 144² basis products need hundreds of MiB; the block pattern needs the
    # 144 conjugated basis elements, about 2 MiB at peak
    left, right = wedderburn("full_M3")[1], wedderburn("jordan_M4_k2")[1]
    tracemalloc.start()
    try:
        product_blocks(left, right)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def test_product_irreps_are_tensors_of_factor_irreps(pair_P):
    P = pair_P
    W = P.left
    rng = np.random.default_rng(7)
    for _ in range(6):
        a = random_in(rng, W.algebra.space)
        b = random_in(rng, W.algebra.space)
        x = np.kron(a, b)
        for label, (i, j) in enumerate(P.pairs, start=1):
            got = P.wedderburn.irrep_apply(label, x)
            want = np.kron(W.irrep_apply(i, a), P.right.irrep_apply(j, b))
            assert np.abs(got - want).max() < 1e-8
            tr = np.trace(W.irrep_apply(i, a)) * np.trace(P.right.irrep_apply(j, b))
            assert np.trace(got) == pytest.approx(tr, abs=1e-8)


def test_kernel_killed_set_formula(pair_P):
    P = pair_P
    labels = (1, 2)
    subsets = [frozenset(s) for r in range(3) for s in itertools.combinations(labels, r)]
    for kI, kJ in itertools.product(subsets, subsets):
        K = kernel_of_tensor_quotients(
            P, BlockIdeal(P.left, kI), BlockIdeal(P.right, kJ)
        )
        expect = frozenset(
            label
            for label, (i, j) in enumerate(P.pairs, start=1)
            if i in kI or j in kJ
        )
        assert K.killed == expect, (sorted(kI), sorted(kJ))


def test_kernel_ideal_annihilates_under_the_tensored_quotient(pair_P):
    P = pair_P
    I = BlockIdeal(P.left, frozenset({1}))
    J = BlockIdeal(P.right, frozenset({2}))
    K = kernel_of_tensor_quotients(P, I, J)
    qI = as_linear_map(quotient_map(I), P.left.algebra.space)
    qJ = as_linear_map(quotient_map(J), P.right.algebra.space)
    tm = tensor_map(qI, qJ)
    sub = ideal_subspace(K, DEFAULT_TOL)
    assert sub.dim > 0
    for b in sub.basis:
        assert np.linalg.norm(tm.apply(b)) < 1e-9


def test_kernel_rejects_foreign_ideals(pair_P, wedderburn):
    _, W_other = wedderburn("jordan_M2")
    with pytest.raises(InputError):
        kernel_of_tensor_quotients(
            pair_P,
            BlockIdeal(W_other, frozenset()),
            BlockIdeal(pair_P.right, frozenset()),
        )


def test_factorization_report_on_a_mixed_pair(pair_analyses):
    rep = pair_analyses("state_sum", "jordan_M2").factorization
    assert rep.verified
    assert rep.algebra_factors and rep.subspace_contained
    assert rep.killed_match and rep.dims_match
    assert rep.left_killed == frozenset({2})
    assert rep.right_killed == frozenset()
    assert rep.expected_killed_pairs == frozenset({(2, 1)})
    assert rep.product_killed_pairs == frozenset({(2, 1)})
    assert rep.envelope_dims == (4,)


def test_factorization_report_on_a_state_sum_square(pair_analyses):
    rep = pair_analyses("state_sum", "state_sum").factorization
    assert rep.verified
    assert rep.expected_killed_pairs == frozenset({(1, 2), (2, 1), (2, 2)})
    assert rep.product_killed_pairs == rep.expected_killed_pairs
    assert rep.envelope_dims == (4,)


def test_boundary_pairs_stay_boundary(pair_analyses):
    for pair in (("state_sum", "jordan_M2"), ("state_sum", "state_sum")):
        rep = pair_analyses(*pair).boundary_pairs
        assert rep.verified and rep.closed
        assert rep.expected_pairs <= rep.product_boundary
        assert rep.left_boundary == frozenset({1})
        assert rep.right_boundary == frozenset({1})


@pytest.fixture(scope="module")
def seed3_analyses():
    entries = {e.spec.name: e for e in corpus_entries(seed=3, count=20)}
    names = ("state_sum", "state_sum_s2", "random_01", "random_07")
    return {
        name: analyze_system(opsys_of(entries[name].spec, DEFAULT_TOL), name=name)
        for name in names
    }


@pytest.mark.parametrize(
    "left, right",
    [("state_sum_s2", "random_01"), ("random_07", "state_sum"), ("random_07", "state_sum_s2")],
)
def test_frontier_pairs_of_corpus_seed_3_verify(seed3_analyses, left, right):
    # a state sum's non-boundary scalar block against a factor with a
    # 3-dimensional boundary block: the pair block (scalar, 3-dimensional)
    # is killed, and its witness is read off the product's left inverse;
    # every kept pair block is certified by its singleton's norm drop
    pa = analyze_pair(seed3_analyses[left], seed3_analyses[right])
    assert pa.verified
    rep = pa.factorization
    assert rep.product_killed_pairs == rep.expected_killed_pairs != frozenset()
    for b in rep.product_envelope.dk_certificate.per_block:
        assert b.method == ("norm-drop" if b.unique else "left-inverse"), b


def test_state_sum_times_state_sum_s3_verifies(pair_analyses):
    # the product's lattice search on this pair once stalled on a low-rank
    # face of the cone and ended undecided (exit 3)
    pa = pair_analyses("state_sum", "state_sum_s3")
    assert pa.verified
    rep = pa.factorization
    assert rep.product_killed_pairs == rep.expected_killed_pairs != frozenset()


@pytest.mark.parametrize("left, right", [("state_sum", "random_01"), ("random_01", "state_sum")])
def test_a_witness_past_the_cone_by_the_search_tolerance_verifies(pair_analyses, left, right):
    # the killed pair block's witness, exactly projected onto the affine set,
    # would have least Choi eigenvalue -1.014e-9 against tol_psd = 1e-9: the
    # lattice search's own stopping residual.  It is not projected: the
    # checked left inverse decides the block, and the witness keeps its
    # distance sqrt(d^2 + sum_j |candidate_j|^2) = 3 sqrt(2)
    pa = pair_analyses(left, right)
    assert pa.verified
    per_block = pa.factorization.product_envelope.dk_certificate.per_block
    (killed,) = [b for b in per_block if not b.unique]
    assert (killed.label, killed.method) == (2, "left-inverse")
    assert killed.separation == pytest.approx(3 * np.sqrt(2), rel=1e-6)


ORACLE_PAIRS = [
    ("state_sum", "state_sum_s3"),
    ("jordan_M4_k1", "state_sum_s2"),
    ("full_M3", "state_sum_s3"),
    ("compression", "state_sum"),
]


def test_pairs_run_no_lattice_search_probe_or_feasibility_search(
    entries, analyses, system, config, monkeypatch
):
    # the product's certificate is built from the factors' and checked: a
    # pair runs no lattice search, no norm-drop probe and no feasibility
    # search, while a single system still runs all three
    pairs = standard_pairs(entries) + ORACLE_PAIRS[:2]
    factors = {name: analyses(name) for pair in pairs for name in pair}
    calls = Counter()
    for name in ("silov_ideal_lattice", "falsify_complete_isometry", "ucp_feasibility"):

        def counted(*args, _real=getattr(boundary, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(boundary, name, counted)
    for a, b in pairs:
        assert analyze_pair(factors[a], factors[b], config).verified, (a, b)
    assert calls == Counter()
    analyze_system(system("state_sum_s3"), config)
    assert calls["silov_ideal_lattice"] == 1
    assert calls["falsify_complete_isometry"] == 2 and calls["ucp_feasibility"] == 1


@pytest.fixture(scope="module")
def compression_analysis():
    # blocks (3, 1) and (2, 1), the 2-dimensional one killed
    return analyze_system(compression(1, 3, 1, 2), name="compression")


def test_tensored_certificate_matches_the_searched_route(
    entries, analyses, config, compression_analysis, one_blas_thread
):
    # the searched route the product once ran is the oracle: it finds the
    # same Šilov ideal and the same boundary blocks, and the same passing
    # and failing ideals.  The kernel's labels span the null space of the
    # tensored quotient map, the cross-check the pair's block pattern
    # replaced
    def factor(name):
        return compression_analysis if name == "compression" else analyses(name)

    for a, b in standard_pairs(entries) + ORACLE_PAIRS:
        pa = analyze_pair(factor(a), factor(b), config)
        fac = pa.factorization
        env = fac.product_envelope
        searched = searched_product_envelope(fac, config.tol)
        assert searched.ideal.killed == env.ideal.killed, (a, b)
        assert searched.boundary_labels == env.boundary_labels, (a, b)
        got, want = env.lattice_certificate, searched.lattice_certificate
        assert (got.passing, got.failing) == (want.passing, want.failing), (a, b)
        assert got.iterations == 0
        factor_envs = (fac.left_envelope, fac.right_envelope)
        q = [as_linear_map(quotient_map(e.ideal), e.algebra.space) for e in factor_envs]
        K = kernel_of_tensor_quotients(fac.blocks, *(e.ideal for e in factor_envs))
        assert subspace_equal(ideal_subspace(K), tensor_map(*q).null_space()), (a, b)
    assert compression_analysis.silov_lattice == {2}
    assert compression_analysis.wedderburn.blocks == ((3, 1), (2, 1))


def test_a_pair_whose_search_stalls_verifies(analyses, config, one_blas_thread):
    # on this compression times state_sum the searched route ends undecided
    # (its residual plateaus near 1.8e-6 for 8000 steps); the product's
    # certificate is built from the factors', which decided theirs
    left = analyze_system(compression(3, 3, 1, 2), name="compression")
    pa = analyze_pair(left, analyses("state_sum"), config)
    assert pa.verified
    fac = pa.factorization
    assert fac.product_killed_pairs == fac.expected_killed_pairs == {(1, 2), (2, 1), (2, 2)}


def test_a_scaled_factor_left_inverse_fails_for_the_product_ideal(analyses):
    # the tensored left inverse is checked on the concrete product: a factor
    # part scaled by 1.01 no longer interpolates it
    env_E, env_F = analyses("state_sum").envelope, analyses("jordan_M2").envelope
    lattice = env_E.lattice_certificate
    witness = {i: tuple(1.01 * c for c in parts) for i, parts in lattice.witness.items()}
    assert len(witness) == 1
    broken = replace(env_E, lattice_certificate=replace(lattice, witness=witness))
    P = product_blocks(env_E.wedderburn, env_F.wedderburn)
    K = kernel_of_tensor_quotients(P, env_E.ideal, env_F.ideal)
    assert sorted(K.killed) == [P.label_of((2, 1))]
    message = f"left inverse for the ideal {sorted(K.killed)} fails to interpolate"
    with pytest.raises(VerificationError, match=re.escape(message)):
        verify_envelope_tensor_factorization(broken, env_F)
    with pytest.raises(VerificationError, match="fails to interpolate"):
        verify_envelope_tensor_factorization(env_F, broken)


def test_a_factor_part_with_a_negative_eigenvalue_fails_the_pair(analyses):
    # the shifted factor part still interpolates on the product, but its
    # Kronecker products with the other factor's parts are indefinite
    env_E, env_F = analyses("state_sum").envelope, analyses("jordan_M2").envelope
    lattice = env_E.lattice_certificate
    E, W = env_E.system, env_E.wedderburn
    witness = indefinite_null_shift(E, W, lattice.maximal, lattice.witness)
    broken = replace(env_E, lattice_certificate=replace(lattice, witness=witness))
    P = product_blocks(env_E.wedderburn, env_F.wedderburn)
    K = kernel_of_tensor_quotients(P, env_E.ideal, env_F.ideal)
    message = f"left inverse for the ideal {sorted(K.killed)} is not completely positive"
    for pair in ((broken, env_F), (env_F, broken)):
        with pytest.raises(VerificationError, match=re.escape(message)):
            verify_envelope_tensor_factorization(*pair)
    # the intact factors pass
    assert verify_envelope_tensor_factorization(env_E, env_F).verified


def test_a_pair_checks_one_choi_part_per_killed_and_kept_pair_block(
    entries, analyses, config, monkeypatch
):
    # a pair with nothing killed carries and checks no Choi block; any other
    # checks one small part per killed and kept pair block, none of ambient
    # size
    pairs = standard_pairs(entries)
    factors = {name: analyses(name) for pair in pairs for name in pair}
    shapes = []
    real = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    seen = Counter()
    for a, b in pairs:
        shapes.clear()
        env = analyze_pair(factors[a], factors[b], config).factorization.product_envelope
        W, killed = env.wedderburn, env.ideal.killed
        kept = [j for j in W.labels if j not in killed]
        want = [
            (W.blocks[j - 1][0] * W.blocks[i - 1][0],) * 2 for i in sorted(killed) for j in kept
        ]
        assert shapes == want, (a, b)
        assert [len(env.lattice_certificate.witness[i]) for i in sorted(killed)] == [
            len(kept)
        ] * len(killed)
        if not killed:
            assert env.lattice_certificate.witness == {}
            assert (env.isometry.residual, env.isometry.min_eig) == (0.0, 0.0)
        seen[bool(killed)] += 1
    assert seen[True] >= 2 and seen[False] >= 2, seen


def test_a_kept_factor_witness_without_a_drop_fails_the_pair_block(analyses):
    # every kept pair's drop is re-checked on the product: the identity in
    # place of the kept block's witness keeps its norm in the other block
    env = analyses("state_sum").envelope
    dk = env.dk_certificate
    (kept,) = [b for b in dk.per_block if b.unique]
    identity = replace(kept, witness=[np.eye(env.system.ambient, dtype=complex)])
    per_block = tuple(identity if b is kept else b for b in dk.per_block)
    broken = replace(env, dk_certificate=replace(dk, per_block=per_block))
    P = product_blocks(env.wedderburn, env.wedderburn)
    label = P.label_of((kept.label, kept.label))
    message = rf"block {label} \(kept by the lattice route\): the witness shows no norm drop"
    with pytest.raises(VerificationError, match=message):
        verify_envelope_tensor_factorization(broken, env)
    with pytest.raises(VerificationError, match=message):
        verify_envelope_tensor_factorization(env, broken)


def _pair_verdicts(pa):
    """What a pair analysis says about the two spans: the killed and the
    boundary pairs, the product's propagation number and every check's
    verdict."""
    return (
        pa.factorization.product_killed_pairs,
        pa.boundary_pairs.product_boundary,
        pa.prop_max.product.value,
        tuple(c.verified for c in (pa.factorization, pa.boundary_pairs, pa.power, pa.prop_max)),
    )


@pytest.mark.parametrize("left, right", [("state_sum", "jordan_M2"), ("state_sum", "state_sum")])
def test_pair_verdicts_ignore_the_presentation_of_a_factor(entries, analyses, config, left, right):
    # a factor conjugated by a seeded unitary, or given by rescaled and
    # reordered generators, spans a system with the same invariants, so
    # the pair's verdicts, with that factor on either side, cannot change
    expected = [
        _pair_verdicts(analyze_pair(analyses(a), analyses(b), config))
        for a, b in ((left, right), (right, left))
    ]
    gens = [np.asarray(g) for g in entries[left].spec.generators]
    n = gens[0].shape[0]
    V = seeded_unitary(n, 17)
    variants = {
        "conjugated": [V @ g @ V.conj().T for g in gens],
        "rescaled and reordered": [2.5 * g for g in gens[::-1]],
    }
    for kind, variant in variants.items():
        sa = analyze_system(opsys_from_generators(n, variant), config, name=left)
        got = [
            _pair_verdicts(analyze_pair(sa, analyses(right), config)),
            _pair_verdicts(analyze_pair(analyses(right), sa, config)),
        ]
        assert got == expected, kind


def test_products_store_a_bitwise_hermitian_basis(entries, system):
    # the tensor of the factors' bitwise-Hermitian bases is one, and it
    # spans what the kernel's Hermitian basis of the tensor of the factors'
    # Gram–Schmidt spans does
    old = {
        name: gram_schmidt_system_space(e.spec.ambient_dim, e.spec.generators)
        for name, e in entries.items()
    }
    pairs = [
        (a, b)
        for a, b in itertools.product(entries, repeat=2)
        if system(a).ambient * system(b).ambient <= 9
    ] + standard_pairs(entries)
    for a, b in pairs:
        space = min_tensor(system(a), system(b)).product.space
        basis = space.basis
        assert np.array_equal(basis, np.conj(basis).transpose(0, 2, 1)), (a, b)
        assert orthonormality_residual(basis) <= 1e-13, (a, b)
        kernel = hermitian_basis(subspace_kron(old[a], old[b]))
        assert subspace_equal(MatSubspace(space.ambient, kernel), space), (a, b)


def test_pairs_run_no_gram_schmidt(entries, analyses, config, monkeypatch):
    # with both factor analyses cached, every basis of a pair is given by
    # structure: the product's Hermitian basis, SVD null spaces and ranks
    pairs = standard_pairs(entries)
    assert len(pairs) == 9
    factors = {name: analyses(name) for pair in pairs for name in pair}
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return kernel(*args, **kwargs)

    kernel = linalg._ordered_gram_schmidt
    monkeypatch.setattr(linalg, "_ordered_gram_schmidt", counted)
    for a, b in pairs:
        assert analyze_pair(factors[a], factors[b], config).verified, (a, b)
    assert calls == []


def test_verified_power_chain_matches_the_generated_chain(entries, system, wedderburn):
    # the chain read off the factor chains and certified from the factor
    # step certificates is the chain generated_cstar builds from the tensor
    # system: the same dimensions and the same subspaces, member by member,
    # on the standard pairs and on every unordered seed-1 pair up to product
    # ambient 9 (the chain treats the two factors alike)
    names = list(entries)
    pairs = set(standard_pairs(entries)) | {
        (left, right)
        for i, left in enumerate(names)
        for right in names[i:]
        if system(left).ambient * system(right).ambient <= 9
    }
    margins = []
    for left, right in sorted(pairs):
        T = min_tensor(system(left), system(right))
        chain, residuals, step_margins = _verified_power_chain(
            T.product.space, wedderburn(left)[0], wedderburn(right)[0]
        )
        assert _chain_certifies(residuals, step_margins, len(chain), DEFAULT_TOL)
        assert chain[0] is T.product.space
        direct = generated_cstar(T.product).powers
        assert [G.dim for G in chain] == [P.dim for P in direct], (left, right)
        for G, P in zip(chain, direct):
            assert subspace_equal(G, P), (left, right)
        margins.extend(step_margins)
    # far from tol_rank: the smallest spanning margin here is 0.025 (0.024
    # by the concrete products it replaced)
    assert min(margins) > 0.01


@pytest.fixture(scope="module")
def chain_factors():
    """Per corpus seed 1–3: name -> (spec digest, system, generated algebra)."""
    out = {}
    for seed in (1, 2, 3):
        out[seed] = {}
        for e in corpus_entries(seed=seed, count=20):
            E = opsys_of(e.spec, DEFAULT_TOL)
            out[seed][e.spec.name] = (spec_digest(e.spec), E, generated_cstar(E))
    return out


def test_the_derived_chain_certificate_bounds_the_concrete_chain(chain_factors, one_blas_thread):
    # on every unordered pair of corpus seeds 1–3 up to product ambient 9 the
    # derived residuals are at least the concrete products' residuals, the
    # verdicts agree, and the derived margins, which leave out G_k's own
    # rows, are within 10^0.2 of the concrete ones.  The structured members
    # are the same in every seed, and a pair of the same two specs is
    # checked once
    seen = set()
    for seed, factors in chain_factors.items():
        names = list(factors)
        for i, left in enumerate(names):
            for right in names[i:]:
                (key_E, E, A), (key_F, F, B) = factors[left], factors[right]
                if E.ambient * F.ambient > 9 or (key_E, key_F) in seen:
                    continue
                seen.add((key_E, key_F))
                S = min_tensor(E, F).product.space
                chain, residuals, margins = _verified_power_chain(S, A, B)
                want_chain, want_residuals, want_margins = concrete_power_chain(
                    S, A.powers, B.powers
                )
                label = (seed, left, right)
                assert [G.dim for G in chain] == [G.dim for G in want_chain], label
                assert all(r >= w - 1e-15 for r, w in zip(residuals, want_residuals)), label
                verdict = _chain_certifies(residuals, margins, len(chain), DEFAULT_TOL)
                want = _chain_certifies(
                    want_residuals, want_margins, len(want_chain), DEFAULT_TOL
                )
                assert verdict == want, label
                ratios = np.log10(np.asarray(margins) / np.asarray(want_margins))
                assert np.all(np.abs(ratios) <= 0.2), (label, margins, want_margins)
    assert len(seen) > 250


def test_the_probe_catches_a_system_off_the_factor_chains(entries, system, wedderburn):
    # the derived bounds read only the factor chains, so a tensor system
    # that does not lie in them passes those bounds; the concrete probe g·s
    # is what fails it.  Here E is state_sum conjugated by a seeded unitary,
    # outside state_sum's block-diagonal chain, next to state_sum's algebra
    A = wedderburn("state_sum")[0]
    B = wedderburn("jordan_M2")[0]
    gens = [np.asarray(g) for g in entries["state_sum"].spec.generators]
    V = seeded_unitary(gens[0].shape[0], 17)
    moved = opsys_from_generators(gens[0].shape[0], [V @ g @ V.conj().T for g in gens])
    for E, certified in ((system("state_sum"), True), (moved, False)):
        S = min_tensor(E, system("jordan_M2")).product.space
        chain, residuals, margins = _verified_power_chain(S, A, B)
        assert _chain_certifies(residuals, margins, len(chain), DEFAULT_TOL) is certified
    assert max(residuals) > 1e-3


def _drop_last_power(powers):
    return powers[:-1]


def _square_is_the_system(powers):
    return (powers[0], powers[0], *powers[2:])


def _drop_a_basis_element(powers):
    square = powers[1]
    return (powers[0], MatSubspace(square.ambient, square.basis[:-1]), *powers[2:])


def _square_is_the_algebra(powers):
    return (powers[0], powers[-1], *powers[2:])


def _assert_the_pair_fails(analyses, left, tamper):
    env = analyses(left).envelope
    broken = replace(env, algebra=replace(env.algebra, powers=tamper(env.algebra.powers)))
    other = analyses("jordan_M2").envelope
    T = min_tensor(broken.system, other.system)
    derived = _verified_power_chain(T.product.space, broken.algebra, other.algebra)
    concrete = concrete_power_chain(T.product.space, broken.algebra.powers, other.algebra.powers)
    for chain, residuals, margins in (derived, concrete):
        assert not _chain_certifies(residuals, margins, len(chain), DEFAULT_TOL)
    # the derived residuals bound every concrete product's, not only the
    # probe's, on a broken chain too
    assert all(r >= w - 1e-12 for r, w in zip(derived[1], concrete[1]))
    with pytest.raises(VerificationError, match="not the tensor of the generated algebras"):
        verify_envelope_tensor_factorization(broken, other)
    with pytest.raises(VerificationError, match="not the tensor of the generated algebras"):
        verify_envelope_tensor_factorization(other, broken)
    return derived[1], derived[2]


@pytest.mark.parametrize("tamper", [_drop_last_power, _square_is_the_system, _drop_a_basis_element])
@pytest.mark.parametrize("left", ["jordan_M2", "jordan_M3_k1"])
def test_a_wrong_factor_chain_fails_the_pair(analyses, left, tamper):
    # the product chain is read off the factor chains; a truncated factor
    # chain, one whose E^2 is E, or one whose E^2 lost a basis element, must
    # fail the derived certificate, the concrete products' certificate it
    # replaced, and the pair, never pass
    _assert_the_pair_fails(analyses, left, tamper)


def test_a_factor_chain_whose_square_is_too_big_fails_the_pair(analyses):
    # jordan_M3_k1's chain is 3, 7, 9: with E^2 replaced by the 9-dimensional
    # algebra every product still lies in the chain, and only the spanning
    # margin, E·E spanning 7 of the 9 dimensions, fails the pair
    residuals, margins = _assert_the_pair_fails(analyses, "jordan_M3_k1", _square_is_the_algebra)
    assert max(residuals) < 1e-13 and min(margins) < 1e-9


def test_a_factor_chain_of_another_system_fails_the_pair(analyses):
    # jordan_M2's chain E, M_2 with E conjugated by a seeded unitary is the
    # chain of another system and certifies itself; the pair must still
    # refuse it, since it does not start at the factor's system
    env = analyses("jordan_M2").envelope
    E = env.algebra.powers[0]
    V = seeded_unitary(E.ambient, 17)
    moved = MatSubspace(E.ambient, np.einsum("ij,kjl,ml->kim", V, E.basis, V.conj()))
    assert not subspace_equal(moved, E)
    broken = replace(env, algebra=replace(env.algebra, powers=(moved, *env.algebra.powers[1:])))
    other = analyses("state_sum").envelope
    T = min_tensor(broken.system, other.system)
    chain, residuals, margins = _verified_power_chain(T.product.space, broken.algebra, other.algebra)
    assert _chain_certifies(residuals, margins, len(chain), DEFAULT_TOL)
    for left, right in ((broken, other), (other, broken)):
        with pytest.raises(VerificationError, match="not the tensor of the generated algebras"):
            verify_envelope_tensor_factorization(left, right)


def test_a_replaced_algebra_never_reuses_the_chain_certificate(analyses):
    # the step certificate is computed on first use from the instance's own
    # chain: a dataclasses.replace copy with a tampered chain starts without
    # it, even after the original's was computed, and computes a failing one
    algebra = analyses("jordan_M3_k1").envelope.algebra
    steps = algebra.power_steps
    assert len(steps) == len(algebra.powers) == 3
    assert all(st.residual < 1e-13 and st.sigma_rank > 0.01 * st.sigma_max for st in steps)
    assert algebra.power_steps is steps
    for tamper in (_drop_last_power, _square_is_the_system, _drop_a_basis_element):
        broken = replace(algebra, powers=tamper(algebra.powers))
        assert "power_steps" not in vars(broken)
        broken_steps = broken.power_steps
        assert broken_steps != steps
        assert max(st.residual for st in broken_steps) > 0.1, tamper.__name__
    # the same chain in a new instance gives the same certificate
    assert replace(algebra).power_steps == steps


def test_a_factor_without_powers_is_a_structural_error(analyses):
    # an algebra built from its basis alone keeps no power chain to read
    env = analyses("jordan_M2").envelope
    bare = replace(env, algebra=CStarAlgebra(space=env.algebra.space))
    with pytest.raises(StructuralError, match="no power-span chain"):
        verify_envelope_tensor_factorization(bare, analyses("full_M2").envelope)
