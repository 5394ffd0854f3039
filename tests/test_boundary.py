"""Minimal boundary ideals: the two routes, the norm-drop falsifier, the
envelope and the isometry check of its left inverse.

Verdict-level expectations are frozen from independent hand analysis of the
structured corpus members; witness-carrying results are re-verified from the
raw certificate rather than trusted from the flag.
"""
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarenv import boundary, tensor, ucp
from cstarenv.analysis import analyze_pair
from cstarenv.boundary import (
    _envelope_algebra,
    block_images,
    boundary_representations,
    cstar_envelope,
    falsify_complete_isometry,
    is_boundary_ideal_ucp,
    silov_ideal_dk,
    silov_ideal_lattice,
)
from cstarenv.corpus import corpus_entries, standard_pairs
from cstarenv.errors import InconclusiveError, VerificationError
from cstarenv.linalg import DEFAULT_TOL, hermitian_basis, matrix_units, op_norm, span_of
from cstarenv.opsys import generated_cstar, opsys_from_generators
from cstarenv.specio import opsys_of
from cstarenv.tensor import min_tensor
from cstarenv.wedderburn import (
    BlockIdeal,
    quotient_map,
    wedderburn_decompose,
)

from _oracles import (
    ambient_left_inverse,
    build_left_inverse_spectrahedron,
    compression,
    envelope_algebra_loop,
    enumerate_ideals,
    indefinite_null_shift,
    seeded_unitary,
)

# the scalar summand of every state-sum member is the non-boundary block;
# every other structured member is already its own envelope
EXPECTED_KILLED = {
    "full_M1": frozenset(),
    "full_M2": frozenset(),
    "full_M3": frozenset(),
    "jordan_M2": frozenset(),
    "jordan_M3_k1": frozenset(),
    "jordan_M3_k2": frozenset(),
    "jordan_M4_k1": frozenset(),
    "jordan_M4_k2": frozenset(),
    "jordan_M4_k3": frozenset(),
    "state_sum": frozenset({2}),
    "state_sum_s1": frozenset({2}),
    "state_sum_s2": frozenset({2}),
    "state_sum_s3": frozenset({2}),
}


def interpolation_bound(E):
    """The isometry check's residual bound, ``10·tol_rank·max(1, n)``."""
    return 10 * DEFAULT_TOL.tol_rank * max(1.0, float(E.space.ambient))


def lift_through(q, x, n):
    """Apply ``q`` cellwise to an element of M_m(M_n)."""
    m = x.shape[0] // n
    cells = x.reshape(m, n, m, n)
    t = q.target_dim
    out = np.zeros((m * t, m * t), dtype=complex)
    for k in range(m):
        for l in range(m):
            out[k * t : (k + 1) * t, l * t : (l + 1) * t] = q.apply(cells[k, :, l, :])
    return out


def test_boundary_ideal_methods_on_state_sum(system, wedderburn):
    E = system("state_sum")
    _, W = wedderburn("state_sum")
    data = block_images(E, W, DEFAULT_TOL)
    empty = is_boundary_ideal_ucp(W, data, frozenset())
    assert empty.feasible and empty.method == "identity" and empty.iterations == 0
    # the identity kills nothing, so it has no parts
    assert empty.certificate == {}
    assert_exact_left_inverse(E, W, frozenset(), empty.certificate)

    kill_matrix = is_boundary_ideal_ucp(W, data, frozenset({1}))
    assert not kill_matrix.feasible and kill_matrix.method == "norm-drop"
    assert kill_matrix.residual > 0.5 - DEFAULT_TOL.tol_norm

    kill_scalar = is_boundary_ideal_ucp(W, data, frozenset({2}))
    assert kill_scalar.feasible and kill_scalar.method == "douglas-rachford"
    # one part, from the kept 2-dimensional block to the killed scalar one
    (part,) = kill_scalar.certificate[2]
    assert set(kill_scalar.certificate) == {2} and part.shape == (2, 2)
    assert_exact_left_inverse(E, W, frozenset({2}), kill_scalar.certificate)

    # the unit's norm 1 falls to 0 in the zero quotient
    kill_all = is_boundary_ideal_ucp(W, data, frozenset({1, 2}))
    assert not kill_all.feasible and kill_all.method == "norm-drop"
    (unit,) = kill_all.certificate
    assert np.array_equal(unit, np.eye(E.space.ambient)) and kill_all.residual == 1.0


def test_representation_route_on_state_sum(system, wedderburn):
    E = system("state_sum")
    _, W = wedderburn("state_sum")
    data = block_images(E, W, DEFAULT_TOL)
    ideal, cert = silov_ideal_dk(W, silov_ideal_lattice(W, data)[1])
    assert ideal.killed == frozenset({2})
    assert cert.boundary_labels == frozenset({1})
    assert tuple(b.label for b in cert.per_block) == (1, 2)
    # the kept block carries its singleton's norm-drop matrix, the killed
    # block the Choi tuple read off the left inverse
    kept, killed = cert.per_block
    assert (kept.unique, kept.method, len(kept.witness)) == (True, "norm-drop", 1)
    assert (killed.unique, killed.method, len(killed.witness)) == (False, "left-inverse", 2)


def test_lattice_route_on_state_sum(system, wedderburn):
    E = system("state_sum")
    _, W = wedderburn("state_sum")
    ideal, cert = silov_ideal_lattice(W, block_images(E, W, DEFAULT_TOL))
    assert ideal.killed == frozenset({2})
    assert set(cert.passing) == {frozenset(), frozenset({2})}
    assert set(cert.failing) == {frozenset({1}), frozenset({1, 2})}
    assert cert.maximal == frozenset({2})
    # the maximal passer's witness, one part per killed block, must
    # assemble into an exact CP left inverse
    assert set(cert.witness) == cert.maximal
    assert_exact_left_inverse(E, W, cert.maximal, cert.witness)


def assert_exact_left_inverse(E, W, killed, parts):
    """The parts assemble into an ambient ψ(x) = u*(⊕ 1_{m_i} ⊗ ψ_i(x))u
    that inverts the quotient by ``killed`` on the system within the
    envelope's bound, written in the independent full-target constraints,
    and whose ambient Choi blocks have least eigenvalue at least
    ``-tol_psd``."""
    kept = [j for j in W.labels if j not in killed]
    psi = ambient_left_inverse(W, kept, parts)
    spec = build_left_inverse_spectrahedron(E, W, killed, DEFAULT_TOL)
    n = E.space.ambient
    # constraint c's n² rows are ψ(q(h_c)) − h_c in an orthonormal basis
    rows = (spec.L @ spec.pack_tuple(psi) - spec.rhs).reshape(-1, n * n)
    resid = float(np.max(np.linalg.norm(rows, axis=1)))
    least = min(float(np.linalg.eigvalsh(m)[0]) for m in psi)
    assert resid <= interpolation_bound(E) and least >= -DEFAULT_TOL.tol_psd
    # both within the bounds the envelope's check states from the block
    # residual r, the least part eigenvalue λ and the pattern residuals,
    # up to the rounding of the assembly
    data = block_images(E, W, DEFAULT_TOL)
    r = boundary._interpolation_residual(W, data, killed, parts, DEFAULT_TOL)
    lam = min((float(np.linalg.eigvalsh(c)[0]) for cs in parts.values() for c in cs), default=0)
    delta, eta = W.pattern_residuals
    m, D = max(mult for _, mult in W.blocks), W.algebra.space.dim
    bound = (1 + delta) * (np.sqrt(n) * r + (1 + np.sqrt(m)) * np.sqrt(D) * eta)
    rounding = 64 * np.finfo(float).eps * n
    assert resid <= bound + delta * (2 + delta) + rounding
    assert least >= (1 + delta) * min(0.0, lam) - rounding


@pytest.mark.parametrize(
    "blocks_system", [None, 0, 1], ids=["five_blocks", "blocks_0_k5", "blocks_1_k5"]
)
def test_lattice_route_on_inner_scalars_matches_the_exhaustive_oracle(
    blocks_system, bench_workloads
):
    # g = J_2 (+) diag(scalars inside the numerical range of J_2, the disk of
    # radius 1/2, and one on the unit circle): the inner blocks are killed.
    # Five blocks with three inner scalars, and the two seed-1 systems of the
    # benchmark's blocks workload, seven blocks with five
    if blocks_system is None:
        g = np.zeros((6, 6), dtype=complex)
        g[0, 1] = 1.0
        g[2:, 2:] = np.diag([0.3, -0.2j, 0.25 * np.exp(2j), np.exp(0.7j)])
    else:
        workloads = bench_workloads
        g = workloads.blocks_spec(1, blocks_system, workloads.K_IN).generators[0]
    n = g.shape[0]
    lam = np.diag(g)[2:]
    E = opsys_from_generators(n, [g])
    W = wedderburn_decompose(generated_cstar(E))
    assert W.num_blocks == 1 + lam.size
    inner_labels = frozenset(
        j
        for j in W.labels
        if W.blocks[j - 1][0] == 1 and abs(W.irrep_apply(j, g)[0, 0]) < 0.5
    )
    assert len(inner_labels) == np.count_nonzero(abs(lam) < 0.5) == lam.size - 1

    data = block_images(E, W, DEFAULT_TOL)
    ideal, cert = silov_ideal_lattice(W, data)
    assert ideal.killed == cert.maximal == inner_labels
    # only the trivial ideals, the singletons and their surviving union
    singles = {frozenset({j}) for j in W.labels}
    assert set(cert.passing) == {frozenset(), inner_labels} | {
        s for s in singles if s <= inner_labels
    }
    assert set(cert.failing) == {frozenset(W.labels)} | {
        s for s in singles if not s <= inner_labels
    }

    oracle = {
        i.killed
        for i in enumerate_ideals(W)
        if is_boundary_ideal_ucp(W, data, i.killed).feasible
    }
    assert oracle == {i.killed for i in enumerate_ideals(W) if i.killed <= cert.maximal}

    assert_exact_left_inverse(E, W, cert.maximal, cert.witness)
    # the down-set argument: each passing sub-ideal is certified by the
    # maximal witness's parts for the blocks it kills, with zero parts at
    # the blocks it keeps in addition
    kept = [j for j in W.labels if j not in cert.maximal]
    for killed in cert.passing:
        restricted = {}
        for i in killed:
            by_label = dict(zip(kept, cert.witness[i]))
            d = W.blocks[i - 1][0]
            restricted[i] = tuple(
                by_label.get(j, np.zeros((W.blocks[j - 1][0] * d,) * 2, dtype=complex))
                for j in W.labels
                if j not in killed
            )
        assert_exact_left_inverse(E, W, killed, restricted)


def three_scalar_blocks():
    return opsys_from_generators(3, [np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])])


def jordan_plus_inner_scalar():
    g = np.zeros((3, 3), dtype=complex)
    g[0, 1], g[2, 2] = 1.0, 0.2
    return opsys_from_generators(3, [g])


@pytest.mark.parametrize(
    "make, blocks, expected",
    [(three_scalar_blocks, 3, frozenset()), (jordan_plus_inner_scalar, 2, {2})],
)
def test_lattice_route_fallback_searches_each_singleton(make, blocks, expected, monkeypatch):
    # with a probe that refutes nothing, every singleton is a candidate and
    # their union is the full ideal, which fails: each singleton is then
    # searched on its own, and the union of the passers is the maximum.
    # The ideal and the verdicts are those of the route with the probe
    E = make()
    W = wedderburn_decompose(generated_cstar(E))
    assert W.num_blocks == blocks
    ideal, cert = silov_ideal_lattice(W, block_images(E, W, DEFAULT_TOL))
    assert ideal.killed == expected

    real_probe, real_search = boundary.falsify_complete_isometry, boundary._left_inverse_search
    searched = []

    def refutes_nothing(table, killed, tol=DEFAULT_TOL):
        return replace(real_probe(table, killed, tol), violation=False)

    def recording(W, data, killed, tol):
        searched.append(killed)
        return real_search(W, data, killed, tol)

    monkeypatch.setattr(boundary, "falsify_complete_isometry", refutes_nothing)
    monkeypatch.setattr(boundary, "_left_inverse_search", recording)
    fallback, fallback_cert = silov_ideal_lattice(W, block_images(E, W, DEFAULT_TOL))
    assert searched == [frozenset({j}) for j in W.labels]
    assert fallback.killed == fallback_cert.maximal == expected
    assert fallback_cert.passing == cert.passing
    assert fallback_cert.failing == cert.failing
    assert_exact_left_inverse(E, W, fallback.killed, fallback_cert.witness)
    # a kept block is then certified by the matrix its singleton's affine
    # gap carries: a Hermitian level-d matrix over the system whose image in
    # the quotient is zero, so its norm drops by 1, re-checked from the matrix
    n = E.space.ambient
    for b in boundary_representations(W, fallback_cert).per_block:
        if b.label not in expected:
            refuted = fallback_cert.refutations[b.label]
            assert (b.unique, b.method, b.witness) == (True, "norm-drop", refuted.certificate)
            assert b.separation == pytest.approx(1.0, abs=1e-12)
            assert refuted.residual == pytest.approx(1.0, abs=1e-12)
            (x,) = b.witness
            assert x.shape == (W.blocks[b.label - 1][0] * n,) * 2
            assert np.array_equal(x, x.conj().T) and op_norm(x) == pytest.approx(1.0)
            q = quotient_map(BlockIdeal(W, frozenset({b.label})))
            assert op_norm(lift_through(q, x, n)) < 1e-12


def test_simple_algebras_skip_the_probe_and_the_falsifier(analyses):
    # the one block is refuted like any other kept block: the unit's norm 1
    # falls to 0 in the zero quotient, a re-checked drop of 1
    for name in ("full_M2", "jordan_M2", "random_03"):
        a = analyses(name)
        assert a.wedderburn.num_blocks == 1, name
        (block,) = a.dk_certificate.per_block
        assert block.unique and block.method == "norm-drop" and block.iterations == 0, name
        (unit,) = block.witness
        assert np.array_equal(unit, np.eye(a.system.ambient)) and block.separation == 1.0, name
        # the identity kills nothing, so ψ has no parts and its check reads 0.0
        assert a.lattice_certificate.witness == {}, name
        assert (a.envelope.isometry.residual, a.envelope.isometry.min_eig) == (0.0, 0.0), name
        assert set(a.lattice_certificate.passing) == {frozenset()}, name
        assert set(a.lattice_certificate.failing) == {frozenset({1})}, name


def test_state_sum_still_probes_and_searches(system, config, monkeypatch):
    from cstarenv.analysis import analyze_system

    searched = []
    real = boundary.ucp_feasibility

    def counting(spec, **kwargs):
        searched.append(spec.target_dim)
        return real(spec, **kwargs)

    monkeypatch.setattr(boundary, "ucp_feasibility", counting)
    a = analyze_system(system("state_sum"), config, name="state_sum")
    assert [b.label for b in a.dk_certificate.per_block] == [1, 2]
    assert [b.method for b in a.dk_certificate.per_block] == ["norm-drop", "left-inverse"]
    # the lattice route searched for the left inverse of the one killed
    # scalar block that certifies the quotient, and the envelope re-checked it
    assert searched == [1]
    iso = a.envelope.isometry
    assert iso.residual <= interpolation_bound(a.system)
    assert iso.min_eig >= -DEFAULT_TOL.tol_psd


def test_passing_set_is_downward_closed(system, wedderburn):
    for name in ("state_sum", "state_sum_s3"):
        E = system(name)
        _, W = wedderburn(name)
        _, cert = silov_ideal_lattice(W, block_images(E, W, DEFAULT_TOL))
        passing = set(cert.passing)
        for s in passing:
            for j in s:
                assert s - {j} in passing


def test_falsifier_finds_the_known_norm_drop(system, wedderburn):
    E = system("state_sum")
    _, W = wedderburn("state_sum")
    data = block_images(E, W, DEFAULT_TOL)
    q = quotient_map(BlockIdeal(W, frozenset({1})))
    rep = falsify_complete_isometry(data.norms, frozenset({1}))
    assert rep.violation and rep.level == 1 and rep.iterations == 0
    assert rep.gap > 0.5 - DEFAULT_TOL.tol_norm
    # re-derive the gap from the witness alone
    w = rep.witness
    n = E.space.ambient
    assert w.shape == (rep.level * n, rep.level * n)
    nw = op_norm(w)
    assert nw == pytest.approx(1.0, abs=1e-8)
    gap = 1.0 - op_norm(lift_through(q, w, n)) / nw
    assert gap == pytest.approx(rep.gap, abs=1e-8)
    # the quotient to nothing drops every norm to 0
    rep = falsify_complete_isometry(data.norms, frozenset(W.labels))
    assert rep.violation and rep.gap == 1.0


def test_falsifier_respects_the_true_quotient(system, wedderburn):
    E = system("state_sum")
    _, W = wedderburn("state_sum")
    rep = falsify_complete_isometry(block_images(E, W, DEFAULT_TOL).norms, frozenset({2}))
    assert not rep.violation
    assert rep.gap <= DEFAULT_TOL.tol_norm
    assert rep.levels_searched == (1, 2)


def test_envelope_of_state_sum(system):
    env = cstar_envelope(system("state_sum"))
    assert env.ideal.killed == frozenset({2})
    assert env.boundary_labels == frozenset({1})
    assert env.envelope_block_dims == (2,)
    assert env.quotient.target_dim == 2
    assert env.isometry.residual <= interpolation_bound(env.system)
    assert env.isometry.min_eig >= -DEFAULT_TOL.tol_psd
    # the quotient is isometric on the system at level one
    rng = np.random.default_rng(11)
    for _ in range(25):
        c = rng.standard_normal(env.system.space.dim) + 1j * rng.standard_normal(
            env.system.space.dim
        )
        x = np.einsum("k,kij->ij", c, env.system.space.basis)
        assert op_norm(env.quotient.apply(x)) == pytest.approx(op_norm(x), abs=1e-8)


def test_lattice_witness_is_an_exact_left_inverse(
    entries, analyses, pair_analyses, bench_blocks, seven_blocks
):
    # the lattice route searches one killed block at a time and keeps the
    # parts; assembled into the ambient ψ they must invert the quotient in
    # the full target: every seed-1 corpus system, the benchmark's blocks
    # systems and the products of the 9 standard pairs
    envs = [analyses(name).envelope for name in entries]
    envs += [cstar_envelope(E) for _, E in bench_blocks]
    envs += [
        pair_analyses(*pair).factorization.product_envelope for pair in standard_pairs(entries)
    ]
    assert sum(bool(e.ideal.killed) for e in envs) >= 10
    for e in envs:
        assert_exact_left_inverse(
            e.system, e.wedderburn, e.ideal.killed, e.lattice_certificate.witness
        )
    E7, W7 = seven_blocks
    ideal, cert = silov_ideal_lattice(W7, block_images(E7, W7, DEFAULT_TOL))
    assert len(ideal.killed) == 5
    assert_exact_left_inverse(E7, W7, ideal.killed, cert.witness)


def test_each_envelope_builds_its_constraint_data_once(
    seven_blocks, analyses, config, monkeypatch
):
    # both routes and the isometry check read one Hermitian basis and one
    # image stack, on the seven-block system and on a pair's product
    calls = []
    real = boundary.hermitian_basis

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(boundary, "hermitian_basis", counted)
    E7, W7 = seven_blocks
    env = cstar_envelope(E7, wedderburn=W7)
    assert len(env.ideal.killed) == 5 and len(calls) == 1
    factors = analyses("state_sum"), analyses("jordan_M2")
    before = len(calls)
    pa = analyze_pair(*factors, config)
    assert pa.verified and pa.factorization.product_envelope.ideal.killed
    assert len(calls) - before == 1


def test_each_envelope_checks_its_left_inverse_once(system, bench_blocks, monkeypatch):
    # the maximum's ψ is the lattice route's one certificate: the ideals
    # below it pass by restriction, with no check of their own, and the
    # empty ideal's identity is checked only when it is the maximum
    calls = Counter()

    def counting(name):
        real = getattr(boundary, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(boundary, name, wrapper)

    counting("_interpolation_residual")
    for name, E in [("state_sum", system("state_sum")), *bench_blocks]:
        calls.clear()
        env = cstar_envelope(E)
        assert env.ideal.killed, name
        assert calls == Counter({"_interpolation_residual": 1}), name
    calls.clear()
    env = cstar_envelope(system("full_M2"))
    assert not env.ideal.killed
    assert calls == Counter({"_interpolation_residual": 1})


def test_a_corrupted_left_inverse_fails_for_the_maximum(bench_workloads, monkeypatch):
    # every certificate ucp_feasibility returns is scaled by 1.01, so the
    # parts no longer interpolate the system: the envelope's one check
    # refuses them, naming the maximum
    real = boundary.ucp_feasibility

    def scaled(spec, **kwargs):
        res = real(spec, **kwargs)
        if not res.feasible:
            return res
        return replace(res, certificate=[1.01 * c for c in res.certificate])

    monkeypatch.setattr(boundary, "ucp_feasibility", scaled)
    spec = bench_workloads.blocks_spec(1, 0, 5)
    E = opsys_of(spec, DEFAULT_TOL)
    message = "left inverse for the ideal [2, 3, 4, 5, 6] fails to interpolate"
    with pytest.raises(VerificationError, match=re.escape(message)):
        cstar_envelope(E)


def test_multiplicity_system_in_both_presentations():
    # g = J_2 (+) diag(0.3, 0.3, e^{0.7i}): the scalar 0.3 is one block of
    # multiplicity 2, inside the numerical range of J_2, so it is killed; the
    # assembled ψ repeats its part on both copies
    n = 5
    g = np.zeros((n, n), dtype=complex)
    g[0, 1] = 1.0
    g[2:, 2:] = np.diag([0.3, 0.3, np.exp(0.7j)])
    U = seeded_unitary(n, 17)
    for key, gen in (("given", g), ("conjugated", U @ g @ U.conj().T)):
        E = opsys_from_generators(n, [gen])
        W = wedderburn_decompose(generated_cstar(E))
        assert W.blocks == ((2, 1), (1, 2), (1, 1)), key
        env = cstar_envelope(E, wedderburn=W)
        assert env.ideal.killed == frozenset({2}), key
        assert env.envelope_block_dims == (2, 1), key
        assert_exact_left_inverse(E, W, env.ideal.killed, env.lattice_certificate.witness)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_state_sum_s3_left_inverse_ends_by_douglas_rachford(seed):
    # only the killed scalar block is searched, and the feasibility engine
    # settles it
    (entry,) = [e for e in corpus_entries(seed=seed) if e.spec.name == "state_sum_s3"]
    E = opsys_of(entry.spec, DEFAULT_TOL)
    W = wedderburn_decompose(generated_cstar(E), seed=seed)
    res = is_boundary_ideal_ucp(W, block_images(E, W, DEFAULT_TOL), frozenset({2}))
    assert res.feasible and res.method == "douglas-rachford", seed
    assert_exact_left_inverse(E, W, frozenset({2}), res.certificate)


def test_undecided_block_search_raises_for_the_ideal(seven_blocks, monkeypatch):
    real_search = boundary.ucp_feasibility
    searched = []

    def third_undecided(spec, **kwargs):
        searched.append(spec.target_dim)
        if len(searched) == 3:
            raise InconclusiveError("forced")
        return real_search(spec, **kwargs)

    E7, W7 = seven_blocks
    data = block_images(E7, W7, DEFAULT_TOL)
    lattice = silov_ideal_lattice(W7, data)[1]
    monkeypatch.setattr(boundary, "ucp_feasibility", third_undecided)
    killed = silov_ideal_dk(W7, lattice)[0].killed
    assert len(killed) == 5
    # two killed blocks pass, the third stays undecided: the ideal is
    # undecided, and the two blocks after it are not searched
    message = f"ideal {sorted(killed)}, killed block {sorted(killed)[2]}: forced"
    with pytest.raises(InconclusiveError, match=re.escape(message)):
        boundary._left_inverse_search(W7, data, killed, DEFAULT_TOL)
    assert len(searched) == 3


def shift_psd(E, W, killed, parts):
    """Add a small positive multiple of the identity to one part: still CP,
    no longer a left inverse."""
    (i,) = killed
    (c,) = parts[i]
    return {i: (c + 1e-3 * np.eye(c.shape[0]),)}


def scale(E, W, killed, parts):
    """Scale one part by 1.01."""
    (i,) = killed
    (c,) = parts[i]
    return {i: (1.01 * c,)}


def drop_part(E, W, killed, parts):
    """Drop the killed block's one part."""
    (i,) = killed
    return {i: ()}


def drop_block(E, W, killed, parts):
    """Drop the killed block's entry."""
    return {}


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (shift_psd, "fails to interpolate"),
        (scale, "fails to interpolate"),
        (indefinite_null_shift, "not completely positive"),
        (drop_part, "block 2 has parts of shapes []"),
        (drop_block, "has parts for the blocks []"),
    ],
)
def test_a_bad_lattice_witness_fails_the_envelope(system, monkeypatch, corrupt, message):
    # every corruption of the one part fails the envelope's check, which
    # names the ideal
    E = system("state_sum")
    real = boundary.silov_ideal_lattice

    def corrupted(W, data, **kwargs):
        ideal, cert = real(W, data, **kwargs)
        assert ideal.killed == {2}
        return ideal, replace(cert, witness=corrupt(E, W, ideal.killed, cert.witness))

    monkeypatch.setattr(boundary, "silov_ideal_lattice", corrupted)
    expected = re.escape("left inverse for the ideal [2]") + ".*" + re.escape(message)
    with pytest.raises(VerificationError, match=expected):
        cstar_envelope(E)


def test_killed_blocks_get_no_spectrahedron_and_no_uniqueness_call(
    system, wedderburn, seven_blocks, monkeypatch
):
    # a block the lattice route kills is decided by its checked left
    # inverse alone, and a block it keeps by one re-check of its singleton's
    # norm drop: after the lattice route, no spectrahedron is built
    built, decided = [], []
    real_init, real_unique = ucp.UcpSpectrahedron.__post_init__, boundary.is_unique_ucp_extension
    real_reps = boundary.boundary_representations

    def recording_init(self):
        built.append(self)
        real_init(self)

    def recording_unique(x, kept_rows, tol):
        decided.append(len(kept_rows))
        return real_unique(x, kept_rows, tol)

    def after_the_lattice(W, lattice, **kwargs):
        built.clear()
        return real_reps(W, lattice, **kwargs)

    monkeypatch.setattr(ucp.UcpSpectrahedron, "__post_init__", recording_init)
    monkeypatch.setattr(boundary, "is_unique_ucp_extension", recording_unique)
    monkeypatch.setattr(boundary, "boundary_representations", after_the_lattice)
    T = min_tensor(system("full_M2"), system("state_sum"))
    P = tensor.product_blocks(wedderburn("full_M2")[1], wedderburn("state_sum")[1])
    cases = [
        (*seven_blocks, 5),
        (system("state_sum"), wedderburn("state_sum")[1], 1),
        (T.product, P.wedderburn, 1),
    ]
    for E, W, n_killed in cases:
        decided.clear()
        env = cstar_envelope(E, wedderburn=W)
        killed = env.lattice_certificate.maximal
        kept = [j for j in W.labels if j not in killed]
        assert len(killed) == n_killed and kept
        assert built == []
        assert decided == [W.num_blocks - 1] * len(kept)
        assert [b.label for b in env.dk_certificate.per_block if b.method == "norm-drop"] == kept
        assert env.ideal.killed == killed


def test_a_killed_block_witness_meets_the_left_inverse_contract(
    entries, analyses, pair_analyses, bench_blocks
):
    # the witness of a killed block is its own part tuple, bit for bit, with
    # zero blocks at the killed sources, at distance
    # sqrt(d_i^2 + sum_j |part_j|^2) from J0; its interpolation residual and
    # least Choi eigenvalue are within those the envelope checked
    envs = [(name, analyses(name).envelope) for name in entries]
    envs += [
        (f"{a}*{b}", pair_analyses(a, b).factorization.product_envelope)
        for a, b in standard_pairs(entries)
    ]
    envs += [(name, cstar_envelope(E)) for name, E in bench_blocks]
    seen = Counter()
    for name, env in envs:
        W, lattice = env.wedderburn, env.lattice_certificate
        data = block_images(env.system, W, DEFAULT_TOL)
        for b in env.dk_certificate.per_block:
            if b.label not in lattice.maximal:
                continue
            seen[name] += 1
            di = W.blocks[b.label - 1][0]
            assert (b.unique, b.method) == (False, "left-inverse"), (name, b.label)
            assert len(b.witness) == W.num_blocks
            kept = [c for j, c in zip(W.labels, b.witness) if j not in lattice.maximal]
            assert all(x is y for x, y in zip(kept, lattice.witness[b.label], strict=True))
            for j, c in zip(W.labels, b.witness):
                if j in lattice.maximal:
                    assert c.shape == (W.blocks[j - 1][0] * di,) * 2 and not c.any()
            norms = sum(float(np.linalg.norm(c)) ** 2 for c in b.witness)
            assert b.separation == pytest.approx(np.sqrt(di * di + norms), rel=1e-15)
            values = sum(
                np.einsum("hkl,kalb->hab", data.image(j), c.reshape(dj, di, dj, di))
                for j, ((dj, _), c) in enumerate(zip(W.blocks, b.witness), start=1)
            )
            residual = float(np.max(np.linalg.norm(values - data.image(b.label), axis=(1, 2))))
            assert residual <= env.isometry.residual + 1e-12, (name, b.label)
            least = min(float(np.linalg.eigvalsh(c)[0]) for c in b.witness)
            assert least >= min(0.0, env.isometry.min_eig) - 1e-12, (name, b.label)
    assert sum(seen.values()) >= 20 and len(seen) >= 8, seen


def test_a_kept_block_is_certified_by_its_singleton_refutation(
    entries, analyses, pair_analyses, bench_blocks
):
    # every block ψ keeps in a multi-block algebra of the seed-1 corpus, the
    # 9 standard pairs' products and both seed-1 blocks systems was refuted
    # as a singleton by the probe: its entry is that refutation's matrix,
    # whose norm drops by its separation in the quotient killing the block
    envs = [(name, analyses(name).envelope) for name in entries]
    envs += [
        (f"{a}*{b}", pair_analyses(a, b).factorization.product_envelope)
        for a, b in standard_pairs(entries)
    ]
    envs += [(name, cstar_envelope(E)) for name, E in bench_blocks]
    seen = Counter()
    for name, env in envs:
        W, lattice = env.wedderburn, env.lattice_certificate
        if W.num_blocks == 1:
            continue
        n = W.ambient
        for b in env.dk_certificate.per_block:
            if b.label in lattice.maximal:
                continue
            seen[name] += 1
            refuted = lattice.refutations[b.label]
            assert (b.unique, b.method, b.iterations) == (True, "norm-drop", 0), (name, b)
            assert b.witness is refuted.certificate and refuted.method == "norm-drop"
            (x,) = b.witness
            assert op_norm(x) == pytest.approx(1.0, abs=1e-12)
            q = quotient_map(BlockIdeal(W, frozenset({b.label})))
            drop = 1.0 - op_norm(lift_through(q, x, n)) / op_norm(x)
            # the re-check, the quotient and the probe's norm table agree
            assert b.separation == pytest.approx(drop, abs=1e-12), (name, b.label)
            assert b.separation == pytest.approx(refuted.residual, abs=1e-12)
            assert b.separation > DEFAULT_TOL.tol_norm
    assert sum(seen.values()) >= 10 and len(seen) >= 8, seen


@pytest.mark.parametrize(
    "shape, seed",
    [
        pytest.param(shape, seed, id=f"{'-'.join(map(str, shape))}-seed{seed}")
        for shape in ((3, 1, 2), (2, 2, 3), (3, 2, 4), (4, 1, 3))
        for seed in range(1, 6)
    ],
)
def test_known_answer_compressions(shape, seed, one_blas_thread):
    # the answer is known by construction: blocks (d_a, 1) and (d_b, 1),
    # with B's block killed and A's certified by its singleton's norm drop
    from cstarenv.analysis import analyze_system

    d_a, _, d_b = shape
    sa = analyze_system(compression(seed, *shape))
    W = sa.wedderburn
    assert sorted(W.blocks) == sorted([(d_a, 1), (d_b, 1)])
    (b_label,) = [j for j in W.labels if W.blocks[j - 1][0] == d_b]
    assert sa.silov_lattice == sa.silov_dk == {b_label}
    (kept,) = [b for b in sa.dk_certificate.per_block if b.label != b_label]
    assert (kept.unique, kept.method) == (True, "norm-drop")
    assert kept.separation > DEFAULT_TOL.tol_norm
    # the left inverse x ↦ V*(x ⊗ 1_k)V has Choi rank at most k, a face of
    # the cone with no interior point, where alternating projections stall
    assert sa.lattice_certificate.iterations < 1000


def test_compression_search_checks_the_shadows_cone_projection(one_blas_thread):
    # the search's candidate is P_C(P_A(X)), not the reflected point
    # P_C(2 P_A(X) - X): on this member X drifts at a constant distance
    # from its shadow, so the reflected point's residual plateaus near 5e-6
    # and the search would end undecided
    E = compression(3, 3, 1, 2)
    W = wedderburn_decompose(generated_cstar(E))
    (b_label,) = [j for j in W.labels if W.blocks[j - 1][0] == 2]
    data = block_images(E, W, DEFAULT_TOL)
    res = is_boundary_ideal_ucp(W, data, frozenset({b_label}))
    assert res.feasible and res.method == "douglas-rachford"
    assert 0 < res.iterations < 1000
    assert_exact_left_inverse(E, W, frozenset({b_label}), res.certificate)


def test_lattice_route_probes_each_ideal_once(system, wedderburn, seven_blocks, monkeypatch):
    # one norm table per lattice run, and one read of it per probed ideal
    built, probed = [], Counter()
    real_table, real_probe = boundary.norm_table, boundary.falsify_complete_isometry

    def counting_table(data):
        built.append(data)
        return real_table(data)

    def counting_probe(table, killed, tol):
        probed[killed] += 1
        return real_probe(table, killed, tol)

    monkeypatch.setattr(boundary, "norm_table", counting_table)
    monkeypatch.setattr(boundary, "falsify_complete_isometry", counting_probe)
    E = system("state_sum")
    _, W = wedderburn("state_sum")
    data = block_images(E, W, DEFAULT_TOL)
    ideal, _ = silov_ideal_lattice(W, data)
    assert ideal.killed == frozenset({2})
    assert built == [data]
    assert probed == Counter({frozenset({1}): 1, frozenset({2}): 1})
    # seven blocks: the singletons, then the union of the five left standing
    built.clear()
    probed.clear()
    E7, W7 = seven_blocks
    data = block_images(E7, W7, DEFAULT_TOL)
    ideal, _ = silov_ideal_lattice(W7, data)
    assert len(ideal.killed) == 5
    assert built == [data]
    assert probed == Counter({frozenset({j}): 1 for j in W7.labels} | {ideal.killed: 1})


def per_matrix_norm_drop(E, W, killed, tol=DEFAULT_TOL):
    """The norm-drop probe as one ambient ``op_norm`` per matrix over the
    Hermitian basis, with the table's seed: the reference for the per-block
    norms.  Returns the largest drop when it refutes the ideal, else None."""
    q = quotient_map(BlockIdeal(W, killed))
    basis = hermitian_basis(E.space)
    dim = basis.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0xD209))
    level1 = list(basis)
    for _ in range(48):
        c = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        level1.append(np.einsum("k,kij->ij", c, basis))
    best = 0.0
    for x in level1:
        nx = op_norm(x)
        if nx < tol.tol_rank:
            continue
        best = max(best, 1.0 - op_norm(q.apply(x)) / nx)
    units2 = matrix_units(2)
    for _ in range(16):
        c = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
        parts = np.einsum("uk,kij->uij", c, basis)
        x2 = sum(np.kron(u, p) for u, p in zip(units2, parts))
        q2 = sum(np.kron(u, q.apply(p)) for u, p in zip(units2, parts))
        nx = op_norm(x2)
        if nx < tol.tol_rank:
            continue
        best = max(best, 1.0 - op_norm(q2) / nx)
    return best if best > tol.tol_norm else None


def test_norm_drop_probe_matches_the_per_matrix_loop(system, wedderburn, seven_blocks):
    E = system("state_sum")
    _, W = wedderburn("state_sum")
    cases = [(E, W, frozenset({1})), (E, W, frozenset({2}))]
    E7, W7 = seven_blocks
    cases += [(E7, W7, frozenset({j})) for j in W7.labels]
    cases += [(E7, W7, frozenset({1, j})) for j in W7.labels[1:]]
    drops = []
    for E_, W_, killed in cases:
        rep = falsify_complete_isometry(block_images(E_, W_, DEFAULT_TOL).norms, killed)
        drop = rep.gap if rep.violation else None
        expected = per_matrix_norm_drop(E_, W_, killed)
        # the verdicts agree exactly; a maximum over blocks rounds unlike
        # one ambient SVD, so the drops agree to rounding
        assert (drop is None) == (expected is None), killed
        assert drop == pytest.approx(expected, rel=1e-12, abs=0.0), killed
        drops.append(drop)
    # both outcomes occur: refuting drops and probes that decide nothing
    assert None in drops and any(d is not None for d in drops)
    # level 2 rarely sets the maximum, so check its block matrices directly
    rng = np.random.default_rng(5)
    parts = rng.standard_normal((3, 4, 3, 3)) + 1j * rng.standard_normal((3, 4, 3, 3))
    kron_sums = [sum(np.kron(u, p) for u, p in zip(matrix_units(2), ps)) for ps in parts]
    assert np.array_equal(boundary._cells(parts), np.array(kron_sums))


def test_norm_drop_grows_with_the_ideal(system, wedderburn, seven_blocks):
    # one probe for every ideal: killing more blocks never shows less drop
    cases = [(system(name), wedderburn(name)[1]) for name in ("state_sum", "state_sum_s3")]
    cases.append(seven_blocks)
    for E, W in cases:
        table = block_images(E, W, DEFAULT_TOL).norms
        ideals = [i.killed for i in enumerate_ideals(W)]
        gaps = {k: falsify_complete_isometry(table, k).gap for k in ideals}
        for small in gaps:
            for big in gaps:
                if small <= big:
                    assert gaps[small] <= gaps[big], (sorted(small), sorted(big))
        assert gaps[frozenset()] == 0.0 and gaps[frozenset(W.labels)] == 1.0


def test_envelope_of_an_irreducible_system(system):
    env = cstar_envelope(system("full_M2"))
    assert env.ideal.killed == frozenset()
    assert env.envelope_block_dims == (2,)
    assert env.quotient.target_dim == 2


def test_expected_ideals_across_structured_corpus(analyses):
    for name, killed in EXPECTED_KILLED.items():
        a = analyses(name)
        assert a.agreement, name
        assert a.silov_dk == killed, name
        assert a.silov_lattice == killed, name


def test_routes_agree_under_reseeding(system, wedderburn):
    # the seed reaches only wedderburn_decompose's splitting elements: both
    # routes are deterministic, so a reseeded decomposition gives the same
    # blocks, the same killed set and the same per-block verdicts and methods
    for name in ("jordan_M2", "state_sum", "state_sum_s3", "random_01"):
        E = system(name)
        A, _ = wedderburn(name)
        outcomes = set()
        for seed in (1, 2, 3, 11, 12):
            env = cstar_envelope(E, algebra=A, wedderburn=wedderburn_decompose(A, seed=seed))
            outcomes.add(
                (
                    env.wedderburn.blocks,
                    env.ideal.killed,
                    tuple((b.unique, b.method) for b in env.dk_certificate.per_block),
                )
            )
        assert len(outcomes) == 1, (name, outcomes)


def test_uniqueness_verdicts_ignore_the_presentation(entries, seven_blocks_generator):
    # both routes see the span, not its basis: rescaled, conjugated and
    # reordered generators give the same per-block verdicts, methods and
    # iteration counts, and the same lattice iterations
    from cstarenv.analysis import analyze_system
    from cstarenv.specio import analysis_report

    presentations = {
        name: [np.asarray(g) for g in entries[name].spec.generators]
        for name in ("state_sum", "state_sum_s3")
    }
    presentations["seven_blocks"] = [seven_blocks_generator]
    for name, gens in presentations.items():
        n = gens[0].shape[0]
        U, V = seeded_unitary(n, 17), seeded_unitary(n, 5)
        variants = {
            "given": gens,
            "unit norm": [g / np.linalg.norm(g) for g in gens],
            "conjugated": [U @ g @ U.conj().T for g in gens],
            "conjugated by seed 5": [V @ g @ V.conj().T for g in gens],
            "reversed": gens[::-1],
        }
        seen = {}
        for key, gs in variants.items():
            report = analysis_report(analyze_system(opsys_from_generators(n, gs), name=name))
            seen[key] = (
                [(b["unique"], b["method"], b["iterations"]) for b in report["certificates"]["dk"]],
                report["timing"]["dk_iterations"],
                report["timing"]["lattice_iterations"],
            )
        assert all(v == seen["given"] for v in seen.values()), (name, seen)


def _invariants(sa):
    """What the analysis says about the span: blocks, both killed sets, the
    envelope's block and algebra dimensions, and the propagation number."""
    env = sa.envelope
    return (
        sa.wedderburn.blocks,
        sa.silov_dk,
        sa.silov_lattice,
        env.envelope_block_dims,
        env.envelope.space.dim,
        sa.prop.value,
    )


@given(name=st.sampled_from(["state_sum", "jordan_M2"]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_invariants_ignore_conjugation_and_a_trivial_tensor_factor(
    entries, system, analyses, name, seed
):
    from cstarenv.analysis import analyze_system

    expected = _invariants(analyses(name))
    gens = [np.asarray(g) for g in entries[name].spec.generators]
    n = gens[0].shape[0]
    V = seeded_unitary(n, seed)
    conjugated = opsys_from_generators(n, [V @ g @ V.conj().T for g in gens])
    assert _invariants(analyze_system(conjugated, name=name)) == expected, seed
    # V E V* (x) M_1 is V E V* again, reached through the tensor product
    trivial = min_tensor(conjugated, system("full_M1")).product
    assert _invariants(analyze_system(trivial, name=name)) == expected, seed


def _redundant(gens, rng):
    """The generators, a random combination of them and the adjoint of one
    of them, shuffled: the same span."""
    c = rng.standard_normal(len(gens)) + 1j * rng.standard_normal(len(gens))
    out = [*gens, sum(ck * g for ck, g in zip(c, gens)), gens[rng.integers(len(gens))].conj().T]
    rng.shuffle(out)
    return out


@given(
    name=st.sampled_from(["state_sum", "state_sum_s3", "jordan_M3_k1", "random_01"]),
    kind=st.sampled_from(["redundant", "reversed", "shifted"]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=12, deadline=None)
def test_invariants_ignore_redundant_reordered_and_shifted_generators(
    entries, analyses, name, kind, seed
):
    # E = span{1, g, g*}, so extra combinations, the order of the
    # generators and a shift g -> g + 10^6·1 leave the span as it is
    from cstarenv.analysis import analyze_system

    gens = [np.asarray(g) for g in entries[name].spec.generators]
    n = gens[0].shape[0]
    variants = {
        "redundant": lambda: _redundant(gens, np.random.default_rng(seed)),
        "reversed": lambda: gens[::-1],
        "shifted": lambda: [g + 1e6 * np.eye(n) for g in gens],
    }
    E = opsys_from_generators(n, variants[kind]())
    assert _invariants(analyze_system(E, name=name)) == _invariants(analyses(name)), (kind, seed)


def test_envelope_algebra_is_the_span_of_its_matrix_units(wedderburn, seven_blocks):
    # the block-diagonal matrix units are orthonormal already, so the
    # envelope's basis is the one span_of would return, bit for bit
    patterns = [(wedderburn("state_sum")[1], frozenset()), (seven_blocks[1], frozenset())]
    patterns.append((wedderburn("state_sum")[1], frozenset({2})))
    patterns.append((seven_blocks[1], frozenset({2, 3, 5})))
    patterns.append((wedderburn("full_M3")[1], frozenset()))
    for W, killed in patterns:
        space = _envelope_algebra(W, killed).space
        assert np.array_equal(space.basis, span_of(list(space.basis), space.ambient).basis)
        assert space.dim == sum(W.blocks[j - 1][0] ** 2 for j in W.labels if j not in killed)


def test_envelope_algebra_matches_the_per_unit_loop(bench_blocks, pair_analyses):
    # one index assignment places the matrix units the per-unit loop placed,
    # bit for bit: on the seven-block systems of the benchmark's blocks
    # workload, over ideals of every size, and on a pair's envelope
    patterns = []
    for name, E in bench_blocks:
        W = wedderburn_decompose(generated_cstar(E))
        assert W.num_blocks == 7, name
        patterns += [(W, frozenset(range(2, j))) for j in range(2, 9)]
        patterns.append((W, frozenset({1, 4, 6})))
    for W, killed in patterns:
        basis = _envelope_algebra(W, killed).space.basis
        want = envelope_algebra_loop(W, killed)
        assert basis.dtype == want.dtype and np.array_equal(basis, want), sorted(killed)
    fac = pair_analyses("state_sum", "state_sum").factorization
    env = fac.product_envelope
    want = envelope_algebra_loop(fac.blocks.wedderburn, env.ideal.killed)
    assert env.envelope.space.basis.dtype == want.dtype
    assert np.array_equal(env.envelope.space.basis, want)
