"""Choi-coordinate spectrahedra: the feasibility engine, the norm-drop
re-check that certifies a kept block, and the dual-certificate uniqueness
route kept as its reference in ``_oracles``.

Witness-carrying verdicts are re-verified here from the raw certificate
(affine residual, positivity, separation), never trusted from the flag.
"""
import re

import numpy as np
import pytest

from cstarenv import boundary, ucp
from cstarenv.boundary import block_images
from cstarenv.errors import InconclusiveError, InputError, VerificationError
from cstarenv.linalg import DEFAULT_TOL, hermitian_basis
from cstarenv.opsys import generated_cstar, opsys_from_generators
from cstarenv.tensor import min_tensor, product_blocks
from cstarenv.corpus import corpus_entries
from cstarenv.wedderburn import wedderburn_decompose
from cstarenv.ucp import (
    UcpSpectrahedron,
    is_unique_ucp_extension,
    maximally_entangled,
    pack_herm,
    ucp_feasibility,
)

from _oracles import (
    SEP,
    ExtensionSpectrahedron,
    build_left_inverse_spectrahedron,
    constraint_rows,
    distance_bound,
    dual_uniqueness,
    random_herm,
    trace_bound,
    verify_uniqueness_certificate,
)
from _oracles import extension_spectrahedra as oracle_spectrahedra


def extension_spectrahedra(E, W):
    return oracle_spectrahedra(W, block_images(E, W, DEFAULT_TOL))


def ec_spec(wedderburn, system, label):
    E = system("state_sum")
    _, W = wedderburn("state_sum")
    return extension_spectrahedra(E, W)[label]


def assert_exact_point(spec, mats, scale=1.0):
    packed = spec.pack_tuple(mats)
    resid = float(spec.affine_residual(packed[np.newaxis, :])[0])
    assert resid < 1e-8 * max(1.0, scale)
    for m in mats:
        if m.size:
            assert float(np.linalg.eigvalsh(m)[0]) > -1e-9


def test_maximally_entangled_is_identity_choi():
    j = maximally_entangled(3)
    v = np.eye(3, dtype=complex).reshape(-1)
    assert np.abs(j - np.outer(v, v.conj())).max() < 1e-12
    assert np.trace(j).real == pytest.approx(3.0)


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(41)
    unit = np.eye(2, dtype=complex)[np.newaxis]
    spec = UcpSpectrahedron.from_constraints((2,), 2, [unit], unit)
    for _ in range(20):
        m = random_herm(rng, 4)
        packed = spec.pack_tuple([m])
        (back,) = spec.unpack_tuple(packed)
        assert np.abs(back - m).max() < 1e-12


def test_psd_projection_matches_eigenvalue_clip():
    rng = np.random.default_rng(42)
    unit = np.eye(2, dtype=complex)[np.newaxis]
    spec = UcpSpectrahedron.from_constraints((2,), 2, [unit], unit)
    for _ in range(20):
        m = random_herm(rng, 4)
        packed = spec.pack_tuple([m])[np.newaxis, :]
        (proj,) = spec.unpack_tuple(spec.psd_project(packed)[0])
        w, v = np.linalg.eigh(m)
        clip = (v * np.maximum(w, 0.0)) @ v.conj().T
        assert np.abs(proj - clip).max() < 1e-10


def _special_blocks(rng, D):
    """Inputs the per-size kernels must get right: the zero block, c*I for
    c > 0, c < 0 and c = 0, rank one, an exactly zero eigenvalue, negative
    definite, and a random indefinite block."""
    v = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    g = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    singular = np.diag(np.arange(D, dtype=float))  # eigenvalue 0 on the diagonal
    if D == 2:
        singular = np.array([[1.0, 1j], [-1j, 1.0]])  # eigenvalues 2 and exactly 0
    return [
        np.zeros((D, D)),
        1.5 * np.eye(D),
        -0.7 * np.eye(D),
        0.0 * np.eye(D),
        np.outer(v, v.conj()),
        -np.outer(v, v.conj()),
        singular,
        -(g @ g.conj().T) - 0.1 * np.eye(D),
        random_herm(rng, D),
    ]


def test_per_size_kernels_match_per_block_eigh():
    # sizes 1, 2 and 4, adjacent and separated repeats
    rng = np.random.default_rng(43)
    dims = (1, 2, 1, 4, 2, 2, 4, 1)
    spec = UcpSpectrahedron(dims, 1, np.zeros((0, sum(D * D for D in dims))), np.zeros(0))
    for batch in (1, 32):
        rows = []
        for b in range(batch):
            mats = []
            for j, D in enumerate(dims):
                cases = _special_blocks(rng, D)
                mats.append(cases[(b + j) % len(cases)])
            rows.append(spec.pack_tuple(mats))
        X = np.array(rows)
        proj = spec.psd_project(X)
        least = spec.min_eig(X)
        assert proj.shape == X.shape and least.shape == (batch,)
        for b in range(batch):
            mats = spec.unpack_tuple(X[b])
            for m, p in zip(mats, spec.unpack_tuple(proj[b])):
                w, v = np.linalg.eigh(m)
                clip = (v * np.maximum(w, 0.0)) @ v.conj().T
                assert np.abs(p - clip).max() < 1e-12, (batch, b, m)
            ref = min(float(np.linalg.eigvalsh(m)[0]) for m in mats)
            assert abs(least[b] - ref) < 1e-12, (batch, b)


def test_extension_base_point_is_feasible(system, wedderburn):
    for label in (1, 2):
        spec = ec_spec(wedderburn, system, label)
        assert spec.J0 is not None
        assert_exact_point(spec, spec.unpack_tuple(spec.J0))


# full_M2 and jordan_M2 generate simple algebras, whose only block the
# representation route declares boundary without a probe; these tests keep
# the dual route's exact uniqueness proof as the oracle for that shortcut


def test_fully_pinned_block_reports_unique(system, wedderburn):
    spec = extension_spectrahedra(system("full_M2"), wedderburn("full_M2")[1])[1]
    res = dual_uniqueness(spec)
    assert res.method == "pinned" and res.iterations == 0


def test_dual_certificate_certifies_unique_blocks(system, wedderburn):
    for name, label in (("jordan_M2", 1), ("state_sum", 1)):
        spec = extension_spectrahedra(system(name), wedderburn(name)[1])[label]
        res = dual_uniqueness(spec)
        assert res.method == "dual" and res.iterations == 0
        check = verify_uniqueness_certificate(spec, res.certificate)
        assert check.accepted and check.mu > 0.0
        assert res.separation == check.mu


@pytest.fixture(scope="module")
def decisions(entries, system, wedderburn, seven_blocks):
    """``(name, label, spec, result)`` for every block of the corpus
    fixtures, of ``seven_blocks`` and of ``full_M2 (x) state_sum``.  A block
    the lattice route keeps is decided by the oracle's
    :func:`dual_uniqueness`; a block it kills, which its left inverse
    decides, has result None."""
    systems = [(name, system(name), wedderburn(name)[1]) for name in entries]
    systems.append(("seven_blocks", *seven_blocks))
    T = min_tensor(system("full_M2"), system("state_sum"))
    P = product_blocks(wedderburn("full_M2")[1], wedderburn("state_sum")[1])
    systems.append(("full_M2*state_sum", T.product, P.wedderburn))
    out = []
    for name, E, W in systems:
        data = block_images(E, W, DEFAULT_TOL)
        killed = boundary.silov_ideal_lattice(W, data)[1].maximal
        for label, spec in oracle_spectrahedra(W, data).items():
            res = None if label in killed else dual_uniqueness(spec)
            out.append((name, label, spec, res))
    return out


def test_every_unique_block_carries_an_accepted_certificate(decisions):
    # the dual route accepts every block the package certifies by its
    # singleton's refutation: two independent proofs of one verdict
    methods = set()
    for name, label, spec, res in decisions:
        if res is None:
            continue
        methods.add(res.method)
        assert res.method in ("pinned", "dual"), (name, label)
        if res.method == "dual":
            check = verify_uniqueness_certificate(spec, res.certificate)
            assert check.accepted, (name, label, check)
            assert res.separation == check.mu
    assert "dual" in methods


def test_the_dual_reference_accepts_every_kept_block_of_seeds_1_to_3():
    # every block the package keeps in a multi-block algebra of the corpus
    # at seeds 1-3 or of a standard pair's product also has the dual
    # route's certificate
    from cstarenv.analysis import analyze_pair, analyze_system
    from cstarenv.corpus import standard_pairs
    from cstarenv.specio import opsys_of

    seen = 0
    for seed in (1, 2, 3):
        specs = {e.spec.name: e.spec for e in corpus_entries(seed=seed, count=20)}
        an = {n: analyze_system(opsys_of(sp, DEFAULT_TOL), name=n) for n, sp in specs.items()}
        envs = [a.envelope for a in an.values()]
        envs += [
            analyze_pair(an[a], an[b]).factorization.product_envelope
            for a, b in standard_pairs(specs)
        ]
        for env in envs:
            W = env.wedderburn
            if W.num_blocks == 1:
                continue
            spectrahedra = oracle_spectrahedra(W, block_images(env.system, W, DEFAULT_TOL))
            for b in env.dk_certificate.per_block:
                if b.unique:
                    res = dual_uniqueness(spectrahedra[b.label])
                    assert res.method in ("pinned", "dual"), (seed, env.system.label, b.label)
                    seen += 1
    assert seen == 24


def test_dual_search_certifies_state_sum_s3_block_1():
    # at corpus seed 2 the closed form has a negative margin on this block,
    # so only the Dykstra search can certify it
    from cstarenv.specio import opsys_of

    spec_doc = {e.spec.name: e.spec for e in corpus_entries(seed=2, count=20)}["state_sum_s3"]
    E = opsys_of(spec_doc, DEFAULT_TOL)
    spec = extension_spectrahedra(E, wedderburn_decompose(generated_cstar(E)))[1]
    res = dual_uniqueness(spec)
    assert res.method == "dual" and res.iterations > 0
    check = verify_uniqueness_certificate(spec, res.certificate)
    assert check.accepted and res.separation == check.mu


def test_no_certificate_where_a_witness_exists(decisions):
    # a block the lattice route kills has a second extension, so the
    # uniqueness decision must end inconclusive there: neither the closed
    # form nor the search may produce an accepted certificate.  This is the
    # independent check that a block decided by the left inverse alone is
    # really not boundary.  full_M2 (x) state_sum label 2 is the trap: the
    # other block of its closed form has an eigenvalue of about 1e-16, which
    # a bare margin check would take as positive.
    refuted = [(n, lab, spec) for n, lab, spec, r in decisions if r is None]
    assert ("full_M2*state_sum", 2) in [(n, lab) for n, lab, _ in refuted]
    for name, label, spec in refuted:
        with pytest.raises(InconclusiveError, match="no dual certificate"):
            dual_uniqueness(spec)


def test_inconclusive_uniqueness_carries_its_evidence(system, wedderburn):
    spec = ec_spec(wedderburn, system, 2)
    with pytest.raises(InconclusiveError) as info:
        dual_uniqueness(spec)
    msg = str(info.value)
    assert "after 400 iterations" in msg
    assert "best margin -" in msg and "best bound/threshold inf" in msg
    assert msg.endswith("best bound/threshold inf)")


def _null_rows(M: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the nullspace of ``M``."""
    _, s, vh = np.linalg.svd(M)
    return vh[int(np.count_nonzero(s > 1e-10)) :]


def test_perturbed_certificates_are_rejected(system, wedderburn):
    spec = ec_spec(wedderburn, system, 1)
    Z = dual_uniqueness(spec).certificate
    base = verify_uniqueness_certificate(spec, Z)
    assert base.accepted
    (j,) = [k for k, m in enumerate(spec.unpack_tuple(spec.J0)) if np.abs(m).max() > 0]
    D = spec.choi_dims[j]
    lo, hi = spec.offsets[j], spec.offsets[j + 1]
    omega = np.eye(spec.target_dim).reshape(-1) / np.sqrt(spec.target_dim)
    others = np.linalg.qr(omega[:, None].astype(complex), mode="complete")[0][:, 1:]

    def in_block(m):
        x = np.zeros(spec.num_coords)
        x[lo:hi] = pack_herm(m)
        return x

    def face_image(X):
        """Real rows ``Re, Im`` of ``X_j omega`` for packed rows ``X``."""
        img = spec.unpack_tuple(X)[j] @ omega
        return np.concatenate([img.real, img.imag], axis=-1)

    # a cross term omega v* + v omega* inside the row space of L: only eta sees it
    cross = np.array(
        [
            in_block(np.outer(omega, np.conj(p * v)) + np.outer(p * v, omega))
            for v in others.T
            for p in (1.0, 1.0j)
        ]
    )
    null = _null_rows(spec.L)
    (c, *_) = _null_rows(cross @ null.T @ null @ cross.T)
    term = c @ cross
    # a nullspace direction that keeps Z_j omega = 0: only rho sees it
    coeffs = _null_rows(face_image(null).T)
    off_rows = coeffs[0] @ null
    # a negative eigenvalue on the complement of omega
    Zj = spec.unpack_tuple(Z)[j]
    u = others[:, 0]
    dip = in_block(-(float(np.real(np.conj(u) @ Zj @ u)) + 0.1) * np.outer(u, np.conj(u)))

    perturbed = {
        "cross": Z + 1e-3 * term / np.linalg.norm(term),
        "off-row-space": Z + 1e-3 * off_rows / np.linalg.norm(off_rows),
        "negative": Z + dip,
    }
    checks = {k: verify_uniqueness_certificate(spec, v) for k, v in perturbed.items()}
    for name, check in checks.items():
        assert not check.accepted, (name, check)
    assert checks["cross"].eta > 1e-4 and checks["cross"].rho < 1e-12
    assert checks["cross"].mu == pytest.approx(base.mu, abs=1e-12)
    assert checks["off-row-space"].rho == pytest.approx(1e-3)
    assert checks["off-row-space"].eta < 1e-12 and checks["off-row-space"].mu > 0.1
    assert checks["negative"].mu < 0.0


def test_distance_bound_holds_on_random_psd_points():
    rng = np.random.default_rng(41)
    for _ in range(400):
        D = int(rng.integers(2, 6))
        rank = int(rng.integers(1, D + 1))
        x = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
        x[0] *= rng.uniform(1.0, 30.0)  # most of the trace on omega = e_0
        J = x @ x.conj().T
        t = float(rng.uniform(0.1, 10.0))
        J *= t / np.trace(J).real
        tau = t - float(J[0, 0].real)  # tr(P⊥J), the tightest admissible τ
        target = np.zeros((D, D))
        target[0, 0] = t
        dist = float(np.linalg.norm(J - target))
        for slack in (1.0, 1.5):
            assert dist <= distance_bound(t, slack * tau) * (1 + 1e-12)


def _largest_admissible_trace(t, offset, rho, eta, delta, mu):
    """Bisection for the largest x with mu x - 3 eta t <= delta + rho (sqrt(2x(x+t)) + offset);
    the left side minus the right is convex and not positive at 0."""

    def excess(x):
        return mu * x - 3 * eta * t - delta - rho * (np.sqrt(2 * x * (x + t)) + offset)

    lo, hi = 0.0, 1.0
    while excess(hi) <= 0:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if excess(mid) <= 0 else (lo, mid)
    return lo


def test_trace_bound_covers_every_admissible_trace():
    rng = np.random.default_rng(42)
    for _ in range(500):
        t = float(rng.uniform(0.5, 5.0))
        rho, eta, delta, offset = 10.0 ** rng.uniform(-16, -2, size=4)
        mu = float(10.0 ** rng.uniform(-3, 0))
        tau = trace_bound(t, offset, rho, eta, delta, mu)
        if mu <= np.sqrt(2) * rho:
            assert tau == np.inf
            continue
        x_max = _largest_admissible_trace(t, offset, rho, eta, delta, mu)
        assert x_max <= tau * (1 + 1e-9)
        if x_max < 1e-3 * t:  # the small traces a certificate can accept
            assert tau <= 1.2 * x_max
    # without rho it is the plain ratio; without margin there is no bound
    assert trace_bound(2.0, 0.0, 0.0, 1e-9, 1e-9, 0.5) == pytest.approx(1.4e-8)
    assert trace_bound(2.0, 0.0, 0.0, 0.0, 0.0, -0.1) == np.inf


def test_distance_bound_is_nearly_attained_by_a_rank_one_point():
    e = np.array([0.6, 0.8j])
    for t, tau in ((1.0, 1e-9), (2.0, 1e-4), (1.0, 0.3), (5.0, 1.0)):
        x = np.concatenate([[np.sqrt(t - tau)], np.sqrt(tau) * e])
        J = np.outer(x, x.conj())
        target = np.zeros((3, 3))
        target[0, 0] = t
        dist = float(np.linalg.norm(J - target))
        assert dist <= distance_bound(t, tau) <= 1.5 * dist


def test_non_unique_block_carries_exact_witness(system, wedderburn):
    # the killed block's witness is its part of the left inverse bit for
    # bit, zero at its own source, at the distance
    # sqrt(d_i^2 + sum_j |candidate_j|^2) from J0
    E = system("state_sum")
    _, W = wedderburn("state_sum")
    data = block_images(E, W, DEFAULT_TOL)
    lattice = boundary.silov_ideal_lattice(W, data)[1]
    assert lattice.maximal == {2}
    cert = boundary.boundary_representations(W, lattice)
    block = cert.per_block[1]
    assert (block.label, block.unique, block.method, block.iterations) == (
        2,
        False,
        "left-inverse",
        0,
    )
    (part,) = lattice.witness[2]
    candidate = [part, np.zeros((1, 1), dtype=complex)]
    assert len(block.witness) == len(candidate)
    for got, want in zip(block.witness, candidate):
        assert np.array_equal(got, want)
    spec = oracle_spectrahedra(W, data)[2]
    formula = np.sqrt(W.blocks[1][0] ** 2 + sum(np.linalg.norm(c) ** 2 for c in candidate))
    assert block.separation == formula
    assert formula == pytest.approx(
        np.linalg.norm(spec.pack_tuple(candidate) - spec.J0), rel=1e-12
    )
    assert block.separation > SEP


def test_uniqueness_probe_is_deterministic(system, wedderburn, seven_blocks):
    # the kept blocks' refutations, re-checked, and the dual reference
    # repeat bit for bit
    for E, W in ((system("state_sum"), wedderburn("state_sum")[1]), seven_blocks):
        runs = []
        for _ in range(2):
            data = block_images(E, W, DEFAULT_TOL)
            lattice = boundary.silov_ideal_lattice(W, data)[1]
            runs.append(boundary.boundary_representations(W, lattice).per_block)
        for a, b in zip(*runs):
            assert (a.method, a.separation, a.iterations) == (b.method, b.separation, b.iterations)
            if a.unique:
                assert a.method == "norm-drop" and np.array_equal(a.witness[0], b.witness[0])
    spec = ec_spec(wedderburn, system, 1)
    a = dual_uniqueness(spec)
    b = dual_uniqueness(spec)
    assert (a.method, a.separation, a.iterations) == (b.method, b.separation, b.iterations)
    assert np.array_equal(a.certificate, b.certificate)


def test_uniqueness_requires_base_point():
    spec = ExtensionSpectrahedron.from_constraints(
        (2,), 1, [np.eye(2, dtype=complex)[np.newaxis]], np.ones((1, 1, 1), dtype=complex)
    )
    with pytest.raises(InputError):
        dual_uniqueness(spec)


def _first_copy_rows(W):
    offsets = W.block_offsets()
    return {j: W.u[offsets[j - 1] : offsets[j - 1] + d] for j, (d, _) in zip(W.labels, W.blocks)}


def test_a_witness_without_a_norm_drop_fails_the_recheck(system, wedderburn):
    # the unit never drops, and neither does any matrix in a quotient that
    # keeps every block: a re-check proves nothing there and raises
    E = system("state_sum")
    _, W = wedderburn("state_sum")
    rows = _first_copy_rows(W)
    lattice = boundary.silov_ideal_lattice(W, block_images(E, W, DEFAULT_TOL))[1]
    (x,) = lattice.refutations[1].certificate
    for matrix, kept in ((np.eye(2 * W.ambient), [rows[2]]), (x, [rows[1], rows[2]])):
        with pytest.raises(VerificationError, match="no norm drop"):
            is_unique_ucp_extension(matrix, kept)


def test_affinely_impossible_left_inverse_is_linear(system, wedderburn):
    # killing the matrix block leaves a scalar target; interpolating the
    # whole system back is affinely impossible
    E = system("state_sum")
    _, W = wedderburn("state_sum")
    spec = build_left_inverse_spectrahedron(E, W, frozenset({1}), DEFAULT_TOL)
    res = ucp_feasibility(spec)
    assert not res.feasible and res.method == "linear"
    assert res.iterations == 0 and res.certificate is None


def test_left_inverse_feasible_by_iteration(system, wedderburn):
    E = system("state_sum")
    _, W = wedderburn("state_sum")
    spec = build_left_inverse_spectrahedron(E, W, frozenset({2}), DEFAULT_TOL)
    res = ucp_feasibility(spec)
    assert res.feasible and res.method == "douglas-rachford"
    assert_exact_point(spec, res.certificate, scale=float(np.linalg.norm(spec.rhs)))


def test_feasibility_never_reports_gap_from_plateau(system, wedderburn, monkeypatch):
    # a tight cap forces an honest inconclusive instead of a false negative;
    # the full-target spectrahedron of state_sum_s3 meets the cone
    # tangentially, so the search is still undecided after 150 iterations, and
    # the error carries the start's residual and the one checkpoint's
    monkeypatch.setattr(ucp, "_FEASIBILITY_CAP", 150)
    E = system("state_sum_s3")
    _, W = wedderburn("state_sum_s3")
    spec = build_left_inverse_spectrahedron(E, W, frozenset({2}), DEFAULT_TOL)
    history = r"affine residuals (\S+), (\S+) against tolerance (\S+)$"
    with pytest.raises(InconclusiveError, match=r"after 150 iterations: .*" + history) as info:
        ucp_feasibility(spec)
    start, last, tolerance = (float(x) for x in re.search(history, str(info.value)).groups())
    assert start <= tolerance < last


def assert_rows_match_the_loop(spec, sources, values):
    """``spec``'s stacked rows equal the one-constraint-at-a-time reference,
    in bits and in memory layout (BLAS rounds ``L Lᵀ`` by layout)."""
    constraints = list(zip(zip(*sources), values))
    L, rhs = constraint_rows(spec.source_dims, spec.target_dim, constraints)
    assert np.array_equal(spec.L, L) and np.array_equal(spec.rhs, rhs)
    assert spec.L.strides == L.strides


def test_stacked_rows_match_the_per_constraint_loop(
    entries, system, wedderburn, seven_blocks, monkeypatch
):
    # the reference images come straight from the Hermitian basis and
    # irrep_apply, not from block_images
    for name in entries:
        E = system(name)
        _, W = wedderburn(name)
        basis = hermitian_basis(E.space)
        images = [W.irrep_apply(j, basis) for j in W.labels]
        for label, spec in extension_spectrahedra(E, W).items():
            assert_rows_match_the_loop(spec, images, images[label - 1])
    # the left-inverse search builds one spectrahedron per killed block, in
    # label order, each from the kept blocks' images
    E7, W7 = seven_blocks
    data = block_images(E7, W7, DEFAULT_TOL)
    killed = boundary.silov_ideal_lattice(W7, data)[0].killed
    built = []
    real = boundary.ucp_feasibility

    def recording(spec, **kwargs):
        built.append(spec)
        return real(spec, **kwargs)

    monkeypatch.setattr(boundary, "ucp_feasibility", recording)
    boundary._left_inverse_search(W7, data, killed, DEFAULT_TOL)
    basis = hermitian_basis(E7.space)
    kept = [W7.irrep_apply(j, basis) for j in W7.labels if j not in killed]
    assert len(built) == len(killed) == 5
    for i, spec in zip(sorted(killed), built):
        assert_rows_match_the_loop(spec, kept, W7.irrep_apply(i, basis))
    # the full-target oracle's rows, of an 8x8 target
    spec = build_left_inverse_spectrahedron(E7, W7, killed, DEFAULT_TOL)
    assert_rows_match_the_loop(spec, kept, basis)


def test_constraint_stacks_of_the_wrong_shape_are_input_errors():
    unit = np.eye(2, dtype=complex)[np.newaxis]
    for sources, values in (
        ([unit, unit], unit),  # two stacks for one source block
        ([unit[0]], unit),  # a matrix, not a stack
        ([np.concatenate([unit, unit])], unit),  # two images, one value
        ([unit], unit[0]),  # a value matrix, not a stack
        ([unit], np.eye(3, dtype=complex)[np.newaxis]),  # values in M_3, target M_2
    ):
        with pytest.raises(InputError):
            UcpSpectrahedron.from_constraints((2,), 2, sources, values)


def test_feasibility_accepts_a_feasible_start_without_iterating(seven_blocks):
    # the tracial start of every killed block of the seven-block system is
    # strictly positive once affinely projected, so no search step runs
    E7, W7 = seven_blocks
    data = block_images(E7, W7, DEFAULT_TOL)
    killed = boundary.silov_ideal_lattice(W7, data)[0].killed
    res = boundary._left_inverse_search(W7, data, killed, DEFAULT_TOL)
    assert res.feasible and res.iterations == 0


def test_feasibility_returns_its_first_converged_iterate(monkeypatch):
    # g = J_2 (+) diag(-0.378 - 0.11i, 0.991 + 0.135i): the inner scalar's
    # block is killed, and its affinely projected tracial start is not PSD,
    # so its search takes Douglas–Rachford steps and stops at the first
    # candidate within the affine tolerance
    g = np.zeros((4, 4), dtype=complex)
    g[0, 1] = 1.0
    g[2:, 2:] = np.diag([-0.378 - 0.11j, 0.991 + 0.135j])
    E = opsys_from_generators(4, [g])
    W = wedderburn_decompose(generated_cstar(E))
    data = block_images(E, W, DEFAULT_TOL)
    killed = boundary.silov_ideal_lattice(W, data)[0].killed
    assert len(killed) == 1
    searches = []
    real = boundary.ucp_feasibility

    def recording(spec, **kwargs):
        res = real(spec, **kwargs)
        searches.append((spec, kwargs["start"], res))
        return res

    monkeypatch.setattr(boundary, "ucp_feasibility", recording)
    boundary._left_inverse_search(W, data, killed, DEFAULT_TOL)
    ((spec, start, res),) = searches
    k = res.iterations
    assert res.feasible and k > 1

    def residual_after(steps):
        # the candidate of step ``steps`` is the cone projection of the
        # shadow P_A(X) after ``steps - 1`` Douglas–Rachford moves
        X = start[np.newaxis, :]
        for _ in range(steps - 1):
            Y = spec.affine_project(X)
            X = X + spec.psd_project(2.0 * Y - X) - Y
        return float(spec.affine_residual(spec.psd_project(spec.affine_project(X)))[0])

    tolerance = DEFAULT_TOL.tol_rank * max(1.0, float(np.linalg.norm(spec.rhs)))
    assert residual_after(k) == res.residual <= tolerance < residual_after(k - 1)
