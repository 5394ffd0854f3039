"""Propagation numbers and the two tensor-compatibility identities."""
import dataclasses

import pytest

from cstarenv import analysis, opsys, propagation, tensor
from cstarenv.analysis import analyze_pair
from cstarenv.corpus import standard_pairs
from cstarenv.errors import InputError, StructuralError
from cstarenv.linalg import DEFAULT_TOL
from cstarenv.propagation import propagation_number, verify_power_compatibility

from _oracles import gram_schmidt_chain, power_span_dims

# frozen from hand analysis of the structured members: a k-banded Jordan-type
# generator of M_d needs ceil((d-1)/k) multiplications, a state-sum quotient
# collapses to its matrix summand, a full algebra is already its own envelope
EXPECTED_PROP = {
    "full_M1": 1,
    "full_M2": 1,
    "full_M3": 1,
    "jordan_M2": 2,
    "jordan_M3_k1": 3,
    "jordan_M3_k2": 2,
    "jordan_M4_k1": 4,
    "jordan_M4_k2": 3,
    "jordan_M4_k3": 2,
    "state_sum": 2,
    "state_sum_s1": 2,
    "state_sum_s2": 2,
    "state_sum_s3": 3,
}


def test_full_algebras_propagate_in_one_step(analyses):
    for d, name in ((1, "full_M1"), (2, "full_M2"), (3, "full_M3")):
        p = analyses(name).prop
        assert p.value == 1
        assert p.chain == (d * d,)
        assert p.envelope_dim == d * d
        assert p.ambient_chain == (d * d,)


def test_state_sum_chain_and_ambient_chain_differ(analyses):
    p = analyses("state_sum").prop
    assert p.value == 2
    assert p.chain == (3, 4)
    assert p.envelope_dim == 4
    # in the ambient algebra the same iteration fills the 5-dimensional
    # generated algebra instead, one more than the envelope
    assert p.ambient_chain == (3, 5)


def test_expected_values_across_structured_corpus(analyses):
    for name, value in EXPECTED_PROP.items():
        assert analyses(name).prop.value == value, name


def test_prop_result_invariants(analyses):
    for name in EXPECTED_PROP:
        a = analyses(name)
        p = a.prop
        assert p.value == len(p.chain)
        assert all(x < y for x, y in zip(p.chain, p.chain[1:]))
        assert p.chain[-1] == p.envelope_dim
        assert p.chain[0] == a.system.space.dim
        assert p.ambient_chain[-1] == a.algebra.space.dim


def test_envelope_chain_matches_word_span_oracle(analyses):
    # the chain is read off the ambient powers through the quotient; the
    # word spans of the embedded system, multiplied in the envelope, must
    # give the same dimensions
    assert analyses("jordan_M3_k1").prop.chain == (3, 7, 9)
    for name in EXPECTED_PROP:
        env, p = analyses(name).envelope, analyses(name).prop
        gens = list(env.quotient.apply(env.system.space.basis))
        dims = power_span_dims(gens, env.quotient.target_dim, len(p.chain))
        assert tuple(dims) == p.chain, name


def test_rank_chain_equals_the_gram_schmidt_chain(entries, analyses, pair_analyses):
    # dimensions are ranks of the stacked images; the span_of bases they
    # replaced give the same chain on every seed-1 member and standard pair
    envs = [(name, analyses(name).envelope) for name in entries]
    envs += [
        (pair, pair_analyses(*pair).factorization.product_envelope)
        for pair in standard_pairs(entries)
    ]
    assert len(envs) == 29
    for label, env in envs:
        assert propagation_number(env).chain == gram_schmidt_chain(env), label


def test_propagation_needs_the_algebra_powers(pair_analyses):
    # a block algebra built from its basis keeps no powers to read the
    # chain from
    fac = pair_analyses("state_sum", "jordan_M2").factorization
    env = dataclasses.replace(
        fac.product_envelope, algebra=fac.blocks.wedderburn.algebra
    )
    assert env.algebra.powers == ()
    with pytest.raises(StructuralError):
        propagation_number(env)


def test_power_compatibility_rows(pair_analyses):
    rep = pair_analyses("state_sum", "jordan_M2").power
    assert rep.verified
    assert rep.n_max == 3  # one past max(prop, prop) = 2
    for n, left_dim, right_dim, direct_dim, equal in rep.per_power:
        assert equal
        assert direct_dim == left_dim * right_dim


def test_power_compatibility_rows_read_the_chain_certificate(pair_analyses):
    # row n rests on the first min(n - 1, K) induction steps of the
    # product's verified chain: a failed step k fails rows k + 1 onwards
    fac = pair_analyses("state_sum", "jordan_M2").factorization
    assert len(fac.power_residuals) == 2 and len(fac.power_margins) == 1
    for broken, first_bad in (
        (dataclasses.replace(fac, power_residuals=(1.0, 0.0)), 2),
        (dataclasses.replace(fac, power_margins=(0.0,)), 2),
        (dataclasses.replace(fac, power_residuals=(0.0, 1.0)), 3),
    ):
        rep = verify_power_compatibility(broken, n_max=4)
        assert [row[4] for row in rep.per_power] == [n < first_bad for n in range(1, 5)]
        assert not rep.verified


def test_power_compatibility_explicit_cap(analyses):
    fac = tensor.verify_envelope_tensor_factorization(
        analyses("full_M2").envelope, analyses("full_M1").envelope
    )
    rep = verify_power_compatibility(fac, n_max=2)
    assert rep.verified and rep.n_max == 2
    assert rep.per_power[0][1:] == (4, 1, 4, True)
    with pytest.raises(InputError):
        verify_power_compatibility(fac, n_max=0)


def test_power_compatibility_rows_match_word_span_oracle(entries, pair_analyses):
    # every standard pair of the seed-1 corpus: each row's three dimensions
    # are the word-span dimensions of the left, right and tensor systems
    for left, right in standard_pairs(entries):
        pa = pair_analyses(left, right)
        n_max = pa.power.n_max
        T = pa.factorization.tensor
        specs = (entries[left].spec, entries[right].spec)
        factor_dims = [power_span_dims(s.generators, s.ambient_dim, n_max) for s in specs]
        product_dims = power_span_dims(list(T.product.space.basis), T.product.ambient, n_max)
        expected = tuple(zip(range(1, n_max + 1), *factor_dims, product_dims))
        assert tuple(row[:4] for row in pa.power.per_power) == expected, (left, right)


def test_pair_checks_build_the_tensor_once_and_read_the_power_chains(
    analyses, config, monkeypatch
):
    calls = {"min_tensor": 0, "product_span": 0, "chain": 0}
    step_ambients = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def steps(powers, _real=opsys._power_steps):
        step_ambients.append(powers[0].ambient)
        return _real(powers)

    monkeypatch.setattr(tensor, "min_tensor", counted("min_tensor", tensor.min_tensor))
    monkeypatch.setattr(opsys, "product_span", counted("product_span", opsys.product_span))
    monkeypatch.setattr(opsys, "_power_steps", steps)
    monkeypatch.setattr(
        tensor, "_verified_power_chain", counted("chain", tensor._verified_power_chain)
    )
    in_readers = []

    def reading(fn):
        def wrapper(*args, **kwargs):
            before = calls["product_span"] + calls["chain"]
            out = fn(*args, **kwargs)
            in_readers.append(calls["product_span"] + calls["chain"] - before)
            return out

        return wrapper

    monkeypatch.setattr(
        analysis, "verify_power_compatibility", reading(analysis.verify_power_compatibility)
    )
    monkeypatch.setattr(
        propagation, "propagation_number", reading(propagation.propagation_number)
    )
    left, right = analyses("state_sum"), analyses("jordan_M2")
    pa = analyze_pair(left, right, config)
    assert pa.verified and pa.power.n_max == 3
    assert calls["min_tensor"] == 1
    # the product's power chain is certified once from the factor algebras'
    # step certificates, with no power span rebuilt and no product-size
    # step certificate; the power check and the product's propagation
    # number only read it
    assert calls["product_span"] == 0
    assert calls["chain"] == 1
    assert in_readers == [0, 0]
    assert set(step_ambients) <= {3, 2}
    # each factor algebra keeps its step certificate: a second pair over
    # the same factors computes none
    before = len(step_ambients)
    assert analyze_pair(right, left, config).verified
    assert len(step_ambients) == before and calls["product_span"] == 0


def test_propagation_max_on_equal_factors(pair_analyses):
    rep = pair_analyses("state_sum", "jordan_M2").prop_max
    assert rep.verified
    assert rep.left.value == 2 and rep.right.value == 2
    assert rep.expected == 2 and rep.product.value == 2
    # the product kills the pair (2, 1), so its isometry rests on a left
    # inverse, the tensor of the factors' checked on the product, not searched
    product = rep.tensor_report.product_envelope
    assert product.ideal.killed and product.lattice_certificate.iterations == 0
    assert product.isometry.residual <= 10 * DEFAULT_TOL.tol_rank * product.system.ambient
    assert product.isometry.min_eig >= -DEFAULT_TOL.tol_psd
    # the product's ambient chain is read off its generated algebra; the
    # word-span oracle must reproduce it, stabilization included
    prod = rep.tensor_report.tensor.product
    k = len(rep.product.ambient_chain)
    dims = power_span_dims(list(prod.space.basis), prod.ambient, k + 1)
    assert tuple(dims[:k]) == rep.product.ambient_chain and dims[k] == dims[k - 1]


def test_propagation_max_on_unequal_factors(pair_analyses):
    rep = pair_analyses("full_M2", "jordan_M2").prop_max
    assert rep.verified
    # M_2 (x) M_2 is simple: the product quotient is injective, and its
    # canonical left inverse passes the isometry check exactly
    product = rep.tensor_report.product_envelope
    assert not product.ideal.killed
    assert product.isometry.residual < 1e-12 and product.isometry.min_eig > -1e-12
    assert rep.left.value == 1 and rep.right.value == 2
    assert rep.expected == 2 and rep.product.value == 2
    # the product chain fills the tensored envelope
    assert rep.product.chain[-1] == rep.product.envelope_dim
    assert rep.product.envelope_dim == rep.left.envelope_dim * rep.right.envelope_dim
