"""Shared fixtures: the generated corpus and lazily cached analyses."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from cstarenv.analysis import AnalysisConfig, analyze_pair, analyze_system
from cstarenv.corpus import corpus_entries
from cstarenv.linalg import DEFAULT_TOL
from cstarenv.opsys import generated_cstar, opsys_from_generators
from cstarenv.specio import opsys_of, spec_digest
from cstarenv.wedderburn import wedderburn_decompose


@pytest.fixture(scope="session")
def entries():
    return {e.spec.name: e for e in corpus_entries(seed=1, count=20)}


@pytest.fixture(scope="session")
def system(entries):
    """Factory: corpus name -> OperatorSystem, cached."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = opsys_of(entries[name].spec, DEFAULT_TOL)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def wedderburn(system):
    """Factory: corpus name -> (algebra, WedderburnData), cached."""
    cache = {}

    def get(name):
        if name not in cache:
            A = generated_cstar(system(name))
            cache[name] = (A, wedderburn_decompose(A))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def config():
    return AnalysisConfig()


@pytest.fixture(scope="session")
def analyses(entries, system, config):
    """Factory: corpus name -> SystemAnalysis, cached across the session."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = analyze_system(
                system(name), config, name=name, digest=spec_digest(entries[name].spec)
            )
        return cache[name]

    return get


@pytest.fixture(scope="session")
def pair_analyses(analyses, config):
    """Factory: (left name, right name) -> PairAnalysis, cached."""
    cache = {}

    def get(left, right):
        key = (left, right)
        if key not in cache:
            cache[key] = analyze_pair(analyses(left), analyses(right), config)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def seven_blocks_generator():
    """``g = J_2 (+) diag(lambda)``: five scalars inside the numerical range
    of ``J_2`` and one on the unit circle."""
    lam = [0.3, -0.2j, 0.25 * np.exp(2j), 0.1 + 0.15j, -0.35, np.exp(0.7j)]
    n = 2 + len(lam)
    g = np.zeros((n, n), dtype=complex)
    g[0, 1] = 1.0
    g[2:, 2:] = np.diag(lam)
    return g


@pytest.fixture(scope="session")
def seven_blocks(seven_blocks_generator):
    """``(E, W)`` for ``span{1, g, g*}`` with ``g = seven_blocks_generator``,
    whose algebra has seven blocks (the benchmark's blocks shape)."""
    g = seven_blocks_generator
    E = opsys_from_generators(g.shape[0], [g])
    return E, wedderburn_decompose(generated_cstar(E))


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture(scope="session")
def bench_blocks(bench_workloads):
    """``(name, E)`` for the seed-1 systems of the benchmark's ``blocks``
    workload, built by ``perfbench/workloads.py`` itself."""
    workloads = bench_workloads
    specs = [workloads.blocks_spec(1, i, workloads.K_IN) for i in range(workloads.BLOCK_SYSTEMS)]
    return [(s.name, opsys_of(s, DEFAULT_TOL)) for s in specs]


@pytest.fixture
def one_blas_thread():
    """One BLAS thread, as the command line runs: the searches work on
    matrices too small to gain from more."""
    from cstarenv.cli import _set_blas_threads

    previous = _set_blas_threads(1)
    yield
    if previous is not None:
        _set_blas_threads(previous)
