"""The trace's own accounting: self times, wrapper lifetime, overhead."""

import itertools

import pytest

import run

workloads = run._import_package()

import tracing  # noqa: E402
from cstarenv import errors, linalg, opsys  # noqa: E402


def fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_is_duration_minus_child_coverage():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 7]
    tr = tracing.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 7, 10]))
    with tr.span("a"):
        with tr.span("b"):
            with tr.span("c"):
                pass
        with tr.span("d"):
            pass
    a, b, c, d = tr.spans
    assert [s.name for s in tr.spans] == ["a", "b", "c", "d"]
    assert (b.parent, c.parent, d.parent, a.parent) == (0, 1, 0, None)
    for span, children in ((a, (b, d)), (b, (c,)), (c, ()), (d, ())):
        assert span.self_s == span.duration - sum(ch.duration for ch in children)
    assert tr.self_seconds() == {"a": 5, "b": 2, "c": 1, "d": 2}
    assert sum(tr.self_seconds().values()) == a.duration


def test_wrappers_replace_every_binding_and_are_removed():
    original = linalg.span_of
    tr = tracing.Tracer()
    with tr.installed():
        assert opsys.span_of is linalg.span_of is not original
        assert tracing.bound_wrappers()
        opsys.opsys_from_generators(2, [linalg.matrix_units(2)[1]])
    assert tracing.bound_wrappers() == []
    assert opsys.span_of is linalg.span_of is original
    assert tr.counts["linalg.span_of_calls"] >= 1
    assert tr.self_seconds()["linalg.span_of_s"] > 0


def test_a_raising_call_closes_its_span_and_is_observed():
    seen = []
    hook = tracing.Hook(
        "cstarenv.linalg:span_of",
        span="s",
        count="n",
        observe=lambda tr, outcome, _: seen.append(type(outcome)),
    )
    tr = tracing.Tracer()
    with tr.installed([hook]):
        with pytest.raises(errors.InputError):
            linalg.span_of([linalg.matrix_units(2)[0]], 3)
    assert seen == [errors.InputError]
    assert tr.counts["n"] == 1 and len(tr.spans) == 1 and tr.spans[0] is not None
    assert tracing.bound_wrappers() == []


def test_installing_twice_is_refused():
    with tracing.Tracer().installed():
        with pytest.raises(RuntimeError, match="already traced"):
            with tracing.Tracer().installed():
                pass
    assert tracing.bound_wrappers() == []


def test_traced_run_accounting(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(workloads, "STANDARD_PAIRS", (("full_M1", "jordan_M2"),))
    monkeypatch.setattr(workloads, "PAIR_SLOTS", ())
    traced = run.bench("pairs", 1, 0.0, True, results_dir=tmp_path)
    assert traced["result"]["correct"]
    assert tracing.bound_wrappers() == []
    values = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
    untraced_wall, traced_wall = traced["sweep_wall_s"]
    assert values["trace.overhead_s"] == pytest.approx(traced_wall - untraced_wall)
    self_total = sum(
        v for k, v in values.items() if k.endswith("_s") and k != "trace.overhead_s"
    )
    assert 0 < self_total <= traced_wall
    # the next untraced run sees unwrapped functions and the same report bytes,
    # checked against the traced run's stored digests
    plain = run.bench("pairs", 1, 0.0, False, results_dir=tmp_path)
    assert plain["result"]["correct"]
    assert plain["digests"] == traced["digests"]
    assert plain["stored_digest_mismatches"] == []


def test_layer_values_cover_the_table_with_zero_for_absent_layers():
    tr = tracing.Tracer(clock=fake_clock(itertools.count()))
    values = tracing.layer_values(tr, 0.25)
    assert set(values) == {m.name for m in tracing.LAYER_METRICS}
    assert values["trace.overhead_s"] == 0.25
    assert all(v == 0 for k, v in values.items() if k != "trace.overhead_s")
