"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import random

import pytest

import run

ppt = run.import_library()

import spans  # noqa: E402  (needs ppt on the path)
import workloads  # noqa: E402
from workloads import Item, MixError  # noqa: E402


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def generated(request):
    name = request.param
    return name, workloads.WORKLOADS[name](7)


def test_same_seed_gives_same_inputs(generated):
    name, work = generated
    again = workloads.WORKLOADS[name](7)
    assert again == work
    other = workloads.WORKLOADS[name](8)
    assert [it.n for it in other.items] != [it.n for it in work.items]


def test_labels_are_the_oracle(generated):
    _, work = generated
    sample = random.Random(0).sample(work.items, 20)
    import sympy

    assert all(sympy.isprime(it.n) == it.prime for it in sample)


def _swap_label(items: list[Item], pred) -> list[Item]:
    i = next(k for k, it in enumerate(items) if pred(it))
    return items[:i] + [dataclasses.replace(items[i], prime=not items[i].prime)] + items[i + 1 :]


def test_scalar_mix_check_fires():
    items = list(workloads.scalar_big(7).items)
    workloads.check_scalar_big(items)
    with pytest.raises(MixError):
        workloads.check_scalar_big([it for it in items if workloads.scalar_class(it.n) != "qn2"])
    with pytest.raises(MixError):
        workloads.check_scalar_big(_swap_label(items, lambda it: it.prime))
    with pytest.raises(MixError):
        workloads.check_scalar_big([it for it in items if it.n & 7 != 3])


def test_battery_mix_check_fires():
    items = list(workloads.battery_1mod24(7).items)
    workloads.check_battery(items)
    with pytest.raises(MixError):
        workloads.check_battery([it for it in items if workloads._m_exit(it.n) != 17])
    with pytest.raises(MixError):
        workloads.check_battery(items + [Item(4 * 24 + 1, False, "extra")])


def test_small_mix_check_fires():
    items = list(workloads.small_many(7).items)
    workloads.check_small(items)
    with pytest.raises(MixError):
        workloads.check_small([it for it in items if it.n != workloads.CONFTEST["HC2"]])
    shallow = [Item(it.n + 2 if it.tag.startswith("deep/") else it.n, it.prime, it.tag) for it in items]
    with pytest.raises(MixError):
        workloads.check_small(shallow)
    with pytest.raises(MixError):
        workloads.check_small([it for it in items if not it.tag.startswith("deep/")])
    first_m = next(it for it in items if it.tag == "random" and workloads._m_exit(it.n))
    with pytest.raises(MixError):
        workloads.check_small([Item(it.n + 2, it.prime, it.tag) if it is first_m else it for it in items])


def test_wrapper_returns_exactly_what_it_wraps():
    tracer = spans.Tracer()
    sentinel = object()
    assert tracer.wrap("x", lambda *a, **k: sentinel)(1, k=2) is sentinel
    with pytest.raises(KeyError):
        tracer.wrap("y", {}.__getitem__)("missing")
    assert [s.name for s in tracer.spans] == ["x", "y"]
    assert tracer._stack == []


def test_install_is_transparent_and_undone():
    before = {(m, a): getattr(m, a) for m, a, _, _ in spans.Tracer().targets()}
    work = workloads.battery_1mod24(7)
    ns = [it.n for it in work.items[:6]] + [workloads.CONFTEST[k] for k in ("NC", "HC1", "N17", "ARN")]
    plain = {(d, n): fn(n) for n in ns for d, fn in ppt.ALGORITHMS.items()}
    tracer = spans.Tracer(work.m_values)
    with tracer.installed():
        for (m, a), orig in before.items():
            assert getattr(m, a) is not orig and getattr(m, a).__wrapped__ is orig
        traced = {(d, n): fn(n) for n in ns for d, fn in ppt.ALGORITHMS.items()}
        params = ppt.algorithms.canonical_params(5)
        assert params is before[(ppt.algorithms, "canonical_params")](5)
    assert traced == plain
    assert {(m, a): getattr(m, a) for (m, a) in before} == before
    names = {s.name for s in tracer.spans}
    assert {"checks.pgpc_check", "polyring.mbec_remainder", "canonical.find_qnr_or_m", "ntcore.jacobi"} <= names
    kinds = {s.info for s in tracer.spans if s.name == "polyring.mbec_remainder"}
    assert kinds <= {"upsilon", "psi"} and "upsilon" in kinds


def test_self_times_nest_and_account_for_wall_time():
    work = workloads.battery_1mod24(7)
    small = dataclasses.replace(work, items=tuple(it for it in work.items if it.n.bit_length() == 256)[:12])
    runner = run.Runner(ppt, small)
    tracer = spans.Tracer(small.m_values)
    plain, traced = runner.traced_pass(range(len(small.items)), tracer)
    assert not runner.failures
    assert plain.decide.keys() == traced.decide.keys()
    own = tracer.self_seconds()
    children = [0.0] * len(tracer.spans)
    for s in tracer.spans:
        assert own[s.id] >= 0
        if s.parent is not None:
            parent = tracer.spans[s.parent]
            assert own[s.id] <= parent.seconds
            assert parent.start <= s.start <= s.end <= parent.end
            assert s.call == parent.call
            children[s.parent] += s.seconds
    for s in tracer.spans:
        assert children[s.id] + own[s.id] == pytest.approx(s.seconds, abs=1e-9)
    deciders = [s for s in tracer.spans if s.name.startswith("algorithms.") and s.parent is None]
    assert len(deciders) == 4 * len(small.items)
    assert sum(s.seconds for s in deciders) == pytest.approx(sum(map(sum, traced.decide.values())))


def test_failures_are_counted_not_dropped():
    work = workloads.battery_1mod24(7)
    wrong = dataclasses.replace(work, items=(_swap_label(list(work.items[:4]), lambda it: True)[0],) + work.items[1:4])
    runner = run.Runner(ppt, wrong)
    runner.run_pass(range(4))
    assert {i for i, _ in runner.failures} == {0}
    assert len(runner.failures) == 4


def test_times_are_normalised_by_the_reading_before_each_call():
    ref, pow_ref = run.calibrate.REF_S, run.calibrate.POW_REF_S
    passes = []
    for t, x in ((0.010, 1), (0.030, 2), (0.024, 3)):
        p = run.PassTimes(decide={0: [t] * 4}, yard={0: t / 10}, verify={0: [t]})
        keys = [(0, "yard"), (0, "verify", 0)] + [(0, d) for d in run.DECIDERS]
        p.cal = {key: (x * ref, 2 * x * pow_ref) for key in keys}
        passes.append(p)
    decide, yard, verify = run.per_input_times(passes)
    assert decide[0] == [pytest.approx(0.010)] * 4
    assert yard[0] == pytest.approx(0.0005) and verify == [pytest.approx(0.010)]
    decide, yard, verify = run.per_input_times(passes, pow_calls=True)
    assert decide[0] == [pytest.approx(0.005)] * 4
    assert yard[0] == pytest.approx(0.0005) and verify == [pytest.approx(0.005)]
    raw, _, _ = run.per_input_times(passes, normalise=False)
    assert raw[0] == [0.010] * 4


def test_calibration_kernel_is_fixed_work():
    assert run.calibrate.kernel() == run.calibrate.kernel()
    whole, pow_part = run.calibrate.reading()
    assert whole > pow_part > 0
