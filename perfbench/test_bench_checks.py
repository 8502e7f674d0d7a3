"""The benchmark's own checks must reject wrong outputs, and its trace must
form a well-nested span tree.

    PYTHONPATH=src python -m pytest -q perfbench/test_bench_checks.py
"""

import numpy as np

import workloads
from butterfly_dft import dataset, operator, training
from checks import check_gradient
from spans import Tracer
from workloads import ApplyWindow, TrainStep, timed_phase


def test_perturbed_h_weight_fails_apply_window_check():
    wl = ApplyWindow()
    wl.setup(seed=0)
    wl.reset()
    wl.check_op(0, wl.op(0))
    assert wl.failures == []

    bad = wl.factors.copy()
    W = bad.H[-1]  # the deepest H level, the sparsest one
    slot = np.unravel_index(np.argmax(np.abs(W)), W.shape)
    W[slot] += 1e-2 * abs(W[slot])
    wl.factors = bad
    wl.check_op(0, wl.op(0))
    assert len(wl.failures) == 1 and "worst row error" in wl.failures[0]


def test_sign_flipped_gradient_fails_finite_difference_check():
    wl = TrainStep()
    wl.setup(seed=0)
    batch = dataset.fresh_batch(wl.spec, wl.BATCH, 0)
    _, grads = training.gradient(wl.initial, batch)
    assert check_gradient(wl.initial, batch, grads,
                          np.random.default_rng(0)) == []
    flipped = {name: -g for name, g in grads.items()}
    assert check_gradient(wl.initial, batch, flipped,
                          np.random.default_rng(0)) != []


def _assert_nested(tracer):
    by_id = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        assert s.start_ns <= s.end_ns
        if s.parent is None:
            continue
        parent = by_id[s.parent]
        assert parent.start_ns <= s.start_ns and s.end_ns <= parent.end_ns
        assert parent.trace == s.trace
    assert all(v >= 0 for v in tracer.self_ns().values())


def test_traced_run_spans_nest_inside_their_parents(monkeypatch):
    original = operator.layer_apply
    wl = ApplyWindow()
    wl.setup(seed=0)
    tracer = Tracer()
    monkeypatch.setattr(workloads, "MIN_OPS", 1)
    with tracer.installed():
        phase = timed_phase(wl, 0.0, tracer)
        train = TrainStep()
        train.setup(seed=0)
        train.reset()
        for i in range(2):
            tracer.trace = f"train-{i}"
            with tracer.span("bench.op"):
                train.op(i)
    assert operator.layer_apply is original  # uninstalled on exit
    assert phase["failures"] == [] and phase["attempted"] == wl.round_size

    _assert_nested(tracer)
    names = {s.name for s in tracer.spans}
    for name in ("operator.apply_batch", "operator.forward",
                 "operator.layer_apply", "operator.layer_backward",
                 "dataset.fresh_batch", "oracle.window_kernel",
                 "training.gradient", "training.Adam.step"):
        assert name in names, name
    by_id = {s.id: s for s in tracer.spans}
    chain, s = [], next(s for s in tracer.spans
                        if s.name == "operator.layer_apply")
    while s is not None:
        chain.append(s.name)
        s = by_id.get(s.parent)
    assert chain == ["operator.layer_apply", "operator.forward",
                     "operator.apply_batch", "bench.op"]
