"""The benchmark's workloads: closed loop, one caller, inputs from a seed.

A workload builds its fixed inputs and references in `setup`, runs one
operation per `op(i)`, checks that operation's output in `check_op` (outside
the operation's own timing) and, after the timed phase, runs its whole-run
checks in `finish`, which returns the workload's `rel_error`. `reset` puts
the workload back in its post-setup state, so that a second timed phase (the
traced one) sees the same inputs as the first. Operations come in rounds of
`round_size`; a run always performs whole rounds.
"""

from __future__ import annotations

import contextlib
import sys
import time
import traceback

import numpy as np

from butterfly_dft import (complexity, dataset, factors, geometry, metrics,
                           operator, oracle, training)

from checks import (check_close, check_depth_decay, check_gradient,
                    check_rows, fft_window, norm_p, row_errors)

MIN_OPS = 100  # leaves at least ten operations beyond the 90th percentile


def chain_counts(F) -> dict[str, int]:
    """Stored and allowed complex weights, and the complex multiply-adds one
    forward pass of one signal performs with each (computed from shapes, not
    measured): every weight of a factor is applied once per block that the
    factor's contraction repeats over.

    Allowed slots follow the butterfly structure, worked out here from the
    geometry so that the count does not depend on how the package stores
    the weights: an H output channel reads its one parent channel, a G
    output channel its two child channels, and V, M, U are dense.
    """
    g, r = F.geometry, F.geometry.r
    blocks = {"V": 2**g.L, "M": 1, "U": g.freq_leaf_count}
    allowed = {"V": r * g.time_block, "U": g.freq_per_leaf * r,
               "M": g.freq_count(g.L_t) * 2**g.L_xi * r * r}
    for level in range(1, g.L_t + 1):
        blocks[f"H{level}"] = 2 ** (g.L - level)
        allowed[f"H{level}"] = g.freq_count(level) * 2 * r * r
    for level in range(g.L_t + 1, g.L + 1):
        blocks[f"G{level}"] = g.freq_count(level - 1)
        allowed[f"G{level}"] = 2 ** (g.L - level) * 4 * r * r
    total_allowed = complexity.count_params_empirical(F).multiplicative // 16
    if sum(allowed.values()) != total_allowed:
        raise RuntimeError(
            f"butterfly slot count {sum(allowed.values())} disagrees with "
            f"count_params_empirical ({total_allowed})")
    weights = F.weights()
    return {
        "stored": sum(W.size for W in weights.values()),
        "allowed": total_allowed,
        "macs_stored": sum(W.size * blocks[n] for n, W in weights.items()),
        "macs_allowed": sum(allowed[n] * blocks[n] for n in allowed),
    }


class ApplyWindow:
    """operator.apply_batch on a pool of distinct batches of real signals."""

    name = "apply-window"
    GEOMETRY = dict(N=16384, K=1024, K0=4096, L=10, L_xi=2, r=8)
    BATCH = 16
    POOL = 8
    # The worst row error of this operator on Gaussian inputs measures
    # 5.5e-6 over five seeds; a 1% change to the largest weight of H1 or of
    # the deepest H level gives 1.3e-4 or more.
    TOL = 2e-5
    round_size = POOL

    def setup(self, seed: int) -> None:
        g = geometry.build_geometry(**self.GEOMETRY)
        self.factors = factors.butterfly_init(g)
        rng = np.random.default_rng(seed)
        self.inputs = rng.standard_normal((self.POOL, self.BATCH, g.N))
        self.refs = fft_window(self.inputs, g.K0, g.K)

    def reset(self) -> None:
        self.failures: list[str] = []
        self._sq = np.zeros(2)

    def op(self, i: int):
        return operator.apply_batch(self.factors, self.inputs[i % self.POOL])

    def check_op(self, i: int, Y) -> None:
        ref = self.refs[i % self.POOL]
        self.failures += check_rows(Y, ref, self.TOL, f"apply op {i}")
        if i < self.POOL:
            self._sq += (np.linalg.norm(Y - ref) ** 2, np.linalg.norm(ref) ** 2)

    def finish(self) -> float:
        return float(np.sqrt(self._sq[0] / self._sq[1]))

    def counts(self) -> dict:
        c = chain_counts(self.factors)
        return dict(c, passes=self.BATCH)


class TrainStep:
    """One Adam step per op: fresh_batch, gradient, Adam.step (as train())."""

    name = "train-step"
    GEOMETRY = dict(N=256, K=32, K0=0, L=8, L_xi=1, r=4)
    G_CENTER, G_WIDTH = 0.0, 10.0
    BATCH = 256
    LR = 1e-4
    FIXED_STEPS = 100  # rel_error is measured after exactly this many steps
    HELD_OUT = 1000
    TARGET_TOL = 1e-10
    round_size = 1

    def setup(self, seed: int) -> None:
        g = geometry.build_geometry(**self.GEOMETRY)
        self.initial = factors.butterfly_init(g)
        self.seed = seed
        self.spec = dataset.DatasetSpec(
            g.N, self.G_CENTER, self.G_WIDTH, g.K0, g.K, seed=seed)
        # The held-out stream uses a shifted seed, as training.train does.
        X, _ = dataset.generate(dataset.DatasetSpec(
            g.N, self.G_CENTER, self.G_WIDTH, g.K0, g.K,
            seed=seed + 10**6, count=self.HELD_OUT))
        self.held_out = (X, fft_window(X, g.K0, g.K))
        self.config = training.TrainConfig(batch_size=self.BATCH,
                                           lr_init=self.LR)

    def reset(self) -> None:
        self.failures: list[str] = []
        self.factors = self.initial.copy()
        self.weights = self.factors.weights()
        self.opt = training.Adam(
            {k: w.shape for k, w in self.weights.items()}, self.config)
        self.first_batch = None
        self.trained = None

    def op(self, i: int):
        batch = dataset.fresh_batch(self.spec, self.BATCH, i)
        value, grads = training.gradient(self.factors, batch)
        if not np.isfinite(value):
            raise FloatingPointError(f"non-finite loss at step {i}")
        self.opt.step(self.weights, grads, self.config.lr_at(i))
        return batch

    def check_op(self, i: int, batch) -> None:
        X, Y = batch
        g = self.initial.geometry
        self.failures += check_rows(Y, fft_window(X, g.K0, g.K),
                                    self.TARGET_TOL, f"fresh_batch {i}")
        if i == 0:
            self.first_batch = batch
        if i == self.FIXED_STEPS - 1:
            self.trained = self.factors.copy()

    def _held_out_error(self, F) -> float:
        X, ref = self.held_out
        return float(np.mean(row_errors(operator.apply_batch(F, X), ref)))

    def finish(self) -> float:
        _, grads = training.gradient(self.initial, self.first_batch)
        self.failures += check_gradient(self.initial, self.first_batch, grads,
                                        np.random.default_rng(self.seed))
        before = self._held_out_error(self.initial)
        after = self._held_out_error(self.trained)
        if not after < before:
            self.failures.append(
                f"held-out error after {self.FIXED_STEPS} steps {after:.6e} "
                f"is not below the error before training {before:.6e}")
        program, _ = training.evaluate(self.trained, self.held_out)
        self.failures += check_close(program, after, 1e-12, "training.evaluate")
        return after

    def counts(self) -> dict:
        # forward, then two contractions per factor in the backward pass
        return dict(chain_counts(self.initial), passes=3 * self.BATCH)


class ErrorTable:
    """metrics.rel_error(F, p) over the 18-row reference table, p = 1, 2, inf."""

    name = "error-table"
    N, R, K0 = 1024, 8, 0
    ROWS = [(64, L, lxi) for L in (4, 5, 6) for lxi in (1, 2, 3)] + [
        (256, L, lxi) for L in (6, 7, 8) for lxi in (1, 2, 3)]
    PS = (1, 2, np.inf)
    TOL = 1e-8
    round_size = len(ROWS) * len(PS)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.factors = [
            factors.butterfly_init(
                geometry.build_geometry(self.N, K, self.K0, L, lxi, self.R))
            for K, L, lxi in self.ROWS]
        eye_fft = np.fft.fft(np.eye(self.N))
        self.refs = {K: eye_fft[self.K0:self.K0 + K] for K, _, _ in self.ROWS}
        self.ops = [(row, p) for row in range(len(self.ROWS)) for p in self.PS]

    def reset(self) -> None:
        self.failures: list[str] = []
        self.rng = np.random.default_rng(self.seed)
        self.eps: dict[tuple, float] = {}

    def _op_key(self, i: int):
        if i % self.round_size == 0:  # each round in its own seeded order
            self.order = self.rng.permutation(self.round_size)
        return self.ops[self.order[i % self.round_size]]

    def op(self, i: int):
        row, p = self._op_key(i)
        return metrics.rel_error(self.factors[row], p)

    def check_op(self, i: int, eps: float) -> None:
        key = self.ops[self.order[i % self.round_size]]
        first = self.eps.setdefault(key, eps)
        if eps != first:
            self.failures.append(f"rel_error{key} changed: {first!r} -> {eps!r}")

    def finish(self) -> float:
        table = {}
        for row, F in enumerate(self.factors):
            K, L, lxi = self.ROWS[row]
            ref = self.refs[K]
            D = factors.materialize(F) - ref
            for p in self.PS:
                want = norm_p(D, p) / norm_p(ref, p)
                self.failures += check_close(self.eps[(row, p)], want, self.TOL,
                                             f"eps_{p} K={K} L={L} L_xi={lxi}")
                table[(K, L, lxi, p)] = self.eps[(row, p)]
            self.failures += check_close(
                norm_p(oracle.dense_kernel(F.geometry), 2), np.sqrt(self.N),
                1e-10, f"||dense_kernel K={K}||_2")
        self.failures += check_depth_decay(table)
        return float(np.mean([table[row + (2,)] for row in self.ROWS]))

    def counts(self) -> dict:
        per_row = [chain_counts(F) for F in self.factors]
        total = {k: sum(c[k] for c in per_row) for k in per_row[0]}
        # One op materializes one row's chain at batch N; a round visits
        # every row len(PS) times, so the mean per op is total / len(ROWS).
        for k in ("macs_stored", "macs_allowed"):
            total[k] = total[k] / len(self.ROWS)
        return dict(total, passes=self.N)


def timed_phase(wl, seconds: float, tracer=None) -> dict:
    """Whole rounds of operations until `seconds` have passed and at least
    MIN_OPS operations ran. An operation that raises counts as failed."""
    wl.reset()
    latencies, failed, i = [], 0, 0
    start = time.perf_counter()
    while i < MIN_OPS or time.perf_counter() - start < seconds:
        for _ in range(wl.round_size):
            if tracer is not None:
                tracer.trace = i
            span = (tracer.span("bench.op") if tracer is not None
                    else contextlib.nullcontext())
            t = time.perf_counter()
            try:
                with span:
                    out = wl.op(i)
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
            else:
                latencies.append(time.perf_counter() - t)
                wl.check_op(i, out)
            i += 1
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.trace = "finish"
    rel_error = wl.finish()
    return {"attempted": i, "failed": failed, "wall": wall,
            "latencies": latencies, "rel_error": rel_error,
            "failures": list(wl.failures)}


WORKLOADS = {w.name: w for w in (ApplyWindow, TrainStep, ErrorTable)}
