"""Reference figures for perfbench/README.md, printed as markdown tables.

For each workload geometry: the forward self time of every factor from the
span tracer (batch 16), `apply_batch` at batch 1/16/256, and two baselines
on the same inputs, `np.fft.fft(x)[K0:K0+K]` and a dense K x N matmul. Every
figure is the median and interquartile range over REPS repetitions.

    python3 perfbench/reference.py
"""

import run  # first: pins BLAS threads before numpy loads

run._import_package()

import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from butterfly_dft import factors, geometry, operator, oracle  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import ApplyWindow, TrainStep  # noqa: E402

REPS = 21
BATCHES = (1, 16, 256)
GEOMETRIES = {
    "apply-window": ApplyWindow.GEOMETRY,
    "train-step": TrainStep.GEOMETRY,
    "error-table, K=64 row": dict(N=1024, K=64, K0=0, L=6, L_xi=2, r=8),
    "error-table, K=256 row": dict(N=1024, K=256, K0=0, L=8, L_xi=2, r=8),
}


def summary(seconds) -> str:
    q1, q2, q3 = statistics.quantiles([s * 1e3 for s in seconds], n=4)
    return f"{q2:.3f} ({q3 - q1:.3f})"


def repeat(fn) -> list[float]:
    times = []
    for _ in range(REPS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return times


def factor_table(F, X) -> None:
    tracer = Tracer()
    with tracer.installed():
        for rep in range(REPS):
            tracer.trace = rep
            operator.apply_batch(F, X)
    self_ns = tracer.self_ns()
    per_factor = {}
    for s in tracer.spans:
        if s.name == "operator.layer_apply":
            per_factor.setdefault(s.tag, []).append(self_ns[s.id] / 1e9)
    weights = F.weights()
    print("| factor | stored weights | allowed share | forward ms, median (IQR) |")
    print("| --- | ---: | ---: | ---: |")
    for name in F.factor_names():
        W = weights[name]
        share = np.count_nonzero(W) / W.size
        print(f"| {name} | {W.size} | {share:.3f} | {summary(per_factor[name])} |")


def main() -> None:
    rng = np.random.default_rng(0)
    for label, geo in GEOMETRIES.items():
        g = geometry.build_geometry(**geo)
        F = factors.butterfly_init(g)
        X = rng.standard_normal((max(BATCHES), g.N))
        print(f"\n#### {label}: N={g.N}, K={g.K}, K0={g.K0}, L={g.L}, "
              f"L_xi={g.L_xi}, r={g.r}\n")
        factor_table(F, X[:16])
        Kd = oracle.window_kernel(g.N, g.K0, g.K)
        print("\n| batch | apply_batch ms | np.fft slice ms | dense matmul ms |")
        print("| ---: | ---: | ---: | ---: |")
        for b in BATCHES:
            Xb = X[:b]
            cells = [
                repeat(lambda: operator.apply_batch(F, Xb)),
                repeat(lambda: np.fft.fft(Xb, axis=1)[:, g.K0:g.K0 + g.K]),
                repeat(lambda: Xb @ Kd.T),
            ]
            print(f"| {b} | " + " | ".join(summary(c) for c in cells) + " |")
        del Kd


if __name__ == "__main__":
    main()
