"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload apply-window --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. BLAS and OpenMP are pinned to one thread before numpy loads (the
package's own `--threads` flag takes effect too late to do this).

--trace 0 prints the end-to-end metrics. --trace 1 first runs the same timed
phase untraced, then again, on the same inputs, with every layer boundary
wrapped in a span; it prints the per-layer metrics and writes the spans to
perfbench/traces/<workload>-seed<seed>.json. The last line of standard
output is always the result object.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
FACTOR_KINDS = "VHMGU"


def _import_package():
    """Import butterfly_dft from this checkout's src/, or explain why not."""
    sys.path.insert(0, SRC)
    try:
        import butterfly_dft
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import butterfly_dft from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(butterfly_dft.__file__))
    if os.path.dirname(where) != SRC:
        raise SystemExit(f"run.py: butterfly_dft imported from {where}, not {SRC}")


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "process_threads": len(os.listdir("/proc/self/task"))
        if os.path.isdir("/proc/self/task") else None,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def percentile_ms(latencies, q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3


def end_to_end(phase: dict, setup_s: float) -> dict:
    done = phase["attempted"] - phase["failed"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (done / phase["wall"], "op/s"),
        "op_p50_ms": (percentile_ms(phase["latencies"], 50), "ms"),
        "op_p90_ms": (percentile_ms(phase["latencies"], 90), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "rel_error": (phase["rel_error"], "1"),
    }


def per_layer(wl, tracer, phase: dict, untraced: dict) -> dict:
    """Self time per layer, per op of the traced phase, plus the computed
    weight and multiply-add counts. The two layers that run once per run,
    butterfly_init in set-up and evaluate after the phase, report their
    whole duration, children included."""
    self_ns = tracer.self_ns()
    ops = phase["attempted"]
    op_ms, op_calls, setup_ms, finish_ms = {}, {}, {}, {}
    for s in tracer.spans:
        key = s.name if s.tag is None else f"{s.name}.{s.tag}"
        if s.name.startswith("operator.layer_"):  # by factor kind: H3 -> H
            key = f"{s.name}.{s.tag[0]}"
        ms = self_ns[s.id] / 1e6
        if isinstance(s.trace, int):
            op_ms[key] = op_ms.get(key, 0.0) + ms
            op_calls[key] = op_calls.get(key, 0) + 1
        elif s.trace in ("setup", "finish"):  # once per run: inclusive
            once = setup_ms if s.trace == "setup" else finish_ms
            once[key] = once.get(key, 0.0) + s.duration_ns / 1e6

    def per_op(key):
        return op_ms.get(key, 0.0) / ops

    m = {}
    for kind in FACTOR_KINDS:
        m[f"operator.forward.{kind}_ms"] = (
            per_op(f"operator.layer_apply.{kind}"), "ms")
    for kind in FACTOR_KINDS:
        m[f"operator.backward.{kind}_ms"] = (
            per_op(f"operator.layer_backward.{kind}"), "ms")
    c = wl.counts()
    m["operator.weights_stored"] = (c["stored"], "count")
    m["operator.weights_allowed"] = (c["allowed"], "count")
    m["operator.weights_allowed_fraction"] = (c["allowed"] / c["stored"], "1")
    m["operator.macs_performed"] = (c["macs_stored"] * c["passes"], "count")
    m["operator.macs_useful"] = (c["macs_allowed"] * c["passes"], "count")
    m["factors.butterfly_init_ms"] = (
        setup_ms.get("factors.butterfly_init", 0.0), "ms")
    m["dataset.fresh_batch_ms"] = (per_op("dataset.fresh_batch"), "ms")
    m["oracle.window_kernel_ms"] = (per_op("oracle.window_kernel"), "ms")
    m["oracle.window_kernel_calls"] = (
        op_calls.get("oracle.window_kernel", 0) / ops, "count")
    m["training.gradient_ms"] = (per_op("training.gradient"), "ms")
    m["training.adam_step_ms"] = (per_op("training.Adam.step"), "ms")
    m["training.evaluate_ms"] = (finish_ms.get("training.evaluate", 0.0), "ms")
    m["factors.materialize_ms"] = (per_op("factors.materialize"), "ms")
    m["factors.materialize_calls"] = (
        op_calls.get("factors.materialize", 0) / ops, "count")
    m["oracle.dense_kernel_ms"] = (per_op("oracle.dense_kernel"), "ms")
    m["oracle.dense_kernel_calls"] = (
        op_calls.get("oracle.dense_kernel", 0) / ops, "count")
    for p in ("p1", "p2", "pinf"):
        m[f"metrics.matrix_norm_{p}_ms"] = (
            per_op(f"metrics.matrix_norm.{p}"), "ms")
    m["trace.overhead_ms"] = (
        percentile_ms(phase["latencies"], 50)
        - percentile_ms(untraced["latencies"], 50), "ms")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from spans import Tracer
    from workloads import WORKLOADS, timed_phase

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    env = environment()
    print(json.dumps({"env": env}), flush=True)

    wl = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.trace = "setup"
        with tracer.installed():
            wl.setup(args.seed)
    else:
        wl.setup(args.seed)
    setup_s = time.perf_counter() - T0

    phase = timed_phase(wl, args.seconds)
    phases = [phase]
    if tracer is None:
        metrics = end_to_end(phase, setup_s)
    else:
        with tracer.installed():
            traced = timed_phase(wl, args.seconds, tracer)
        phases.append(traced)
        metrics = per_layer(wl, tracer, traced, phase)
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        tracer.write_json(
            os.path.join(HERE, "traces", f"{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "env": env,
             "ops": traced["attempted"]})

    failures = [f for p in phases for f in p["failures"]]
    for f in failures[:20]:
        print(f"CHECK FAILED: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
