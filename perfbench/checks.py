"""Checks of the program's outputs against references computed here.

The references come from `np.fft` and from numpy linear algebra, never from
the package's own oracle. Every check returns a list of failure messages;
an empty list means the check passed.
"""

from __future__ import annotations

import numpy as np

from butterfly_dft import training


def fft_window(X: np.ndarray, K0: int, K: int) -> np.ndarray:
    """Rows of the exact windowed transform: np.fft.fft(x)[K0:K0+K]."""
    return np.fft.fft(X, axis=-1)[..., K0:K0 + K]


def row_errors(Y: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-row ||y - ref|| / ||ref||."""
    return np.linalg.norm(Y - ref, axis=1) / np.linalg.norm(ref, axis=1)


def check_rows(Y, ref: np.ndarray, tol: float, what: str) -> list[str]:
    """Every row of Y within `tol` relative of the same row of `ref`."""
    Y = np.asarray(Y)
    if Y.shape != ref.shape:
        return [f"{what}: shape {Y.shape}, expected {ref.shape}"]
    worst = float(np.max(row_errors(Y, ref)))
    if not worst <= tol:  # also catches NaN
        return [f"{what}: worst row error {worst:.3e} > {tol:.0e}"]
    return []


def random_direction(factors, rng) -> dict[str, np.ndarray]:
    """A complex direction on the non-zero weight slots only.

    At the butterfly initialization the non-zero slots are exactly the ones
    the structure allows. The program's gradient is zero outside them, so a
    direction with mass there would compare it against a derivative it does
    not claim to compute.
    """
    return {
        name: (W != 0)
        * (rng.standard_normal(W.shape) + 1j * rng.standard_normal(W.shape))
        for name, W in factors.weights().items()
    }


def check_gradient(factors, batch, grads, rng, tol: float = 1e-6) -> list[str]:
    """Central difference of training.loss along D against Re<grad, D>."""
    D = random_direction(factors, rng)
    w_norm = np.sqrt(sum(np.vdot(W, W).real for W in factors.weights().values()))
    d_norm = np.sqrt(sum(np.vdot(d, d).real for d in D.values()))
    h = 1e-6 * w_norm / d_norm

    def shifted(step):
        f = factors.copy()
        for name, W in f.weights().items():
            W += step * D[name]
        return training.loss(f, batch)

    fd = (shifted(h) - shifted(-h)) / (2 * h)
    analytic = sum(np.vdot(grads[name], D[name]).real for name in D)
    if not abs(fd - analytic) <= tol * abs(analytic):
        return [f"gradient: finite difference {fd:.9e} vs Re<grad, D> "
                f"{analytic:.9e}"]
    return []


def norm_p(A: np.ndarray, p) -> float:
    """Induced matrix p-norm; p = 2 from the eigenvalues of the Gram matrix,
    a different algorithm from the SVD the program uses."""
    if p == 1:
        return float(np.abs(A).sum(axis=0).max())
    if p == np.inf:
        return float(np.abs(A).sum(axis=1).max())
    gram = A @ A.conj().T if A.shape[0] <= A.shape[1] else A.conj().T @ A
    return float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))


def check_close(got: float, want: float, tol: float, what: str) -> list[str]:
    if not abs(got - want) <= tol * abs(want):
        return [f"{what}: {got:.12e} vs reference {want:.12e}"]
    return []


def check_depth_decay(eps: dict, factor: float = 50.0) -> list[str]:
    """eps[(K, L, L_xi, p)] falls by `factor` or more per added level L."""
    failures = []
    for (K, L, L_xi, p), value in sorted(eps.items(), key=str):
        deeper = eps.get((K, L + 1, L_xi, p))
        if deeper is not None and not deeper <= value / factor:
            failures.append(
                f"depth decay K={K} L_xi={L_xi} p={p}: L={L} {value:.3e} "
                f"-> L={L + 1} {deeper:.3e}, less than {factor:g}x")
    return failures
