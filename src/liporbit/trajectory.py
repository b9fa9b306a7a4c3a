"""Truncated Fourier model of T-periodic loops q: R/TZ -> R^n.

A loop is stored as real Fourier data

    q(t) = a0 + sum_{k=1..K} a_k cos(w_k t) + b_k sin(w_k t),   w_k = 2*pi*k/T,

which is the discrete stand-in for the Sobolev space W^{1,2}(R/TZ, R^n).
The constant part a0 spans the finite-dimensional subspace of constant
loops; the oscillating modes span its zero-mean complement.  Norms and
inner products are evaluated exactly by Parseval; l2_norm_row takes the
L2 norm straight from a coefficient row, the layout the batched action
core works in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

def _as_coeff(x, n: int, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1] != n:
        raise ValueError(f"{name} has dimension {arr.shape[-1]}, expected {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class PeriodicTrajectory:
    """A T-periodic loop in R^n held as K real Fourier modes."""

    T: float
    a0: np.ndarray          # (n,)
    a: np.ndarray           # (K, n) cosine coefficients, k = 1..K
    b: np.ndarray           # (K, n) sine coefficients, k = 1..K

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError(f"period must be finite and positive, got {self.T}")
        a0 = np.atleast_1d(np.asarray(self.a0, dtype=float))
        n = a0.shape[0]
        a = np.atleast_2d(_as_coeff(self.a, n, "a"))
        b = np.atleast_2d(_as_coeff(self.b, n, "b"))
        if a.shape != b.shape:
            raise ValueError(f"cosine/sine blocks disagree: {a.shape} vs {b.shape}")
        if a.shape[0] < 1:
            raise ValueError("need at least one oscillating mode (K >= 1)")
        _as_coeff(a0, n, "a0")
        for name, arr in (("a0", a0), ("a", a), ("b", b)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    # -- basic shape -------------------------------------------------

    @property
    def n(self) -> int:
        return self.a0.shape[0]

    @property
    def K(self) -> int:
        return self.a.shape[0]

    @property
    def omegas(self) -> np.ndarray:
        """Angular frequencies w_k = 2*pi*k/T for k = 1..K."""
        return 2.0 * np.pi * np.arange(1, self.K + 1) / self.T

    @classmethod
    def zero(cls, T: float, n: int, K: int) -> "PeriodicTrajectory":
        return cls(T, np.zeros(n), np.zeros((K, n)), np.zeros((K, n)))

    @classmethod
    def constant(cls, T: float, value, K: int = 1) -> "PeriodicTrajectory":
        value = np.atleast_1d(np.asarray(value, dtype=float))
        n = value.shape[0]
        return cls(T, value, np.zeros((K, n)), np.zeros((K, n)))

    @classmethod
    def harmonic(cls, T: float, n: int, k: int, axis: int = 0,
                 cos_amp: float = 0.0, sin_amp: float = 1.0,
                 K: int | None = None) -> "PeriodicTrajectory":
        """Single mode cos_amp*cos(w_k t) + sin_amp*sin(w_k t) along one axis."""
        K = k if K is None else K
        if K < k:
            raise ValueError(f"K={K} cannot hold mode k={k}")
        a = np.zeros((K, n))
        b = np.zeros((K, n))
        a[k - 1, axis] = cos_amp
        b[k - 1, axis] = sin_amp
        return cls(T, np.zeros(n), a, b)

    @classmethod
    def from_coefficients(cls, T: float, coeffs: np.ndarray) -> "PeriodicTrajectory":
        """Inverse of :meth:`coefficients`: rows [a0; a_1..a_K; b_1..b_K]."""
        K = (coeffs.shape[0] - 1) // 2
        return cls(T, coeffs[0], coeffs[1:K + 1], coeffs[K + 1:])

    def coefficients(self) -> np.ndarray:
        """Rows [a0; a_1..a_K; b_1..b_K], shape (2K+1, n).

        The layout the batched action core stacks loops in.
        """
        return np.concatenate([self.a0[None], self.a, self.b])

    # -- evaluation --------------------------------------------------

    def evaluate(self, t) -> np.ndarray:
        """Value of the trigonometric sum at time(s) t (taken mod T)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        phase = np.outer(t_arr, self.omegas)           # (m, K)
        out = (np.cos(phase) @ self.a) + (np.sin(phase) @ self.b) + self.a0
        if np.ndim(t) == 0:
            return out[0]
        return out

    def grid(self, N: int) -> np.ndarray:
        """Uniform periodic grid t_j = j*T/N, j = 0..N-1 (endpoint omitted)."""
        return np.arange(N) * (self.T / N)

    def sample(self, N: int) -> np.ndarray:
        """Values on the uniform N-point grid, shape (N, n).

        Uses an inverse FFT when the grid resolves all modes, which is
        exact for this band-limited representation.
        """
        if N >= 2 * self.K + 2:
            spec = np.zeros((N // 2 + 1, self.n), dtype=complex)
            spec[0] = self.a0 * N
            spec[1:self.K + 1] = (self.a - 1j * self.b) * (N / 2.0)
            return np.fft.irfft(spec, n=N, axis=0)
        return self.evaluate(self.grid(N))

    @classmethod
    def from_samples(cls, values: np.ndarray, T: float,
                     K: int | None = None) -> "PeriodicTrajectory":
        """Fit Fourier modes 0..K to uniform periodic samples, shape (N, n).

        For a band-limited signal with K <= (N-2)/2 this is an exact
        round trip of :meth:`sample`; otherwise it is the spectral
        truncation of the sampled signal.
        """
        values = np.atleast_2d(np.asarray(values, dtype=float))
        if values.ndim != 2:
            raise ValueError("expected samples of shape (N, n)")
        N = values.shape[0]
        if K is None:
            K = (N - 2) // 2
        if K < 1 or N < 2 * K + 2:
            raise ValueError(f"need N >= 2K+2 samples, got N={N}, K={K}")
        spec = np.fft.rfft(values, axis=0)
        a0 = spec[0].real / N
        a = 2.0 * spec[1:K + 1].real / N
        b = -2.0 * spec[1:K + 1].imag / N
        return cls(T, a0, a, b)

    # -- calculus ----------------------------------------------------

    def derivative(self) -> "PeriodicTrajectory":
        """Coefficient-wise d/dt (derivative_rows)."""
        return PeriodicTrajectory.from_coefficients(
            self.T, derivative_rows(self.coefficients(), self.T))

    def mean(self) -> np.ndarray:
        """Time average (1/T) int_0^T q dt = a0."""
        return self.a0.copy()

    def time_shift(self, delta: float) -> "PeriodicTrajectory":
        """The loop t -> q(t - delta), computed exactly on coefficients."""
        c = np.cos(self.omegas * delta)[:, None]
        s = np.sin(self.omegas * delta)[:, None]
        return PeriodicTrajectory(self.T, self.a0,
                                  self.a * c - self.b * s,
                                  self.a * s + self.b * c)

    def pad_modes(self, K: int) -> "PeriodicTrajectory":
        if K < self.K:
            raise ValueError(f"cannot pad down from K={self.K} to {K}")
        if K == self.K:
            return self
        pad = np.zeros((K - self.K, self.n))
        return PeriodicTrajectory(self.T, self.a0,
                                  np.vstack([self.a, pad]),
                                  np.vstack([self.b, pad]))

    def __add__(self, other: "PeriodicTrajectory") -> "PeriodicTrajectory":
        s, o = _aligned(self, other)
        return PeriodicTrajectory(s.T, s.a0 + o.a0, s.a + o.a, s.b + o.b)

    def __mul__(self, c: float) -> "PeriodicTrajectory":
        c = float(c)
        return PeriodicTrajectory(self.T, c * self.a0, c * self.a, c * self.b)

    __rmul__ = __mul__

    # -- serialization -----------------------------------------------

    def to_dict(self) -> dict:
        return {
            "T": float(self.T),
            "n": self.n,
            "K": self.K,
            "a0": self.a0.tolist(),
            "a": self.a.tolist(),
            "b": self.b.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PeriodicTrajectory":
        traj = cls(float(d["T"]), np.asarray(d["a0"], dtype=float),
                   np.asarray(d["a"], dtype=float), np.asarray(d["b"], dtype=float))
        if "n" in d and int(d["n"]) != traj.n:
            raise ValueError(f"declared n={d['n']} but coefficients have n={traj.n}")
        if "K" in d and int(d["K"]) != traj.K:
            raise ValueError(f"declared K={d['K']} but coefficients have K={traj.K}")
        return traj

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PeriodicTrajectory":
        return cls.from_dict(json.loads(text))

    def to_csv(self, N: int | None = None) -> str:
        """Sampled CSV with columns t, q_1..q_n, qdot_1..qdot_n.

        Each value is written as repr of its float.
        """
        N = default_grid_size(self.K) if N is None else N
        header = ",".join(["t"] + [f"q_{i+1}" for i in range(self.n)]
                          + [f"qdot_{i+1}" for i in range(self.n)])
        rows = np.column_stack([self.grid(N), self.sample(N), self.derivative().sample(N)])
        return "\n".join([header] + [",".join(map(repr, row)) for row in rows.tolist()]) + "\n"


def default_grid_size(K: int) -> int:
    """Quadrature grid size 4K+4: 2x oversampling of the 2K+2 round-trip grid."""
    return 4 * K + 4


def _aligned(p: PeriodicTrajectory, q: PeriodicTrajectory):
    if p.T != q.T:
        raise ValueError(f"period mismatch: {p.T} vs {q.T}")
    if p.n != q.n:
        raise ValueError(f"dimension mismatch: {p.n} vs {q.n}")
    K = max(p.K, q.K)
    return p.pad_modes(K), q.pad_modes(K)


def l2_norm_row(c: np.ndarray, T: float) -> float:
    """L2 norm of the loop of period T with coefficient row c (2K+1, n),
    by Parseval: sqrt(T |a0|^2 + (T/2) sum_k (|a_k|^2 + |b_k|^2))."""
    K = (c.shape[0] - 1) // 2
    a, b = c[1:K + 1], c[K + 1:]
    val = T * float(c[0] @ c[0]) + 0.5 * T * float(np.sum(a * a) + np.sum(b * b))
    return float(np.sqrt(max(val, 0.0)))


def l2_norm(q: PeriodicTrajectory) -> float:
    return l2_norm_row(q.coefficients(), q.T)


def derivative_rows(c: np.ndarray, T: float) -> np.ndarray:
    """Coefficient rows (..., 2K+1, n) of d/dt of the loops of period T
    with rows c: a_k -> w_k b_k, b_k -> -w_k a_k, a0 -> 0."""
    K = (c.shape[-2] - 1) // 2
    w = (2.0 * np.pi * np.arange(1, K + 1) / T)[:, None]
    out = np.zeros_like(c)
    out[..., 1:K + 1, :] = w * c[..., K + 1:, :]
    out[..., K + 1:, :] = -w * c[..., 1:K + 1, :]
    return out


def h1_norm_row(c: np.ndarray, T: float) -> float:
    """h1_norm of the loop of period T with coefficient row c (2K+1, n)."""
    K = (c.shape[0] - 1) // 2
    q0 = c[0] + c[1:K + 1].sum(axis=0)
    return l2_norm_row(derivative_rows(c, T), T) + float(np.linalg.norm(q0))


def h1_norm(q: PeriodicTrajectory) -> float:
    """Equivalent W^{1,2} norm (int |qdot|^2)^{1/2} + |q(0)|."""
    return h1_norm_row(q.coefficients(), q.T)


def random_trajectory(rng: np.random.Generator, T: float, n: int, K: int,
                      zero_mean: bool = False, decay: float = 1.5) -> PeriodicTrajectory:
    """Random loop with mode-k amplitudes damped like k^-decay (stays in H^1)."""
    scale = np.arange(1, K + 1, dtype=float) ** (-decay)
    a = rng.standard_normal((K, n)) * scale[:, None]
    b = rng.standard_normal((K, n)) * scale[:, None]
    a0 = np.zeros(n) if zero_mean else rng.standard_normal(n)
    return PeriodicTrajectory(T, a0, a, b)
