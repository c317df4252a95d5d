"""Portable deterministic random number generation.

Experiment instances must be bit-reproducible from an integer seed across
implementations, so nothing here depends on numpy's generators.  The
algorithm is SplitMix64 (Steele, Lea, Flood's 64-bit mixer with the golden
gamma 0x9E3779B97F4A7C15):

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state; z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31

Uniforms take the top 53 bits of z mapped to (0, 1] via (bits + 1) * 2^-53.
Gaussians come from the Box-Muller transform; each pair consumes two
consecutive uniforms (u1 then u2), and each complex standard-normal entry
consumes exactly one pair:

    z = (r cos(2 pi u2) + i r sin(2 pi u2)) / sqrt(2),  r = sqrt(-2 ln u1),

filled in row-major order.  The counter form of SplitMix64 (the n-th output
is mix(state0 + n * gamma)) lets all draws be computed in bulk with wrapping
uint64 arithmetic without changing the stream.  Sub-streams for
(seed, trial, component) come from `derive_seed`, which folds each path
index into the state with the same mixer.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    # Python ints, not bulk_u64's arrays: derive_seed mixes one value at a time,
    # and a one-element uint64 array makes derive_seed(seed, 3, 2) take 39 us
    # instead of 3.3 us (numpy 2.4.6, 2 cores)
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, *path: int) -> int:
    """Child seed for a component addressed by integer path indices.

    derive_seed(s) == mix(s); each extra index p folds in as
    state <- mix(state + (p + 1) * golden_gamma).  Distinct paths give
    independent-looking streams and the scheme is trivially portable.
    """
    s = _mix(int(seed) & _MASK64)
    for p in path:
        s = _mix((s + ((int(p) + 1) * _GOLDEN)) & _MASK64)
    return s


class SplitMix64:
    """SplitMix64 stream with uniform, Gaussian, and complex-matrix draws."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def bulk_u64(self, n: int) -> np.ndarray:
        """Next n raw outputs as uint64, advancing the state by n steps."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        steps = np.arange(1, n + 1, dtype=np.uint64)
        z = (np.uint64(self._state) + steps * np.uint64(_GOLDEN))  # wraps mod 2^64
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform doubles in (0, 1] from the top 53 bits of each output."""
        bits = self.bulk_u64(n) >> np.uint64(11)
        return (bits.astype(np.float64) + 1.0) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n real standard normals via Box-Muller (pairs drawn, tail discarded)."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        r = np.sqrt(-2.0 * np.log(u[0::2]))
        ang = 2.0 * np.pi * u[1::2]
        out = np.empty(2 * pairs, dtype=np.float64)
        out[0::2] = r * np.cos(ang)
        out[1::2] = r * np.sin(ang)
        return out[:n]

    def complex_normal(self, rows: int, cols: int) -> np.ndarray:
        """rows x cols matrix of unit-variance complex Gaussians, row-major.

        Each entry is (z0 + i z1)/sqrt(2) from one Box-Muller pair, so
        E|entry|^2 = 1.
        """
        z = self.normals(2 * rows * cols)
        flat = (z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)
        return flat.reshape(rows, cols)

    def complex_normal_stack(self, count: int, rows: int, cols: int) -> np.ndarray:
        """count x rows x cols stack, matrices drawn sequentially."""
        return self.complex_normal(count * rows, cols).reshape(count, rows, cols)
