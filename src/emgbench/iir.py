"""Butterworth band-pass design and zero-phase filtering, in numpy.

`butter_bandpass` gives the second-order sections (SOS) that
`scipy.signal.butter(order, [low, high], "bandpass", fs=fs, output="sos")`
gives, and `sosfiltfilt` runs them forward and backward with scipy's
padding and steady-state initial conditions.

The filter runs all sections as one state space over blocks of L samples
(Burrus, "Block realization of digital filters", IEEE Trans. Audio
Electroacoust. 1972): one matrix product gives every block's zero-state
response and end state, and a short loop carries the state from block to
block. The block operators are built once per filter.
"""
from __future__ import annotations

import functools

import numpy as np

L = 64  # samples per block


def butter_bandpass(order: int, low: float, high: float, fs: float) -> np.ndarray:
    """Digital Butterworth band-pass as [order, 6] sections (b0 b1 b2 1 a1 a2).

    The analog prototype is moved to the band with pre-warped edges and
    mapped by the bilinear transform. Each pole pair takes its nearest
    zeros from the `order` zeros at +1 and the `order` at -1; the pairs
    nearest the unit circle come last and the gain sits on the first
    section, as in scipy's `zpk2sos`.
    """
    proto = -np.exp(1j * np.pi * np.arange(1 - order, order, 2) / (2 * order))
    lo, hi = 4.0 * np.tan(np.pi * np.array([low, high]) / fs)
    bw, wo = hi - lo, np.sqrt(lo * hi)
    lp = proto * bw / 2
    root = np.sqrt(lp**2 - wo**2)
    analog = np.concatenate([lp + root, lp - root])
    poles = (4.0 + analog) / (4.0 - analog)
    gain = bw**order * np.real(4.0**order / np.prod(4.0 - analog))

    # Pole pairs: a conjugate pair, or the two real poles an odd order can
    # give on a wide band. A pair's distance to the unit circle is its
    # nearest pole's, and that pole picks the zeros.
    tol = 100 * np.finfo(float).eps * np.abs(poles)
    reals = poles[np.abs(poles.imag) <= tol].real
    pairs = [(p, p.conjugate()) for p in poles[poles.imag > tol]]
    if reals.size:
        pairs.append(tuple(sorted(reals, key=lambda r: abs(1 - abs(r)))))
    pairs.sort(key=lambda pair: abs(1 - abs(pair[0])))

    sos = np.zeros((order, 6))
    left = {1.0: order, -1.0: order}
    for section, (p1, p2) in zip(range(order - 1, -1, -1), pairs):
        zeros = []
        for _ in range(2):
            z = 1.0 if abs(p1 - 1) < abs(p1 + 1) else -1.0
            z = z if left[z] else -z
            left[z] -= 1
            zeros.append(z)
        sos[section] = [1.0, -sum(zeros), zeros[0] * zeros[1],
                        1.0, -np.real(p1 + p2), np.real(p1 * p2)]
    sos[0, :3] *= gain
    return sos


def sosfiltfilt(
    sos: np.ndarray, x: np.ndarray, padtype: str = "odd", padlen: int | None = None
) -> np.ndarray:
    """Zero-phase filter of each row of the 2-D `x`, as scipy's
    `sosfiltfilt(sos, x, axis=1, padtype=padtype, padlen=padlen)`.

    `padtype` is "odd" or "even" reflection; `padlen` defaults to scipy's
    three filter lengths. Each pass starts in steady state, scaled by its
    first sample. The output is a new C-ordered array whose bytes do not
    depend on the memory layout of `x`.
    """
    if padlen is None:
        taps = 2 * len(sos) + 1 - min(np.sum(sos[:, 2] == 0), np.sum(sos[:, 5] == 0))
        padlen = 3 * int(taps)
    rows, n = x.shape
    if n <= padlen:
        raise ValueError(f"input length {n} must be greater than padlen {padlen}")
    ops = _block_operators(sos.tobytes())
    m = n + 2 * padlen
    buf = np.zeros((rows, -(-m // L) * L))
    buf[:, padlen : padlen + n] = x
    left, right = x[:, padlen:0:-1], x[:, -2 : -padlen - 2 : -1]
    if padtype == "odd":
        left, right = 2 * x[:, :1] - left, 2 * x[:, -1:] - right
    elif padtype != "even":
        raise ValueError(f"padtype must be 'odd' or 'even', got {padtype!r}")
    buf[:, :padlen] = left
    buf[:, padlen + n : m] = right

    scratch = np.empty((buf.size // L, ops[0].shape[1]))
    _filter_blocks(ops, buf, scratch)
    buf[:, :m] = buf[:, m - 1 :: -1]  # samples from m on only reach outputs from m on
    _filter_blocks(ops, buf, scratch)
    return np.ascontiguousarray(buf[:, padlen : m - padlen][:, ::-1])


def _steady_state(sos: np.ndarray) -> np.ndarray:
    """Per-section state of the cascade after a long unit step, as
    scipy's `sosfilt_zi`: each section in steady state for the DC level
    the sections before it pass."""
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for i, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        z0 = (b1 - a1 * b0 + b2 - a2 * b0) / (1 + a1 + a2)
        zi[i] = scale * z0, scale * (b2 - a2 * b0 - a2 * z0)
        scale *= (b0 + b1 + b2) / (1 + a1 + a2)
    return zi.ravel()


@functools.lru_cache(maxsize=16)
def _block_operators(key: bytes) -> tuple[np.ndarray, ...]:
    """For the cascade of sections in `key` (an SOS array's bytes), with
    state s (each section's two transposed-direct-form-II states) and a
    block u of L inputs: the block's outputs are u @ D + s @ C and its end
    state is u @ B + s @ A. Returns (D|B, C, A, zi) with D|B = [D B]
    so one product gives both, and zi the steady state per unit input."""
    sos = np.frombuffer(key).reshape(-1, 6)
    k = 2 * len(sos)
    a, b = np.zeros((k, k)), np.zeros(k)  # s' = a @ s + b * x
    cu, du = np.zeros(k), 1.0  # the section's input is cu @ s + du * x
    for i, (b0, b1, b2, _, a1, a2) in enumerate(sos):
        z0, z1 = 2 * i, 2 * i + 1
        g1, g2 = b1 - a1 * b0, b2 - a2 * b0
        a[z0], b[z0] = g1 * cu, g1 * du
        a[z0, z0] -= a1
        a[z0, z1] += 1.0
        a[z1], b[z1] = g2 * cu, g2 * du
        a[z1, z0] -= a2
        cu, du = b0 * cu, b0 * du  # the section's output feeds the next
        cu[z0] += 1.0
    c, d = cu, du
    powers = [np.eye(k)]  # a^t
    for _ in range(L):
        powers.append(a @ powers[-1])
    impulse = np.array([d] + [c @ powers[t] @ b for t in range(L - 1)])
    toeplitz = np.zeros((L, L))
    for j in range(L):
        toeplitz[j, j:] = impulse[: L - j]
    into_state = np.stack([powers[L - 1 - j] @ b for j in range(L)])
    from_state = np.stack([c @ powers[t] for t in range(L)], axis=1)
    ops = (np.hstack([toeplitz, into_state]), from_state, powers[L].T, _steady_state(sos))
    for op in ops:
        op.flags.writeable = False  # shared by every call through the cache
    return ops


def _filter_blocks(ops: tuple[np.ndarray, ...], u: np.ndarray, scratch: np.ndarray) -> None:
    """Filter each row of the C-ordered u ([rows, blocks * L]) in place,
    from the steady state scaled by the row's first sample; scratch
    ([rows * blocks, L + 2 * sections]) takes the zero-state products."""
    zero_state, from_state, carry, zi = ops
    rows, blocks = u.shape[0], u.shape[1] // L
    flat = u.reshape(rows * blocks, L)
    s = u[:, :1] * zi
    zs = np.matmul(flat, zero_state, out=scratch)
    ends = zs[:, L:].reshape(rows, blocks, -1)
    states = np.empty_like(ends)
    for j in range(blocks):
        states[:, j] = s
        s = s @ carry + ends[:, j]
    np.matmul(states.reshape(rows * blocks, -1), from_state, out=flat)
    flat += zs[:, :L]
