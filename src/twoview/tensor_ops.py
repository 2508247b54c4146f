"""Dense vector/matrix primitives: initializers, circular correlation,
tanh-affine maps and their pseudo-inverse, norm projection, and a
finite-difference gradient checker.

Training runs in 32-bit for throughput; everything that feeds a numerical
check (finite differences, pseudo-inverse round trips) should be handed
64-bit arrays, since central differences are unreliable in single precision.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import TwoViewError

log = logging.getLogger(__name__)


@dataclass
class AffineMap:
    """x -> W @ x + b with W of shape (d_out, d_in)."""

    W: np.ndarray
    b: np.ndarray

    @property
    def d_out(self) -> int:
        return self.W.shape[0]

    @property
    def d_in(self) -> int:
        return self.W.shape[1]


def init_unit_sphere(count: int, dim: int, rng: np.random.Generator,
                     dtype=np.float32) -> np.ndarray:
    """Sample ``count`` vectors uniformly from the unit sphere in R^dim.

    Standard Gaussians normalized to unit L2 norm; rows with numerically
    zero norm (immeasurably rare) are resampled.
    """
    if dim < 1:
        raise TwoViewError(f"dimension must be >= 1, got {dim}")
    if count < 0:
        raise TwoViewError(f"count must be >= 0, got {count}")
    out = rng.standard_normal((count, dim))
    norms = np.linalg.norm(out, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        out[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(out, axis=1)
    return (out / norms[:, None]).astype(dtype)


def init_orthogonal(d_out: int, d_in: int, rng: np.random.Generator,
                    dtype=np.float32) -> np.ndarray:
    """Random semi-orthogonal (d_out, d_in) matrix.

    Rows are orthonormal when d_out <= d_in, columns otherwise; obtained by
    QR of a Gaussian matrix with the sign fix that makes the factor
    Haar-distributed.  All singular values equal 1.
    """
    n, m = max(d_out, d_in), min(d_out, d_in)
    a = rng.standard_normal((n, m))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if d_out <= d_in:
        return q.T.astype(dtype)
    return q.astype(dtype)


def _circ_args(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.ndim not in (1, 2):
        raise TwoViewError(f"expected equal-shape vectors or (n, d) blocks, "
                           f"got {a.shape} vs {b.shape}")
    return a, b


def _windows(b: np.ndarray) -> np.ndarray:
    """Read-only (..., d, d) view w[..., k, i] = b[..., (k + i) % d] over one
    doubled copy of the rows of ``b``."""
    b2 = np.concatenate((b, b[..., :-1]), -1)
    w = np.ndarray(b.shape + b.shape[-1:], b2.dtype, b2, 0, b2.strides + b2.strides[-1:])
    w.flags.writeable = False
    return w


def circ_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Circular correlation: out[..., k] = sum_i a[..., i] * b[..., (k + i) % d].

    Vectors or (n, d) row blocks, row with row, per definition: one d-term
    ``np.einsum`` sum per output element over a window view of b, so a block
    row equals the 1-D call on it bitwise.  ``circ_correlation_fft`` is the
    FFT-based fast path.
    """
    a, b = _circ_args(a, b)
    return np.einsum("...ki,...i->...k", _windows(b), a)


def circ_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Circular convolution: out[..., k] = sum_i a[..., i] * b[..., (k - i) % d],
    as ``circ_correlation`` with a[..., (-j) % d] in place of a[..., i] (j = -i)."""
    a, b = _circ_args(a, b)
    flipped = np.concatenate((a[..., :1], a[..., :0:-1]), -1)   # a[..., (-j) % d]
    return np.einsum("...ki,...i->...k", _windows(b), flipped)


def circ_correlation_fft(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Transform-based circular correlation of vectors or (n, d) row blocks
    (FFT along the last axis); matches the definition to ~1e-4 relative."""
    a, b = _circ_args(a, b)
    return np.real(np.fft.ifft(np.conj(np.fft.fft(a)) * np.fft.fft(b))).astype(a.dtype)


def affine_tanh(m: AffineMap, x: np.ndarray) -> np.ndarray:
    """tanh(W @ x + b); accepts a single vector or a (n, d_in) batch.

    Outputs are strictly inside (-1, 1): floating-point tanh saturates to
    exactly +-1 for large inputs, so saturated values are pulled in by one
    ulp to keep the open-interval contract (and artanh finite).  Both forms
    go through one ``np.einsum`` (a vector is the b = 1 case), as
    ``objectives._pairs`` explains, so a batch row equals the 1-D
    call on it bitwise.
    """
    x = np.asarray(x)
    if x.shape[-1] != m.d_in:
        raise TwoViewError(
            f"input dim {x.shape[-1]} does not match map input dim {m.d_in}")
    z = np.einsum("...i,oi->...o", x, m.W)
    out = np.tanh(z + m.b)
    one = out.dtype.type(1.0)
    return np.clip(out, np.nextafter(-one, one), np.nextafter(one, -one))


# artanh's input is clipped to [-1 + PINV_CLAMP, 1 - PINV_CLAMP]
PINV_CLAMP = 1e-6


def affine_tanh_pinv(m: AffineMap, y: np.ndarray) -> np.ndarray:
    """Minimum-norm preimage of the tanh-affine map; accepts a single target
    or a (n, d_out) batch.

    Returns ``pinv(W) @ (artanh(clip(y, -1+delta, 1-delta)) - b)`` with
    delta = ``PINV_CLAMP``.  For well-conditioned W this is a left inverse
    on the row space.  One 64-bit SVD of W gives both the pseudo-inverse,
    with ``np.linalg.pinv``'s cutoff (singular values at most 1e-15 times
    the largest count as zero), and the condition number: a rank-deficient
    W is logged once per call.
    """
    y = np.asarray(y)
    if y.shape[-1] != m.d_out:
        raise TwoViewError(
            f"target dim {y.shape[-1]} does not match map output dim {m.d_out}")
    u, sv, vt = np.linalg.svd(np.asarray(m.W, np.float64), full_matrices=False)
    if sv[-1] < 1e-10 * sv[0]:
        log.warning("pseudo-inverting a rank-deficient map "
                    "(condition number %.3g)", sv[0] / max(sv[-1], 1e-300))
    sv_inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > 1e-15 * sv.max())
    w_pinv = (vt.T @ (sv_inv[:, None] * u.T)).astype(m.W.dtype, copy=False)
    z = np.arctanh(np.clip(y, -1.0 + PINV_CLAMP, 1.0 - PINV_CLAMP))
    return (z - m.b) @ w_pinv.T


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows of ``x``, or the vector, at unit norm, zero ones left zero; the
    norms sqrt(x . x) by ``np.vecdot``)."""
    norm = np.sqrt(np.vecdot(x, x))
    col = norm[..., None]
    return np.divide(x, col, out=np.zeros(x.shape, x.dtype), where=col > 0), norm


def project_rows_unit_norm(table: np.ndarray, rows: np.ndarray | list[int]) -> None:
    """In-place unit-norm projection of the selected rows of an embedding
    table, in float64: each row divided by sqrt of its ``add.reduce``d
    squares (``np.linalg.norm(axis=1)`` without its ``conj`` copy)."""
    rows = np.asarray(rows, dtype=np.intp)
    block = table[rows].astype(np.float64, copy=False)   # a copy either way
    norms = np.sqrt(np.add.reduce(block * block, axis=1))
    if np.any(norms == 0.0):
        raise TwoViewError("cannot normalize a zero embedding row")
    block /= norms[:, None]
    table[rows] = block


def finite_diff_check(loss_fn, grad: np.ndarray, point: np.ndarray,
                      eps: float = 1e-5) -> float:
    """Max symmetric relative error between ``grad`` and central differences.

    ``loss_fn`` maps a flat 64-bit parameter vector to a scalar; the error
    per coordinate is |analytic - numeric| / max(1e-8, |analytic| + |numeric|)
    and the maximum over coordinates is returned.
    """
    if eps <= 0:
        raise TwoViewError(f"eps must be positive, got {eps}")
    point = np.asarray(point, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != point.shape:
        raise TwoViewError(f"gradient shape {grad.shape} != point shape {point.shape}")
    worst = 0.0
    for i in range(point.size):
        shift = np.zeros_like(point)
        shift[i] = eps
        up = float(loss_fn(point + shift))
        down = float(loss_fn(point - shift))
        if not (np.isfinite(up) and np.isfinite(down)):
            raise TwoViewError(f"non-finite loss at probe coordinate {i}")
        numeric = (up - down) / (2.0 * eps)
        analytic = float(grad[i])
        err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
        worst = max(worst, err)
    return worst
