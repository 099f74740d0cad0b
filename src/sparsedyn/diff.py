"""Numerical differentiation along one axis of sampled data.

Three engines share one interface: arbitrary-order finite differences on
arbitrary (possibly nonuniform) nodes, Savitzky-Golay polynomial-filtered
derivatives, and spectral derivatives with an optional exponential low-pass
filter.  All engines return an array of the same length as the input, using
one-sided stencils / shifted windows / periodic wrap-around at the boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import Dataset, _is_uniform
from .errors import DataError, SpecError


@dataclass(frozen=True)
class FiniteDifference:
    """Centered stencils of accuracy ``order`` (even), one-sided at edges.

    Stencil weights are generated for the actual node locations, so nonuniform
    axes are handled; for even derivative orders the centered stencil realizes
    the stated accuracy on uniform axes (one order lower on strongly nonuniform
    ones, where the symmetry gain is lost).
    """

    order: int = 2
    d: int = 1

    def validate(self, d: int) -> None:
        if self.order < 2 or self.order % 2 != 0:
            raise SpecError(f"finite-difference order must be even >= 2, got {self.order}")
        if d < 1:
            raise SpecError(f"derivative order must be >= 1, got {d}")


@dataclass(frozen=True)
class SavitzkyGolay:
    """Local least-squares polynomial fit per window, derivative at center."""

    window: int = 11
    poly_order: int = 3
    d: int = 1

    def validate(self, d: int) -> None:
        if self.window < 5 or self.window % 2 == 0:
            raise SpecError(f"window must be odd >= 5, got {self.window}")
        if self.poly_order < 2:
            raise SpecError(f"poly_order must be >= 2, got {self.poly_order}")
        if self.poly_order >= self.window:
            raise SpecError(
                f"poly_order {self.poly_order} must be < window {self.window}"
            )
        if self.poly_order < d:
            raise SpecError(
                f"poly_order {self.poly_order} must be >= derivative order {d}"
            )


@dataclass(frozen=True)
class Spectral:
    """Fourier differentiation; assumes a uniform axis and periodic data.

    ``filter_strength`` controls an exponential eighth-order low-pass filter
    exp(-strength * (k/k_max)^8) applied before inversion.
    """

    filter_strength: float = 0.0
    d: int = 1

    def validate(self, d: int) -> None:
        if self.filter_strength < 0:
            raise SpecError(
                f"filter_strength must be >= 0, got {self.filter_strength}"
            )
        if d < 1:
            raise SpecError(f"derivative order must be >= 1, got {d}")


DiffMethod = Union[FiniteDifference, SavitzkyGolay, Spectral]


def fd_weights(nodes: np.ndarray, x0: float, d: int) -> np.ndarray:
    """Stencil weights for the d-th derivative at x0 from samples at ``nodes``.

    Interpolating-polynomial weight recursion (Fornberg 1988); exact for
    polynomials of degree ``len(nodes) - 1`` on arbitrary node locations.
    """
    nodes = np.asarray(nodes, dtype=float)
    s = len(nodes)
    if s < d + 1:
        raise SpecError(f"need at least {d + 1} nodes for derivative {d}, got {s}")
    c = np.zeros((s, d + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = nodes[0] - x0
    for i in range(1, s):
        mn = min(i, d)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, d]


def _stencil_sizes(order: int, d: int) -> tuple[int, int]:
    # interior: smallest centered (odd) stencil achieving the accuracy order;
    # boundary: one-sided windows need d + order points for the same order.
    interior = order + d if d % 2 == 1 else order + d - 1
    return interior, order + d


def _fd_along_last(values: np.ndarray, axis: np.ndarray, d: int, order: int) -> np.ndarray:
    L = axis.size
    s_int, s_bnd = _stencil_sizes(order, d)
    if L < s_bnd:
        raise DataError(
            f"axis length {L} too short for finite differences with "
            f"order={order}, d={d} (needs >= {s_bnd} points)"
        )
    out = np.empty_like(values, dtype=float)
    half = s_int // 2
    lo, hi = half, L - (s_int - 1 - half)  # interior point range [lo, hi)

    windows = sliding_window_view(values, s_int, axis=-1)
    if _is_uniform(axis):
        h = (axis[-1] - axis[0]) / (L - 1)
        offsets = (np.arange(s_int) - half) * h
        w = fd_weights(offsets, 0.0, d)
        out[..., lo:hi] = windows @ w
    else:
        W = np.empty((hi - lo, s_int))
        for j in range(hi - lo):
            W[j] = fd_weights(axis[j : j + s_int], axis[j + half], d)
        out[..., lo:hi] = np.einsum("...js,js->...j", windows, W)

    for i in range(lo):
        w = fd_weights(axis[:s_bnd], axis[i], d)
        out[..., i] = values[..., :s_bnd] @ w
    for i in range(hi, L):
        w = fd_weights(axis[L - s_bnd :], axis[i], d)
        out[..., i] = values[..., L - s_bnd :] @ w
    return out


def _sg_weights(nodes: np.ndarray, at: np.ndarray, d: int, poly_order: int) -> np.ndarray:
    """Weights ``(..., k, w)`` giving the d-th derivative at ``at`` ``(..., k)``
    of the degree-``poly_order`` least-squares polynomial through samples at
    ``nodes`` ``(..., w)``; leading axes are a batch of windows.

    Each window is mapped onto [-1, 1] so the Vandermonde matrix stays well
    conditioned; ``pinv`` of it turns samples into polynomial coefficients.
    """
    center = nodes.mean(axis=-1, keepdims=True)
    half_width = (nodes[..., -1:] - nodes[..., :1]) / 2.0
    powers = np.arange(poly_order + 1)
    coef = np.linalg.pinv(((nodes - center) / half_width)[..., None] ** powers)
    k = powers[d:]
    falling = np.array([factorial(i) // factorial(i - d) for i in k], dtype=float)
    deriv = falling * ((at - center) / half_width)[..., None] ** (k - d)
    return deriv @ coef[..., d:, :] / half_width[..., None] ** d


def _sg_along_last(
    values: np.ndarray, axis: np.ndarray, d: int, window: int, poly_order: int
) -> np.ndarray:
    # Interior points sit at the center of their window; the first and last
    # ``half`` points share the end windows (one polynomial fit per end,
    # evaluated at each point, like scipy's savgol_filter mode="interp").
    L = axis.size
    if L < window:
        raise DataError(f"axis length {L} too short for window {window}")
    half = window // 2
    out = np.empty_like(values, dtype=float)
    windows = sliding_window_view(values, window, axis=-1)
    if _is_uniform(axis):
        h = (axis[-1] - axis[0]) / (L - 1)
        offsets = np.arange(window) * h
        w = _sg_weights(offsets, offsets[half : half + 1], d, poly_order)[0]
        out[..., half : L - half] = windows @ w
    else:
        nodes = sliding_window_view(axis, window)
        W = _sg_weights(nodes, nodes[:, half : half + 1], d, poly_order)[:, 0]
        out[..., half : L - half] = np.einsum("...js,js->...j", windows, W)
    for block, points in ((slice(0, window), slice(0, half)),
                          (slice(L - window, L), slice(L - half, L))):
        W = _sg_weights(axis[block], axis[points], d, poly_order)
        out[..., points] = values[..., block] @ W.T
    return out


def _spectral_along_last(
    values: np.ndarray, axis: np.ndarray, orders: tuple[int, ...], filter_strength: float
) -> list[np.ndarray]:
    # one forward transform serves every requested order
    L = axis.size
    if not _is_uniform(axis):
        raise DataError("spectral differentiation requires a uniform axis")
    h = (axis[-1] - axis[0]) / (L - 1)
    k = 2.0 * np.pi * np.fft.rfftfreq(L, d=h)
    spec = np.fft.rfft(values, axis=-1)
    out = []
    for d in orders:
        mult = (1j * k) ** d
        if d % 2 == 1 and L % 2 == 0:
            mult[-1] = 0.0  # Nyquist mode carries no sign information for odd d
        if filter_strength > 0:
            kmax = k[-1] if k[-1] > 0 else 1.0
            mult = mult * np.exp(-filter_strength * (k / kmax) ** 8)
        out.append(np.fft.irfft(spec * mult, n=L, axis=-1))
    return out


def _differentiate_orders(
    values: np.ndarray,
    axis_values: np.ndarray,
    method: DiffMethod,
    orders: tuple[int, ...],
    axis: int,
) -> list[np.ndarray]:
    """Derivatives of ``values`` along ``axis`` for each of ``orders``, each
    identical to its own ``differentiate`` call; spectral derivatives share
    one forward transform."""
    values = np.asarray(values, dtype=float)
    axis_values = np.asarray(axis_values, dtype=float)
    for d in orders:
        method.validate(d)
    if axis_values.ndim != 1 or values.shape[axis] != axis_values.size:
        raise DataError(
            f"axis values (len {axis_values.size}) do not match data axis "
            f"{axis} of shape {values.shape}"
        )
    if np.any(np.diff(axis_values) <= 0):
        raise DataError("axis values must be strictly increasing")

    moved = np.moveaxis(values, axis, -1)
    if isinstance(method, FiniteDifference):
        results = [_fd_along_last(moved, axis_values, d, method.order) for d in orders]
    elif isinstance(method, SavitzkyGolay):
        results = [
            _sg_along_last(moved, axis_values, d, method.window, method.poly_order)
            for d in orders
        ]
    elif isinstance(method, Spectral):
        results = _spectral_along_last(
            moved, axis_values, orders, method.filter_strength
        )
    else:
        raise SpecError(f"unknown differentiation method {method!r}")
    return [np.moveaxis(r, -1, axis) for r in results]


def differentiate(
    values: np.ndarray,
    axis_values: np.ndarray,
    method: DiffMethod,
    d: int | None = None,
    axis: int = -1,
) -> np.ndarray:
    """d-th derivative of ``values`` along ``axis`` sampled at ``axis_values``.

    ``d`` defaults to the method's own derivative order.  The output has the
    same shape as the input; see the method classes for boundary behavior.
    """
    if d is None:
        d = method.d
    return _differentiate_orders(values, axis_values, method, (d,), axis)[0]


def differentiate_dataset(
    dataset: Dataset, method: DiffMethod, axis_id: int | str = "t"
) -> np.ndarray:
    """Differentiate every state variable along one grid axis.

    ``axis_id`` is ``"t"``/``"time"`` for the time axis, a spatial axis index,
    or a spatial axis letter (``"x"``, ``"y"``, ``"z"``).  When the dataset
    carries precomputed time derivatives and a first time derivative is
    requested, they are returned verbatim.
    """
    if isinstance(axis_id, str) and axis_id in ("t", "time"):
        if dataset.derivatives is not None and method.d == 1:
            return dataset.derivatives
        axis_values = dataset.grid.time_axis
        array_axis = dataset.states.ndim - 2
    else:
        letters = {"x": 0, "y": 1, "z": 2}
        if isinstance(axis_id, str):
            if axis_id not in letters:
                raise DataError(f"unknown axis id {axis_id!r} (use t, x, y, z or an index)")
            idx = letters[axis_id]
        else:
            idx = int(axis_id)
        if not 0 <= idx < dataset.grid.n_spatial:
            raise DataError(
                f"spatial axis {axis_id!r} out of range for "
                f"{dataset.grid.n_spatial} spatial axes"
            )
        axis_values = dataset.grid.spatial_axes[idx]
        array_axis = idx
    return differentiate(dataset.states, axis_values, method, axis=array_axis)
