"""Numerical differentiation along one axis of sampled data.

Three methods share one interface: arbitrary-order finite differences on
arbitrary (possibly nonuniform) nodes, Savitzky-Golay polynomial-filtered
derivatives, and spectral derivatives with an optional exponential low-pass
filter.  Finite differences and Savitzky-Golay run through one windowed
engine and differ only in their window sizes and weight rule; spectral
derivatives wrap around periodically.  Every method returns an array of the
same length as the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import optimize
from .data import Dataset, _is_uniform
from .errors import DataError, SpecError, check_finite


@dataclass(frozen=True)
class FiniteDifference:
    """Centered stencils of accuracy ``order`` (even), one-sided at edges.

    Stencil weights are generated for the actual node locations, so nonuniform
    axes are handled; for even derivative orders the centered stencil realizes
    the stated accuracy on uniform axes (one order lower on strongly nonuniform
    ones, where the symmetry gain is lost).
    """

    order: int = 2

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

    def validate(self, d: int) -> None:
        if self.window < 5 or self.window % 2 == 0:
            raise SpecError(f"window must be odd >= 5, got {self.window}")
        if self.poly_order < 2:
            raise SpecError(f"poly_order must be >= 2, got {self.poly_order}")
        if self.poly_order >= self.window:
            raise SpecError(
                f"poly_order {self.poly_order} must be < window {self.window}"
            )
        if d < 0:  # d = 0 is the smoothing filter
            raise SpecError(f"derivative order must be >= 0, got {d}")
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

    def validate(self, d: int) -> None:
        check_finite(self)
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


def _stencil_along_last(
    values: np.ndarray, axis: np.ndarray, size: int, edge: int, weights, out: np.ndarray
) -> None:
    """Windowed derivative along the last axis, written into ``out`` with no
    temporary of its size.  Interior points sit at the center of their
    ``size``-point window; the first and last ``size // 2`` points share one
    ``edge``-point window per end (one weight matrix per end, like scipy's
    savgol_filter mode="interp").

    ``weights(nodes, at)`` maps window nodes ``(..., w)`` and points
    ``(..., k)`` to weights ``(..., k, w)``; leading axes are a batch of
    windows.
    """
    L = axis.size
    if L < edge:
        raise DataError(f"axis length {L} too short to differentiate (needs >= {edge} points)")
    half = size // 2
    windows = sliding_window_view(values, size, axis=-1)
    interior = out[..., half : L - half]
    if _is_uniform(axis):
        h = (axis[-1] - axis[0]) / (L - 1)
        offsets = np.arange(size) * h
        np.matmul(windows, weights(offsets, offsets[half : half + 1])[0], out=interior)
    else:
        nodes = sliding_window_view(axis, size)
        W = weights(nodes, nodes[:, half : half + 1])[:, 0]
        np.einsum("...js,js->...j", windows, W, out=interior)
    for block, points in ((slice(0, edge), slice(0, half)),
                          (slice(L - edge, L), slice(L - half, L))):
        out[..., points] = values[..., block] @ weights(axis[block], axis[points]).T


# fd_weights over a batch: nodes (..., 1, w) and points (..., k) -> (..., k, w)
_fd_batch = np.vectorize(fd_weights, signature="(s),(),()->(s)")


def _stencil(method: FiniteDifference | SavitzkyGolay, d: int):
    """(interior size, end-window size, weight rule) of a windowed method."""
    if isinstance(method, FiniteDifference):
        # inside, the smallest centered (odd) stencil of the accuracy order;
        # one-sided end windows need order + d points for the same order
        edge = method.order + d
        return edge - 1 + d % 2, edge, lambda nodes, at: _fd_batch(nodes[..., None, :], at, d)
    return method.window, method.window, lambda nodes, at: _sg_weights(
        nodes, at, d, method.poly_order
    )


def _spectral_along_last(
    values: np.ndarray, axis: np.ndarray, orders: tuple[int, ...], filter_strength: float,
    outs: list[np.ndarray],
) -> None:
    """Spectral derivatives along the last axis, written into ``outs``.  One
    forward transform serves every requested order.  The lines along the
    axis are transformed a chunk of the leading axis at a time, a chunk's
    spectrum and its product with one order's multiplier together about
    ``BLOCK_BYTES``; each line is transformed on its own, so a chunk has the
    bits of the whole transform."""
    L = axis.size
    if not _is_uniform(axis):
        raise DataError("spectral differentiation requires a uniform axis")
    h = (axis[-1] - axis[0]) / (L - 1)
    k = 2.0 * np.pi * np.fft.rfftfreq(L, d=h)
    mults = []
    for d in orders:
        mult = (1j * k) ** d
        if d % 2 == 1 and L % 2 == 0:
            mult[-1] = 0.0  # Nyquist mode carries no sign information for odd d
        if filter_strength > 0:
            kmax = k[-1] if k[-1] > 0 else 1.0
            mult = mult * np.exp(-filter_strength * (k / kmax) ** 8)
        mults.append(mult)
    if values.ndim == 1:
        values, outs = values[None], [out[None] for out in outs]
    # slices of the leading axis are views of the input and of every output
    # alike, where a reshape of the leading axes could copy and lose writes
    entry_bytes = 2 * k.size * 16 * max(1, int(np.prod(values.shape[1:-1])))
    step = max(1, optimize.BLOCK_BYTES // entry_bytes)
    for start in range(0, values.shape[0], step):
        at = slice(start, start + step)
        spec = np.fft.rfft(values[at], axis=-1)
        for mult, out in zip(mults, outs):
            np.fft.irfft(spec * mult, n=L, axis=-1, out=out[at])
        del spec  # each chunk's spectrum is freed before the next is taken


def _differentiate_orders(
    values: np.ndarray,
    axis_values: np.ndarray,
    method: DiffMethod,
    orders: tuple[int, ...],
    axis: int,
) -> list[np.ndarray]:
    """Derivatives of ``values`` along ``axis`` for each of ``orders``, each
    identical to its own ``differentiate`` call; spectral derivatives share
    one forward transform.  Each comes back C-ordered in the axis order of
    ``values``, whatever the layout of ``values``, so that flattening its
    leading axes is a view."""
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
    results = [np.empty(values.shape) for _ in orders]
    outs = [np.moveaxis(r, axis, -1) for r in results]
    if isinstance(method, (FiniteDifference, SavitzkyGolay)):
        for d, out in zip(orders, outs):
            _stencil_along_last(moved, axis_values, *_stencil(method, d), out)
    elif isinstance(method, Spectral):
        _spectral_along_last(moved, axis_values, orders, method.filter_strength, outs)
    else:
        raise SpecError(f"unknown differentiation method {method!r}")
    return results


def differentiate(
    values: np.ndarray,
    axis_values: np.ndarray,
    method: DiffMethod,
    d: int = 1,
    axis: int = -1,
) -> np.ndarray:
    """d-th derivative of ``values`` along ``axis`` sampled at ``axis_values``.

    The output has the same shape as the input; see the method classes for
    boundary behavior.
    """
    return _differentiate_orders(values, axis_values, method, (d,), axis)[0]


def _derivative_fields(
    dataset: Dataset,
    axes: tuple[str, ...],
    mus: list[tuple[int, ...]],
    method: DiffMethod,
) -> list[np.ndarray]:
    """D^mu of the states, shape (*spatial, time, n_states), for each
    multi-index of orders ``mu`` along the axis letters ``axes``.

    D^mu is a derivative along the last axis mu uses of the field of its
    prefix (mu with that axis zeroed), and all orders of one field along one
    axis come from one call, so spectral ones share one transform.  A
    dataset's precomputed time derivatives stand in for a first time derivative.
    """

    def precomputed(mu: tuple[int, ...]) -> bool:
        return dataset.derivatives is not None and sum(mu) == 1 and axes[mu.index(1)] == "t"

    # (prefix, axis position) -> orders, for every mu computed numerically
    groups: dict[tuple[tuple[int, ...], int], set[int]] = {}
    todo = [mu for mu in mus if not precomputed(mu)]
    while todo:
        mu = todo.pop()
        # a zero mu of one axis is the method's order-0 filter (Savitzky-Golay)
        a = max((i for i, order in enumerate(mu) if order), default=len(mu) - 1)
        prefix = mu[:a] + (0,) + mu[a + 1 :]
        orders = groups.setdefault((prefix, a), set())
        if mu[a] not in orders:
            orders.add(mu[a])
            if any(prefix):
                todo.append(prefix)
    fields = {(0,) * len(axes): dataset.states}
    for (prefix, a), orders in sorted(groups.items(), key=lambda g: sum(g[0][0])):
        array_axis, coords = dataset.grid.axis(axes[a])
        orders = tuple(sorted(orders))
        derived = _differentiate_orders(fields[prefix], coords, method, orders, array_axis)
        for order, field in zip(orders, derived):
            fields[prefix[:a] + (order,) + prefix[a + 1 :]] = field
    return [dataset.derivatives if precomputed(mu) else fields[mu] for mu in mus]


def differentiate_dataset(
    dataset: Dataset, method: DiffMethod, axis: str = "t", d: int = 1
) -> np.ndarray:
    """d-th derivative of every state variable along the grid axis named
    ``axis`` ("x", "y", "z" or "t", as ``Grid.axis`` names them).

    When the dataset carries precomputed time derivatives and a first time
    derivative is requested, they are returned verbatim.
    """
    return _derivative_fields(dataset, (axis,), [(d,)], method)[0]
