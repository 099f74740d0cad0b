"""Reference datasets with known governing equations.

Two generators: the Lorenz system (conventional chaotic parameters, adaptive
Runge-Kutta at tight tolerance) and the Kuramoto-Sivashinsky equation
q_t = -q q_x - q_xx - q_xxxx on a periodic domain, stepped in Fourier space
with fourth-order exponential time differencing (ETDRK4) and 2/3-rule
dealiasing.  Each generator also emits the ground-truth coefficient matrix in
its canonical discovery library for direct comparison with fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Grid, add_noise
from .diff import DiffMethod, Spectral
from .ensemble import derive_seed
from .errors import FitError, SpecError
from .library import PDE, GridPlan, LibrarySpec, Polynomial
from .model import FittedModel, _predicted_and_actual
from .optimize import Coefficients


@dataclass(frozen=True)
class Lorenz:
    """Conventional chaotic Lorenz parameters (a community default, used here
    as a benchmark convention rather than a measured dataset)."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0
    initial_state: tuple[float, float, float] = (-8.0, 8.0, 27.0)
    t_span: float = 10.0
    dt: float = 0.002

    def validate(self) -> None:
        if self.dt <= 0 or self.t_span <= self.dt:
            raise SpecError(f"invalid Lorenz time grid (dt={self.dt}, span={self.t_span})")


@dataclass(frozen=True)
class KS:
    """Kuramoto-Sivashinsky on [0, length) with ``n_grid`` Fourier points.

    ``dt`` is the internal ETDRK4 step, ``dt_save`` the output sampling
    (must be an integer multiple of ``dt``).  The initial condition is a sum
    of ``n_init_modes`` random-phase low-wavenumber cosines; ``burn_in`` time
    units are discarded to land on the attractor.
    """

    length: float = 100.0
    n_grid: int = 1024
    t_span: float = 100.0
    dt_save: float = 0.4
    dt: float = 0.05
    burn_in: float = 50.0
    n_init_modes: int = 4
    init_amplitude: float = 0.5

    def validate(self) -> None:
        if self.n_grid < 8 or self.n_grid & (self.n_grid - 1) != 0:
            raise SpecError(f"n_grid must be a power of two >= 8, got {self.n_grid}")
        if self.dt <= 0 or self.dt_save <= 0 or self.t_span <= 0:
            raise SpecError("KS time parameters must be positive")
        ratio = self.dt_save / self.dt
        if abs(ratio - round(ratio)) > 1e-9:
            raise SpecError(
                f"dt_save={self.dt_save} must be an integer multiple of dt={self.dt}"
            )
        if self.burn_in < 0 or self.n_init_modes < 1:
            raise SpecError("invalid KS initial-condition parameters")


@dataclass(frozen=True)
class BenchmarkSpec:
    """A benchmark system plus optional relative measurement noise."""

    system: Lorenz | KS
    noise_level: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        self.system.validate()
        if self.noise_level < 0:
            raise SpecError(f"noise level must be >= 0, got {self.noise_level}")


def canonical_library(system: Lorenz | KS) -> LibrarySpec:
    """The discovery library in which the ground truth is expressed."""
    if isinstance(system, Lorenz):
        return Polynomial(degree=2)
    return PDE(
        derivative_order=4,
        axes=("x",),
        multiply_by=Polynomial(degree=2, include_bias=False),
        diff=Spectral(),
    )


def _truth(system: Lorenz | KS) -> Coefficients:
    """Ground truth in the canonical library, its nonzero entries set by
    (column name, target)."""
    if isinstance(system, Lorenz):
        n_states, terms = 3, {
            ("q0", 0): -system.sigma, ("q1", 0): system.sigma,
            ("q0", 1): system.rho, ("q1", 1): -1.0, ("q0 q2", 1): -1.0,
            ("q2", 2): -system.beta, ("q0 q1", 2): 1.0,
        }
    else:
        n_states = 1
        terms = {("q0 q0_x", 0): -1.0, ("q0_xx", 0): -1.0, ("q0_xxxx", 0): -1.0}
    names = GridPlan(canonical_library(system), n_states).names
    xi = np.zeros((len(names), n_states))
    for (name, target), value in terms.items():
        xi[names.index(name), target] = value
    return Coefficients(
        xi=xi, support=xi != 0.0, names=names, residuals=np.zeros(n_states)
    )


def _generate_lorenz(system: Lorenz) -> Dataset:
    # imported here so that importing the package never loads scipy
    from scipy.integrate import solve_ivp

    t = np.arange(0.0, system.t_span + 0.5 * system.dt, system.dt)

    def rhs(_, q):
        x, y, z = q
        return [
            system.sigma * (y - x),
            x * (system.rho - z) - y,
            x * y - system.beta * z,
        ]

    sol = solve_ivp(
        rhs,
        (t[0], t[-1]),
        np.asarray(system.initial_state, dtype=float),
        t_eval=t,
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise FitError(f"Lorenz integration failed: {sol.message}")
    return Dataset(grid=Grid(t), states=sol.y.T)


def _etdrk4_coefficients(lin: np.ndarray, h: float, n_points: int = 32):
    """Contour-integral ETDRK4 scalars (Kassam & Trefethen 2005)."""
    E = np.exp(h * lin)
    E2 = np.exp(h * lin / 2.0)
    roots = np.exp(1j * np.pi * (np.arange(n_points) + 0.5) / n_points)
    LR = h * lin[:, None] + roots[None, :]
    Q = h * np.real(((np.exp(LR / 2.0) - 1.0) / LR).mean(axis=1))
    f1 = h * np.real(
        ((-4.0 - LR + np.exp(LR) * (4.0 - 3.0 * LR + LR**2)) / LR**3).mean(axis=1)
    )
    f2 = h * np.real(((2.0 + LR + np.exp(LR) * (LR - 2.0)) / LR**3).mean(axis=1))
    f3 = h * np.real(
        ((-4.0 - 3.0 * LR - LR**2 + np.exp(LR) * (4.0 - LR)) / LR**3).mean(axis=1)
    )
    return E, E2, Q, f1, f2, f3


def _generate_ks(system: KS, seed: int) -> Dataset:
    N, L = system.n_grid, system.length
    x = L * np.arange(N) / N
    rng = np.random.default_rng(derive_seed(seed, 0))
    u = np.zeros(N)
    for mode in range(1, system.n_init_modes + 1):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        u += system.init_amplitude * np.cos(2.0 * np.pi * mode * x / L + phase)

    k = 2.0 * np.pi * np.fft.rfftfreq(N, d=L / N)
    lin = k**2 - k**4
    E, E2, Q, f1, f2, f3 = _etdrk4_coefficients(lin, system.dt)
    dealias = k <= (2.0 / 3.0) * k.max()
    ik = 1j * k

    def nonlinear(vhat: np.ndarray) -> np.ndarray:
        u_phys = np.fft.irfft(vhat, n=N)
        return -0.5 * ik * (np.fft.rfft(u_phys**2) * dealias)

    v = np.fft.rfft(u)
    n_burn = int(round(system.burn_in / system.dt))
    stride = int(round(system.dt_save / system.dt))
    n_save = int(round(system.t_span / system.dt_save)) + 1

    snapshots = np.empty((n_save, N))
    saved = 0
    total = n_burn + (n_save - 1) * stride
    for step in range(total + 1):
        if step >= n_burn and (step - n_burn) % stride == 0:
            u_now = np.fft.irfft(v, n=N)
            if not np.all(np.isfinite(u_now)) or np.abs(u_now).max() > 1e3:
                raise FitError(
                    "Kuramoto-Sivashinsky step went unstable; reduce dt "
                    f"(currently {system.dt})"
                )
            snapshots[saved] = u_now
            saved += 1
        if step == total:
            break
        Nv = nonlinear(v)
        a = E2 * v + Q * Nv
        Na = nonlinear(a)
        b = E2 * v + Q * Na
        Nb = nonlinear(b)
        c = E2 * a + Q * (2.0 * Nb - Nv)
        Nc = nonlinear(c)
        v = E * v + Nv * f1 + 2.0 * (Na + Nb) * f2 + Nc * f3

    t = system.dt_save * np.arange(n_save)
    states = snapshots.T[:, :, None]  # (N, n_save, 1)
    return Dataset(grid=Grid(t, (x,)), states=states)


def generate(spec: BenchmarkSpec) -> tuple[Dataset, Coefficients]:
    """Generate a benchmark dataset and its ground-truth coefficients."""
    spec.validate()
    if isinstance(spec.system, Lorenz):
        dataset = _generate_lorenz(spec.system)
    else:
        dataset = _generate_ks(spec.system, spec.seed)
    if spec.noise_level > 0:
        dataset = add_noise(dataset, spec.noise_level, derive_seed(spec.seed, 1))
    return dataset, _truth(spec.system)


def verify_residual(
    dataset: Dataset,
    truth: Coefficients,
    library: LibrarySpec,
    diff: DiffMethod,
) -> float:
    """Relative RMS of (targets - theta @ truth); a data-quality gate run
    before any fitting to confirm generator and library agree."""
    if GridPlan(library, dataset.n_states, dataset.n_controls).names != truth.names:
        raise SpecError(
            "library feature names do not match the ground-truth names"
        )
    target_names = tuple(f"q{j}_t" for j in range(dataset.n_states))
    model = FittedModel(truth, library, diff, target_names)
    predicted, targets = _predicted_and_actual(model, dataset)
    norm = float(np.linalg.norm(targets))
    if norm == 0.0:
        return 0.0
    return float(np.linalg.norm(targets - predicted)) / norm
