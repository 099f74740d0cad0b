#!/usr/bin/env python3
"""Identify an implicit relation g(q, q_t) = 0 by ranking left-hand sides.

Builds a library containing time-derivative columns alongside polynomial
features, regresses each candidate column on the rest, and ranks candidates
by normalized residual.  The demo system is the Van der Pol oscillator, whose
explicit form is recovered as the best-explained q1_t column.
"""

import argparse

import numpy as np

from sparsedyn import (
    Concat,
    Dataset,
    FiniteDifference,
    Grid,
    PDE,
    Polynomial,
    STLSQ,
    equations,
    fit_implicit,
)
from sparsedyn.integrate import integrate


def van_der_pol(mu: float, t_span: float, dt: float) -> Dataset:
    t = np.arange(0.0, t_span, dt)
    sol = integrate(
        lambda _, q: np.array([q[1], mu * (1 - q[0] ** 2) * q[1] - q[0]]),
        t,
        np.array([2.0, 0.0]),
        rtol=1e-10,
        atol=1e-12,
    )
    return Dataset(grid=Grid(t), states=sol.y)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mu", type=float, default=1.5)
    parser.add_argument("--t-span", type=float, default=20.0)
    parser.add_argument("--dt", type=float, default=0.002)
    args = parser.parse_args()

    dataset = van_der_pol(args.mu, args.t_span, args.dt)
    library = Concat((PDE(1, ("t",)), Polynomial(3)))
    results = fit_implicit(
        dataset,
        library,
        STLSQ(threshold=0.05, ridge=0.0),
        candidate_lhs=["q0_t", "q1_t"],
        diff=FiniteDifference(order=4),
    )

    # Every well-explained candidate is a valid implicit relation; with both
    # derivative columns in the library the regressions may mix them, so the
    # caller inspects the whole ranking rather than a single winner.
    print("candidate ranking (normalized residual, low is well-explained):")
    for r in results:
        flag = " [degenerate]" if r.degenerate else ""
        print(f"  {r.lhs_name}: residual {r.residual:.2e}{flag}")
        print(f"    {equations(r.model, precision=4)[0]}")
    print(f"\ntruth: q0_t = q1;  q1_t = -1 q0 + {args.mu} q1 + -{args.mu} q0^2 q1")


if __name__ == "__main__":
    main()
