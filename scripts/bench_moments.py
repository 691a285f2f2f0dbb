#!/usr/bin/env python3
"""Time the moment pipelines at representative configurations.

Reports wall time per call for the closed forms (at one phase pair and
over 1e5 phase pairs), the detected-state build, the cumulant photon
readouts of second and fourth order and the quadrature readout (each
including its state build), one stacked fourth-order readout over 1 000
phase pairs, the exact mixed phase derivative, one zero-order
uncertainty evaluation per estimator kind, the Gauss-Hermite phase-noise variance, one
Monte-Carlo covariance recovery (quadrature product at the mc-estimate
defaults, epsilon = 1e-6, 1e5 samples), the truncated-Fock oracle and
its beam-splitter transform alone on the largest arm block of the
oracle's envelope, so regressions in the hot paths show up as numbers
rather than as slow test suites.

Usage:
    python3 scripts/bench_moments.py [--repeat 50]
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from holonoise.config import HolometerConfig
from holonoise.estimation import EstimatorSpec, estimator_mixed_derivative, u0
from holonoise.fock_oracle import _arm_block, _bs_pair_transform, oracle_moments
from holonoise.holometer import propagate, quadrature_readout, readout_moments
from holonoise.observables import closed_form_moments
from holonoise.phase_noise import direct_variance, recover_covariance

BRIGHT = HolometerConfig(mu=1e6, psi=math.pi / 2, lam=10.0, eta=0.95,
                         phi0_1=0.2, phi0_2=0.2, input_kind="TWB")
DESK = HolometerConfig(mu=1e3, psi=math.pi / 2, lam=1.0, eta=0.9,
                       phi0_1=0.1, phi0_2=0.1, input_kind="TwoSqueezed")
DIM = HolometerConfig(mu=1.5, psi=math.pi / 2, lam=0.4, eta=0.9,
                      phi0_1=0.8, phi0_2=0.8, input_kind="TWB")
# the oracle's envelope edge: mean coherent 4, mean pair occupancy 1
EDGE = HolometerConfig(mu=4.0, psi=math.pi / 2, lam=1.0, eta=0.9,
                       phi0_1=0.8, phi0_2=0.8, input_kind="TWB")


def clock(label: str, fn, repeat: int) -> None:
    fn()  # warm up caches and allocations outside the timed loop
    start = time.perf_counter()
    for _ in range(repeat):
        fn()
    per_call = (time.perf_counter() - start) / repeat
    print(f"{label:<52s} {1e3 * per_call:9.3f} ms/call")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=50, help="timed calls per row")
    args = parser.parse_args()
    repeat = max(1, args.repeat)

    diff = EstimatorSpec(kind="TwbDifferenceSquared")
    plus = EstimatorSpec(kind="TwbSumSquared")
    quad = EstimatorSpec(kind="QuadratureProduct")
    # the sum readout pairs with psi = 0; the product reads squeezed input
    bright_sum = BRIGHT.replace(psi=0.0)
    bright_sq = BRIGHT.replace(input_kind="TwoSqueezed")

    clock("closed-form first/second moments (bright)",
          lambda: closed_form_moments(BRIGHT), repeat)
    wide = BRIGHT.phi0_1 + 3e-3 * np.random.default_rng(1).standard_normal((2, 100_000))
    clock("closed_form_moments over 1e5 phase pairs (bright)",
          lambda: closed_form_moments(BRIGHT, wide[0], wide[1]), max(1, repeat // 5))
    clock("detected two-mode state, propagate (bright)",
          lambda: propagate(BRIGHT), repeat)
    clock("state + cumulant photon moments, order 2 (bright)",
          lambda: readout_moments(BRIGHT, max_order=2), repeat)
    clock("state + cumulant photon moments, order 4 (bright)",
          lambda: readout_moments(BRIGHT, max_order=4), repeat)
    clock("state + quadrature readout (bright)",
          lambda: quadrature_readout(BRIGHT), repeat)
    phases = BRIGHT.phi0_1 + 1e-3 * np.random.default_rng(0).standard_normal((2, 1000))
    clock("order-4 readout over 1 000 phase pairs (bright)",
          lambda: readout_moments(BRIGHT, phases[0], phases[1], max_order=4),
          max(1, repeat // 10))
    clock("estimator_mixed_derivative (bright)",
          lambda: estimator_mixed_derivative(BRIGHT, diff), repeat)
    clock("zero-order uncertainty, difference readout (bright)",
          lambda: u0(BRIGHT, diff), max(1, repeat // 5))
    clock("zero-order uncertainty, sum readout (bright)",
          lambda: u0(bright_sum, plus), max(1, repeat // 5))
    clock("zero-order uncertainty, quadrature product (bright)",
          lambda: u0(bright_sq, quad), max(1, repeat // 5))
    clock("direct_variance GH-9, difference (bright)",
          lambda: direct_variance(BRIGHT, diff, 1e-5, 0.0), max(1, repeat // 10))
    clock("recover_covariance, quadrature product, 1e5 samples",
          lambda: recover_covariance(DESK, quad, 1e-5, 1e-6, 100_000, 0), max(1, repeat // 10))
    # the oracle walks a truncated number basis, so it only runs at low
    # occupancy; this is the guardrail-domain cost, not the bright one
    clock("fock oracle end-to-end, order 4 (dim)",
          lambda: oracle_moments(DIM), max(1, repeat // 10))
    _, edge_block = _arm_block(EDGE)
    clock("beam-splitter transform, one arm block (edge twb)",
          lambda: _bs_pair_transform(edge_block, EDGE.phi0_1), max(1, repeat // 10))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
