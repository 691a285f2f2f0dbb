#!/usr/bin/env python3
"""Time the moment pipelines at representative configurations.

Reports the median wall time per call for the closed forms (at one
phase pair and over 1e5 phase pairs), the detected-state build (one
state and a stack of 1 000), the cumulant photon readouts of second
and fourth order and the quadrature readout (each including its state
build), one stacked fourth-order readout over 1 000 phase pairs, the
exact mixed phase derivative, one zero-order uncertainty evaluation and
one variance expansion per estimator kind, the Gauss-Hermite
phase-noise variance, the Monte-Carlo
expectation of both runs over 1e5 normal pairs (their draws included;
for the quadrature product on squeezed input, whose surface reads no
cosine, and on twin beams, whose surface does) and one covariance recovery per estimator kind (at the mc-estimate
defaults, epsilon = 1e-6, 1e5 samples), each recovery with the minor
page faults of one call after the timed ones and the tracemalloc peak
of another, the truncated-Fock oracle, its joint photon-number
distribution at the edge of its envelope, its quadrature moments at low
occupancy and at that edge (twin beams and squeezed input), the oracle
over the 100
configurations oracle-check draws at its default seed (one batched call),
its stages (inputs and cutoffs, the displacement tables and binomial
splits of its chunks, the arms' Grams from those tables, the joint
distributions and the moment readout), one stacked engine
readout per input kind over them, the one stacked engine/oracle
comparison and the set's cutoffs in one call, and, end to end
through the CLI
in-process, the four figure sweeps of run_figure_scans.py, the phi0
sweep at the grid cap, oracle-check over 100 configurations at seed
1000 and mc-estimate for each estimator at its default flags.
Regressions in the hot paths show up as numbers rather than as slow
test suites.

Each row reports the median wall time and the median CPU time of the
process per call.  The run opens and closes with the same drift probe,
a fixed piece of numpy and Python work that runs no holonoise code:
where the host slows down during a run, the two probe rows disagree,
and rows of two runs compare only where each run's probes agree.

``--json PATH`` also writes the record: per row the median and the
minimum wall time and the median CPU time over the timed calls and
the inputs (and the page faults and peak where the row measures
them), and for the run the git revision, the Python and numpy
versions, the processor count, the BLAS thread variables and the
drift probe's start and end medians and their ratio.  The BLAS thread
variables are set to 1 before numpy is imported, as the tests and
perfbench do, unless the environment already sets them: on a two-core
host a second BLAS thread makes every row slower.  ``--quick`` times
one call per row on small inputs, to check that every row runs.

``--rounds N`` runs the whole row list N times, one round after
another, and keeps each row's median over the rounds (the median of its
per-round medians, the least minimum), with every round's medians in
the record.  A slow phase of the host in the middle of a run moves the
rows it falls on in one round only, where both drift probes can miss
it.

Usage:
    python3 scripts/bench_moments.py [--repeat 50] [--rounds 1] [--json BENCH.json] [--quick]
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_VARIABLES:
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402 - after the BLAS thread variables

from holonoise import cli
from holonoise.config import HolometerConfig
from holonoise.crosscheck import DEFAULT_SEED, _engine_moments, sample_guardrail_config
from holonoise.estimation import EstimatorSpec, estimator_mixed_derivative, u0
from holonoise.fock_oracle import (
    _arm_grams, _checked_pmf, _chunk_tables, _factorial_moments, _joint_pmfs,
    _pair_diagonal_grams, _port_magnitudes, _readouts, _set_chunks, _squeezed_grams,
    fock_joint_pmf, fock_quadrature_moments, oracle_moments, port_cutoffs,
)
from holonoise.holometer import propagate, quadrature_readout, readout_moments
from holonoise.moments import compare_moments
from holonoise.observables import closed_form_moments
from holonoise.phase_noise import (
    direct_variance, mc_expectation, recover_covariance, variance_expansion,
)
from run_figure_scans import SCANS

BRIGHT = HolometerConfig(mu=1e6, psi=math.pi / 2, lam=10.0, eta=0.95,
                         phi0_1=0.2, phi0_2=0.2, input_kind="TWB")
DESK = HolometerConfig(mu=1e3, psi=math.pi / 2, lam=1.0, eta=0.9,
                       phi0_1=0.1, phi0_2=0.1, input_kind="TwoSqueezed")
DIM = HolometerConfig(mu=1.5, psi=math.pi / 2, lam=0.4, eta=0.9,
                      phi0_1=0.8, phi0_2=0.8, input_kind="TWB")
# the oracle's envelope edge: mean coherent 4, mean pair occupancy 1
EDGE = HolometerConfig(mu=4.0, psi=math.pi / 2, lam=1.0, eta=0.9,
                       phi0_1=0.8, phi0_2=0.8, input_kind="TWB")
EDGE_SQ = EDGE.replace(input_kind="TwoSqueezed")
# the largest grid a sweep accepts
CAP_SCAN = ["uncertainty-scan", "--variable", "phi0",
            "--grid", f"1e-8:1e-1:{cli.MAX_GRID_POINTS}:log"]


def clock(label: str, fn, repeat: int, inputs: dict, memory: bool = False) -> dict:
    """Median and minimum wall time and median process CPU time of
    ``repeat`` calls after one warm-up call; with ``memory`` also the minor page faults of one more call and
    the tracemalloc peak of another."""
    fn()  # warm up caches and allocations outside the timed calls
    times, cpu_times = [], []
    for _ in range(repeat):
        start, cpu_start = time.perf_counter(), time.process_time()
        fn()
        cpu_times.append(time.process_time() - cpu_start)
        times.append(time.perf_counter() - start)
    median, cpu_median = statistics.median(times), statistics.median(cpu_times)
    row = {"label": label, "repeat": repeat, "median_ms": 1e3 * median,
           "min_ms": 1e3 * min(times), "cpu_median_ms": 1e3 * cpu_median, "inputs": inputs}
    note = ""
    if memory:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        fn()
        row["minor_page_faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        tracemalloc.start()
        try:
            fn()
            row["tracemalloc_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        note = f" [{row['minor_page_faults']} faults, {row['tracemalloc_peak_mib']:.2f} MiB peak]"
    print(f"{label + note:<52s} {1e3 * cpu_median:9.3f} cpu {1e3 * median:9.3f} ms/call")
    return row


# the drift probe's buffers, made once: a fresh 512 KiB array per call
# would time the allocator's state (mmap or heap) rather than the host
PROBE_IN = np.linspace(0.0, 1.0, 65_536)
PROBE_OUT = np.empty_like(PROBE_IN)


def drift_probe() -> None:
    """Fixed host work, the same in every tree and run: the sines of
    65 536 floats into a reused buffer and a 65 536-step Python loop."""
    np.sin(PROBE_IN, out=PROBE_OUT)
    sum(range(65_536))


def probe_row(when: str, repeat: int) -> tuple:
    return f"drift probe ({when})", drift_probe, repeat, {"work": drift_probe.__doc__}


def merged(rounds: list[list[dict]]) -> list[dict]:
    """Each row's median over the rounds: the median of its per-round
    medians (CPU time, page faults and peak alike), the least minimum,
    and every round's wall and CPU medians."""
    rows = []
    for per_round in zip(*rounds):
        row = dict(per_round[0], rounds=len(per_round))
        for key in ("median_ms", "cpu_median_ms", "minor_page_faults", "tracemalloc_peak_mib"):
            if key in row:
                row[key] = statistics.median(r[key] for r in per_round)
        row["min_ms"] = min(r["min_ms"] for r in per_round)
        row["round_medians_ms"] = [r["median_ms"] for r in per_round]
        row["round_cpu_medians_ms"] = [r["cpu_median_ms"] for r in per_round]
        rows.append(row)
    return rows


def count(n: int) -> str:
    return f"{n:,}".replace(",", " ")


def with_points(argv: list[str], points: int) -> list[str]:
    """A sweep's argv with its "min:max:points[:scale]" grid resized."""
    at = argv.index("--grid") + 1
    lo, hi, _, *scale = argv[at].split(":")
    return argv[:at] + [":".join([lo, hi, str(points), *scale])] + argv[at + 1:]


def scan(argv: list[str], verdicts: tuple[int, ...] = (0,)):
    def run() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) not in verdicts:
                raise RuntimeError(f"holonoise {' '.join(argv)} failed")
    return run


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=50, help="timed calls per row")
    parser.add_argument("--json", metavar="PATH", help="also write the record to PATH")
    parser.add_argument("--rounds", type=int, default=1,
                        help="passes over the row list; each row keeps its median over them")
    parser.add_argument("--quick", action="store_true",
                        help="one timed call per row, on small inputs")
    args = parser.parse_args()
    repeat = 1 if args.quick else max(1, args.repeat)
    specs: list[tuple] = []  # (label, call, repeat, inputs[, memory]) per row, in order

    def add(label: str, fn, calls: int, inputs: dict, memory: bool = False) -> None:
        specs.append((label, fn, calls, inputs, memory))

    wide_n, pairs_n, samples_n = (1000, 10, 1000) if args.quick else (100_000, 1000, 100_000)

    diff = EstimatorSpec(kind="TwbDifferenceSquared")
    plus = EstimatorSpec(kind="TwbSumSquared")
    quad = EstimatorSpec(kind="QuadratureProduct")
    # the sum readout pairs with psi = 0; the product reads squeezed input
    bright_sum = BRIGHT.replace(psi=0.0)
    bright_sq = BRIGHT.replace(input_kind="TwoSqueezed")
    bright = {"config": BRIGHT.to_dict()}

    add(*probe_row("start", repeat))
    add("closed-form first/second moments (bright)",
lambda: closed_form_moments(BRIGHT), repeat, bright)
    wide = BRIGHT.phi0_1 + 3e-3 * np.random.default_rng(1).standard_normal((2, wide_n))
    bright_wide = BRIGHT.replace(phi0_1=wide[0], phi0_2=wide[1])
    add(f"closed_form_moments over {count(wide_n)} phase pairs (bright)",
        lambda: closed_form_moments(bright_wide),
        max(1, repeat // 5), {**bright, "phase_pairs": wide_n, "sigma": 3e-3})
    add("detected two-mode state, propagate (bright)",
        lambda: propagate(BRIGHT), repeat, bright)
    phases = BRIGHT.phi0_1 + 1e-3 * np.random.default_rng(0).standard_normal((2, pairs_n))
    bright_pairs = BRIGHT.replace(phi0_1=phases[0], phi0_2=phases[1])
    pairs = {**bright, "phase_pairs": pairs_n, "sigma": 1e-3}
    add(f"propagate over {count(pairs_n)} states (bright)",
        lambda: propagate(bright_pairs), max(1, repeat // 10), pairs)
    add("state + cumulant photon moments, order 2 (bright)",
        lambda: readout_moments(BRIGHT, max_order=2), repeat, bright)
    add("state + cumulant photon moments, order 4 (bright)",
        lambda: readout_moments(BRIGHT, max_order=4), repeat, bright)
    add("state + quadrature readout (bright)",
        lambda: quadrature_readout(BRIGHT), repeat, bright)
    add(f"order-4 readout over {count(pairs_n)} phase pairs (bright)",
        lambda: readout_moments(bright_pairs, max_order=4),
        max(1, repeat // 10), pairs)
    add("estimator_mixed_derivative (bright)",
        lambda: estimator_mixed_derivative(BRIGHT, diff), repeat,
        {**bright, "estimator": diff.kind.value})
    for label, config, spec in (("difference readout", BRIGHT, diff),
                                ("sum readout", bright_sum, plus),
                                ("quadrature product", bright_sq, quad)):
        add(f"zero-order uncertainty, {label} (bright)",
            lambda config=config, spec=spec: u0(config, spec),
            max(1, repeat // 5),
            {"config": config.to_dict(), "estimator": spec.kind.value})
    for label, config, spec in (("difference readout", BRIGHT, diff),
                                ("sum readout", bright_sum, plus),
                                ("quadrature product", bright_sq, quad)):
        add(f"variance_expansion, {label} (bright)",
            lambda config=config, spec=spec: variance_expansion(config, spec),
            max(1, repeat // 5),
            {"config": config.to_dict(), "estimator": spec.kind.value})
    add("direct_variance GH-9, difference (bright)",
        lambda: direct_variance(BRIGHT, diff, 1e-5, 0.0), max(1, repeat // 10),
        {**bright, "estimator": diff.kind.value, "sigma2": 1e-5, "epsilon": 0.0})
    # the mc-estimate defaults of each estimator: twin beams for the photon
    # readouts (the sum one at psi = 0), squeezed input for the product,
    # whose surface reads no cosine there
    desk_twb = DESK.replace(input_kind="TWB")
    for label, config, spec in (("difference readout", desk_twb, diff),
                                ("sum readout", desk_twb.replace(psi=0.0), plus),
                                ("quadrature product", DESK, quad)):
        noise = {"config": config.to_dict(), "estimator": spec.kind.value, "sigma2": 1e-5,
                 "epsilon": 1e-6, "samples": samples_n, "seed": 0}
        add(f"mc_expectation {count(samples_n)} normals, both runs, {label}",
            lambda config=config, spec=spec: mc_expectation(
                config, spec, 1e-5, (1e-6, 0.0), samples_n, 0),
            max(1, repeat // 10), noise)
        add(f"recover_covariance, {label}, {count(samples_n)} samples",
            lambda config=config, spec=spec: recover_covariance(
                config, spec, 1e-5, 1e-6, samples_n, 0),
            max(1, repeat // 10), noise, memory=True)
    # the product on twin beams, whose covariance reads the cosines too
    add(f"mc_expectation {count(samples_n)} normals, both runs, "
        "quadrature product on twin beams",
        lambda: mc_expectation(desk_twb, quad, 1e-5, (1e-6, 0.0), samples_n, 0),
        max(1, repeat // 10), {**noise, "config": desk_twb.to_dict()})
    # the oracle walks a truncated number basis, so it only runs at low
    # occupancy; this is the guardrail-domain cost, not the bright one
    add("fock oracle end-to-end, order 4 (dim)",
        lambda: oracle_moments(DIM), max(1, repeat // 10),
        {"config": DIM.to_dict()})
    add("fock_joint_pmf (edge twb)",
        lambda: fock_joint_pmf(EDGE), max(1, repeat // 10),
        {"config": EDGE.to_dict()})
    add("fock_quadrature_moments (dim)",
        lambda: fock_quadrature_moments(DIM), max(1, repeat // 10),
        {"config": DIM.to_dict()})
    for label, config in (("edge twb", EDGE), ("edge squeezed", EDGE_SQ)):
        add(f"fock_quadrature_moments ({label})",
            lambda config=config: fock_quadrature_moments(config),
            max(1, repeat // 10), {"config": config.to_dict()})
    # the configurations oracle-check draws at its default seed
    rng = np.random.default_rng(DEFAULT_SEED)
    drawn = tuple(sample_guardrail_config(rng) for _ in range(3 if args.quick else 100))
    guardrail = {"seed": DEFAULT_SEED, "configs": len(drawn)}
    add(f"oracle over the {len(drawn)} default-seed configurations",
        lambda: oracle_moments(drawn), max(1, repeat // 10), guardrail)
    # its stages, each from the stored output of the stage before: the
    # set-built inputs and cutoffs; the displacement tables and binomial
    # splits of its chunks; the arms' Grams; the joint distributions; the
    # readout
    add("  its inputs and cutoffs", lambda: _port_magnitudes(drawn), max(1, repeat // 5), guardrail)
    inputs = _port_magnitudes(drawn)
    _, chunks = _set_chunks(drawn, inputs)
    add(f"  the tables of its {len(chunks)} chunks",
        lambda: [_chunk_tables(chunk, squeezed) for squeezed, chunk in chunks],
        max(1, repeat // 10), guardrail)
    tables = [_chunk_tables(chunk, squeezed) for squeezed, chunk in chunks]

    def arm_grams() -> None:
        for (squeezed, chunk), table in zip(chunks, tables):
            collections.deque((_squeezed_grams if squeezed else _pair_diagonal_grams)(chunk, table),
                              maxlen=0)

    add("  its Grams from those tables", arm_grams, max(1, repeat // 10), guardrail)
    stored = []  # one array as both Grams where the phases are equal, as the oracle passes them
    for index, kernel, gram1, gram2 in _arm_grams(drawn, inputs):
        first = gram1.copy()
        stored.append((index, kernel, first, first if gram2 is gram1 else gram2.copy()))
    add("  its joint distributions",
        lambda: [_checked_pmf(*grams) for grams in stored],
        max(1, repeat // 10), guardrail)
    pmfs = [pmf for _, pmf in sorted(_joint_pmfs(drawn, inputs), key=lambda item: item[0])]
    etas = np.array([config.eta_pair for config in drawn])
    add("  its moment readout",
        lambda: _readouts(np.array([_factorial_moments(pmf) for pmf in pmfs]), etas),
        max(1, repeat // 5), guardrail)
    add("one stacked engine readout over them",
        lambda: _engine_moments(drawn), max(1, repeat // 5), guardrail)
    engine, oracle = _engine_moments(drawn), oracle_moments(drawn)
    add("  the engine/oracle comparison over them",
        lambda: compare_moments(engine, oracle), repeat, guardrail)
    add("  their cutoffs in one set call",
        lambda: port_cutoffs(drawn), max(1, repeat // 5), guardrail)
    sweeps = {name.removesuffix(".csv"): argv for name, argv in SCANS.items()
              if argv[0] in ("nrf-scan", "uncertainty-scan")}
    sweeps["uncertainty_vs_phi0 at the grid cap"] = CAP_SCAN
    for name, argv in sweeps.items():
        argv = with_points(argv, 3) if args.quick else argv
        add(f"scan {name}, in-process", scan(argv), max(1, repeat // 10),
            {"argv": argv})
    # seed 1000 fails one configuration by Fock truncation, so exit 2 is
    # the expected verdict there
    argv = ["oracle-check", "--n-configs", "2" if args.quick else "100", "--seed", "1000"]
    add(f"oracle-check --n-configs {argv[2]} --seed 1000, in-process",
        scan(argv, verdicts=(0, 2)), max(1, repeat // 10), {"argv": argv})
    for estimator in ("difference-squared", "sum-squared", "quadrature-product"):
        argv = ["mc-estimate", "--estimator", estimator]
        argv += ["--n-samples", str(samples_n)] if args.quick else []
        add(f"mc-estimate {estimator}, in-process", scan(argv),
            max(1, repeat // 10), {"argv": argv})
    add(*probe_row("end", repeat))

    rounds = []
    for number in range(max(1, args.rounds)):
        if args.rounds > 1:
            print(f"-- round {number + 1} of {args.rounds}")
        rounds.append([clock(*spec) for spec in specs])
    rows = rounds[0] if len(rounds) == 1 else merged(rounds)
    if len(rounds) > 1:
        print(f"-- median over {len(rounds)} rounds")
        for row in rows:
            print(f"{row['label']:<52s} {row['cpu_median_ms']:9.3f} cpu {row['median_ms']:9.3f} ms/call")

    if args.json:
        start, end = rows[0]["median_ms"], rows[-1]["median_ms"]
        record = {
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": {name: os.environ.get(name, "unset") for name in BLAS_VARIABLES},
            "quick": args.quick,
            "rounds": len(rounds),
            "drift_probe": {"start_ms": start, "end_ms": end, "end_over_start": end / start},
            "rows": rows,
        }
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
