"""The benchmark's checks pass on true outputs and fail on corrupted ones.

Each case runs ergospectra at a tiny size, so the module finishes in
seconds.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np

from ergospectra import rotation
from ergospectra.duality import TrigPolynomial, build_dual
from ergospectra.gaps import GapRecord, LabelGroup, label_gap
from ergospectra.model import ids, restriction_eigenvalues

from perfbench import checks, run, tracing
from perfbench.workloads import block_spec, build_model


def tiny_case(m):
    spec = block_spec(m, 3.0, np.random.default_rng(5))
    return spec, build_model(spec)


def test_own_restriction_matches_package():
    spec, model = tiny_case(2)
    ours = checks.restriction_eigenvalues(spec, 5)
    theirs = restriction_eigenvalues(model, [spec.theta0], 5)
    assert np.allclose(ours, theirs, atol=1e-10)


def test_rotation_check_catches_shifted_rotation_number():
    m, N = 2, 6
    spec, model = tiny_case(m)
    ev = checks.restriction_eigenvalues(spec, N - 1)
    energies = np.linspace(ev[0] - 0.5, ev[-1] + 0.5, 4)
    rots = [rotation.rot_number(model, E, [spec.theta0], N=N)[0]
            for E in energies]
    assert checks.rotation_scan_problems(energies, rots, ev, m, N) == []
    shifted = list(rots)
    shifted[1] += (m + 1) / N
    assert checks.rotation_scan_problems(energies, shifted, ev, m, N)


def test_phase_check_catches_increasing_branch():
    m, N = 2, 3
    spec, model = tiny_case(m)
    ev = restriction_eigenvalues(model, [spec.theta0], N)
    grid = np.linspace(ev[0] - 0.5, ev[-1] + 0.5, 6)
    phases = rotation.phase_curves(model, [spec.theta0], N, grid).phases
    own = checks.restriction_eigenvalues(spec, N - 1)
    assert checks.phase_curve_problems(grid, phases, own, m, N) == []
    bent = phases.copy()
    bent[3, 0] = bent[2, 0] + 1e-6
    problems = checks.phase_curve_problems(grid, bent, own, m, N)
    assert any("increases" in p for p in problems)


def test_gap_check_catches_neighbouring_label():
    v = (1.0, 1.0, 0.0, 1.0, 1.0)
    alpha, k_max, L, N = checks.GOLDEN, 20, 600, 200
    dual = build_dual(TrigPolynomial(v, alpha))
    interval = (0.1, 0.6)     # inside the widest gap, IDS = alpha
    value = float(ids(dual, [0.0], N, [0.35])[0])
    record = label_gap(GapRecord(interval, value, True),
                       LabelGroup("torus", (alpha,), k_max=k_max), dual.m)
    gap = checks.GapOutcome(interval=interval, ids_value=value,
                            label=record.label)

    chain = checks.scalar_chain_eigenvalues(v, alpha, 0.3, L)

    def reference(E):
        return np.searchsorted(chain, E, side="right") / L

    def problems(g):
        return checks.gap_problems([g], dual.m, alpha, k_max, reference,
                                   2 / L + 2 / N)

    assert problems(gap) == []
    (k,), j = record.label
    assert problems(dataclasses.replace(gap, label=((k + 1,), j)))
    assert problems(dataclasses.replace(gap, label=((k,), j + 1)))


def test_overlapping_flags_both_records():
    assert checks.overlapping([(0, 2), (1, 3), (4, 5)]) == [True, True,
                                                            False]


def test_tracer_counts_and_restores():
    _, model = tiny_case(1)
    original = rotation.track_frames
    tracer = tracing.Tracer().install()
    try:
        rotation.rot_number(model, 0.2, N=4)
        metrics = tracer.metrics(1.0)
    finally:
        tracer.uninstall()
    assert rotation.track_frames is original
    assert metrics["rotation.track_calls"] == 1
    assert metrics["rotation.unit_steps"] == 4
    assert 0 < metrics["rotation.sample_yield"] <= 1


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracing.PER_LAYER
