"""Acceptance suite: eleven numbered end-to-end checks, one test per
criterion so a verbose run prints one pass/fail line for each.

The first seven pin exact numerical behavior (filter recurrences against
a dense eigendecomposition, polynomial family identities, transform
invariants, gradient correctness, refinement fixtures, a sampling bound).
The last four are directional: trained models must beat their controls
and ablations must hurt, across seed majorities, at desk scale.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` for the
per-criterion diagnostics). The full suite takes several minutes; the
slow criteria carry their own wall-clock budgets.
"""

import time

import numpy as np
import pytest

from spectemp import experiments as ex
from spectemp import model_core as mc
from spectemp import training as tr
from spectemp.frequency_temporal import (TemporalFDMParams,
                                         column_sampling_check, coarse_fdm,
                                         decompose, dft, fine_fdm, idft,
                                         lowest_modes, spectral_attention)
from spectemp.spectral_graph import (FilterBank, basis_eval, eigendecompose,
                                     graph_conv, normalized_laplacian,
                                     orthogonality_residual,
                                     spectral_oracle_conv)
from spectemp.temporal_wl import (DTDG, distinguishable, fixture_path,
                                  init_colors, read_dtdg, refine_step,
                                  refine_to_stable, wl_test)

BASES = ex.BASIS_ORDER


def random_adjacency(rng, n):
    a = rng.uniform(0.0, 1.0, size=(n, n))
    a = (a + a.T) / 2.0
    a[a < 0.3] = 0.0
    np.fill_diagonal(a, 0.0)
    return a


def test_criterion_01_recurrence_matches_eigendecomposition_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 17))
        degree = int(rng.integers(0, 7))
        d = int(rng.integers(1, 4))
        basis = BASES[i % len(BASES)]
        alpha = float(rng.uniform(0.6, 2.0))
        adj = random_adjacency(rng, n)
        theta = rng.standard_normal((degree + 1, d))
        bank = FilterBank(basis=basis, degree=degree, coefficients=theta,
                          alpha=alpha)
        x = rng.standard_normal((n, d))
        lap = normalized_laplacian(adj)
        fast = graph_conv(bank, lap, x)
        slow = spectral_oracle_conv(eigendecompose(lap), bank, x)
        err = np.linalg.norm(fast - slow) / max(np.linalg.norm(slow), 1e-30)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    assert worst < 1e-10, worst
    assert elapsed < 30.0
    print(f"criterion 1 PASS: worst relative error {worst:.2e} "
          f"over 100 graphs, 5 bases ({elapsed:.1f}s)")


def test_criterion_02_gegenbauer_low_orders_weight_and_special_case():
    x = np.linspace(-1.0, 1.0, 41)
    for alpha in (0.5, 1.0, 2.0):
        assert np.array_equal(basis_eval("gegenbauer", 0, x, alpha=alpha),
                              np.ones_like(x))
        assert np.array_equal(basis_eval("gegenbauer", 1, x, alpha=alpha),
                              2.0 * alpha * x)

    worst_cheb = max(
        np.abs(basis_eval("gegenbauer", k, x, alpha=1.0)
               - basis_eval("chebyshev2", k, x)).max()
        for k in range(7))
    assert worst_cheb <= 1e-12

    residuals = {a: orthogonality_residual("gegenbauer", alpha=a)
                 for a in (0.5, 1.0, 2.0)}
    assert all(r < 1e-6 for r in residuals.values()), residuals
    print(f"criterion 2 PASS: order-0/1 exact, chebyshev2 gap {worst_cheb:.1e}, "
          f"quadrature residuals {max(residuals.values()):.1e}")


def test_criterion_03_transform_roundtrip_energy_and_symmetry():
    rng = np.random.default_rng(103)
    worst_round = worst_parseval = worst_conj = 0.0
    for t in (7, 8, 12, 64):
        x = rng.standard_normal((3, t, 2))
        f = dft(x, axis=1)
        back = idft(f, axis=1)
        worst_round = max(worst_round, np.abs(back.real - x).max(),
                          np.abs(back.imag).max())
        energy_time = (np.abs(x) ** 2).sum(axis=1)
        energy_freq = (np.abs(f) ** 2).sum(axis=1) / t
        worst_parseval = max(worst_parseval,
                             np.abs(energy_time - energy_freq).max())
        for k in range(1, t):
            worst_conj = max(worst_conj,
                             np.abs(f[:, k, :] - np.conj(f[:, t - k, :])).max())
    assert worst_round < 1e-9
    assert worst_parseval < 1e-9
    assert worst_conj < 1e-9
    print(f"criterion 3 PASS: roundtrip {worst_round:.1e}, "
          f"energy {worst_parseval:.1e}, symmetry {worst_conj:.1e}")


def test_criterion_04_frequency_pipelines_reduce_to_identity():
    rng = np.random.default_rng(104)
    t, n, d = 12, 4, 2
    z = rng.standard_normal((n, t, d))
    idx = lowest_modes(t, t)
    eye = np.broadcast_to(np.eye(t, dtype=complex), (1, 1, t, t))

    coarse = coarse_fdm(z, TemporalFDMParams(mode_indices=idx, weights=eye))
    err_coarse = np.abs(coarse - z).max()

    fine = fine_fdm(z, TemporalFDMParams(mode_indices=idx, weights=eye,
                                         decomp_window=3))
    err_fine = np.abs(fine - z).max()
    assert err_coarse < 1e-10 and err_fine < 1e-10

    trend, _ = decompose(z, 3)
    q = np.eye(t) + 0.01 * rng.standard_normal((t, t))
    k = np.eye(t) + 0.01 * rng.standard_normal((t, t))
    v = np.eye(t) + 0.01 * rng.standard_normal((t, t))
    out = spectral_attention(trend, np.zeros_like(z), TemporalFDMParams(
        mode_indices=idx, weights=eye, decomp_window=3,
        attention=(q, k, v)))
    assert np.array_equal(out, trend)
    print(f"criterion 4 PASS: coarse {err_coarse:.1e}, fine {err_fine:.1e}, "
          f"zero-seasonal attention exact")


def test_criterion_05_gradients_match_finite_differences():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    results = {}
    for variant in ("linear", "nonlinear"):
        config = mc.ModelConfig(lookback=8, horizon=2, n_dims=1, blocks=1,
                                degree=2, n_modes=3, decomp_window=3,
                                variant=variant)
        state = mc.init_state(config, 3, rng=105,
                              train_values=rng.standard_normal((3, 60, 1)))
        x = rng.standard_normal((4, 3, 8, 1))
        y = rng.standard_normal((4, 3, 2, 1))
        worst = tr.finite_difference_check(state, config, x, y)
        for name, err in worst.items():
            assert err < 1e-4, f"{variant} {name}: {err}"
        results[variant] = max(worst.values())
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 5 PASS: worst relative error "
          f"linear {results['linear']:.1e}, "
          f"nonlinear {results['nonlinear']:.1e} ({elapsed:.1f}s)")


def _partition(colors):
    groups = {}
    for node, color in enumerate(colors):
        groups.setdefault(color, set()).add(node)
    return frozenset(frozenset(g) for g in groups.values())


def _refines(finer, coarser):
    return all(any(f <= c for c in coarser) for f in finer)


def _random_dtdg(rng):
    n = int(rng.integers(2, 9))
    steps = int(rng.integers(1, 5))
    snapshots = []
    for _ in range(steps):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        snapshots.append(tuple(edges))
    features = None
    if rng.random() < 0.5:
        features = rng.integers(0, 3, size=(n, steps, 1)).astype(float)
    return DTDG(n, tuple(snapshots), features)


def test_criterion_06_refinement_fixtures_and_property_suites():
    left = read_dtdg(fixture_path("wl_pair_left"))
    right = read_dtdg(fixture_path("wl_pair_right"))

    # the engineered pair: structurally different nodes the refinement
    # cannot split on the left, while the right splits every pair
    assert not distinguishable(left, 0, 2, 1)
    for u in range(right.n_nodes):
        for v in range(u + 1, right.n_nodes):
            assert distinguishable(right, u, v, 1), (u, v)
    assert wl_test(left, right).verdict == "non_isomorphic"

    rng = np.random.default_rng(106)
    for trial in range(200):
        graph = _random_dtdg(rng)

        # refinement monotonicity: each round only splits classes
        state = init_colors(graph)
        for _ in range(graph.n_nodes + 1):
            nxt = refine_step(graph, state)
            for t in range(graph.n_steps):
                assert _refines(_partition(nxt.colors[:, t]),
                                _partition(state.colors[:, t])), trial
            state = nxt

        # soundness: an isomorphic copy is never reported non-isomorphic
        perm = rng.permutation(graph.n_nodes)
        assert wl_test(graph, graph.permuted(perm)).verdict == "inconclusive"
    print("criterion 6 PASS: fixture pair behaves as designed; "
          "monotonicity and soundness hold on 200 random graphs")


def test_criterion_07_column_sampling_bound_monte_carlo():
    rng = np.random.default_rng(107)
    a = rng.standard_normal((32, 64))
    w = rng.standard_normal((64, 16))
    report = column_sampling_check(a, w, k=4, s=32, trials=500, seed=107)
    assert report.violation_rate <= 0.3, report.violation_rate

    exact = rng.standard_normal((32, 4)) @ rng.standard_normal((4, 64))
    exact_report = column_sampling_check(exact, w, k=4, s=32, trials=50,
                                         seed=107)
    assert exact_report.max_lhs < 1e-8, exact_report.max_lhs
    print(f"criterion 7 PASS: violation rate {report.violation_rate:.3f} "
          f"over 500 trials, exact-rank residual {exact_report.max_lhs:.1e}")


def test_criterion_08_orthogonal_bases_win_the_convergence_race():
    start = time.perf_counter()
    task = ex.SynthTask(noise_sigma=ex.RACE_PRESET["noise_sigma"])
    race = ex.convergence_race(task, seeds=list(range(5)),
                               epochs=ex.RACE_PRESET["epochs"],
                               lr=ex.RACE_PRESET["lr"],
                               batch_size=ex.RACE_PRESET["batch_size"])
    verdicts = ex.race_passes(race)
    elapsed = time.perf_counter() - start
    assert sum(verdicts) >= 4, verdicts
    assert elapsed < 600.0
    print(f"criterion 8 PASS: orthogonal bases ahead in "
          f"{sum(verdicts)}/5 seeds ({elapsed:.0f}s)")


def test_criterion_09_signed_groups_separate_in_embeddings():
    task = ex.SynthTask(noise_sigma=ex.SILHOUETTE_PRESET["noise_sigma"])
    tc = tr.TrainConfig(lr=ex.SILHOUETTE_PRESET["lr"],
                        epochs=ex.SILHOUETTE_PRESET["epochs"],
                        batch_size=ex.SILHOUETTE_PRESET["batch_size"])
    wins = 0
    pairs = []
    for seed in range(5):
        result = ex.signed_groups_experiment(task, seed, tc=tc)
        pairs.append((result["model_silhouette"],
                      result["control_silhouette"]))
        if result["model_silhouette"] > result["control_silhouette"]:
            wins += 1
    assert wins >= 4, pairs
    print(f"criterion 9 PASS: trained embeddings beat the low-pass control "
          f"in {wins}/5 seeds")


def test_criterion_10_forecaster_beats_persistence():
    start = time.perf_counter()
    task = ex.SynthTask(noise_sigma=ex.FORECAST_PRESET["noise_sigma"])
    tc = tr.TrainConfig(lr=ex.FORECAST_PRESET["lr"],
                        epochs=ex.FORECAST_PRESET["epochs"],
                        batch_size=ex.FORECAST_PRESET["batch_size"])
    result = ex.forecast_experiment(task, seed=0, tc=tc)
    elapsed = time.perf_counter() - start
    assert result["improvement"] >= 0.2, result["improvement"]
    assert elapsed < 300.0
    print(f"criterion 10 PASS: model MAE {result['model_mae']:.4f} vs "
          f"persistence {result['persistence_mae']:.4f} "
          f"({100 * result['improvement']:.0f}% better, {elapsed:.0f}s)")


def test_criterion_11_structural_ablations_degrade_accuracy():
    lines = []
    for variant in ("random_projector", "no_fine"):
        result = ex.ablation_direction_check(variant, seeds=range(5))
        assert result["n_worse"] >= 4, (variant, result)
        lines.append(f"  {variant}: ablated model worse in "
                     f"{result['n_worse']}/5 seeds")
    print("criterion 11 PASS:")
    for line in lines:
        print(line)
