"""The benchmark's workloads: seeded inputs, one pass of work, output checks.

Each workload has a ``setup`` (input generation and everything the program
needs before the timed work), a ``run_pass`` (one fixed unit of timed work,
repeated until the run's time is spent) and a ``measured`` summary. Passes
are always completed, so every pass does the same work and counts repeat
exactly. Inputs depend only on the seed.

Each repeated piece of work (a training step, a model's forecast, a
``wl_test`` call, a probe pass) is timed, with a ``SpeedProbe`` sample
taken between pieces. ``measured`` gives the end-to-end ``work_ms`` and
``output_per_s`` from the medians of those times at the nominal machine
speed (see ``speed.py``). The raw medians, under the names the workload's
users know, stay in the report with their sample counts.

Checks never raise: a failed check is counted, and the run reports the
failed and attempted counts.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import time

import numpy as np

from spectemp import (dataio, experiments, frequency_temporal, model_core,
                      spectral_graph, temporal_wl, training)
from spectemp.errors import NumericalError

__all__ = ["Checks", "StepClock", "WORKLOADS"]


class Checks:
    """Counts checked operations and failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


class StepClock:
    """Times each training step, from ``gradients`` entry to
    ``optimizer_step`` exit, and checks that each step's loss is finite.

    ``training.train`` calls both functions through module globals, so the
    clock wraps them there. It adds two clock reads per step, and lets the
    speed probe sample before a step starts.
    """

    def __init__(self, checks: Checks, probe):
        self.checks = checks
        self.probe = probe
        self.steps: list = []          # (start, end, windows in the batch, ModelConfig)
        self._open = None

    def install(self, patches) -> None:
        patches.function(training, "gradients", self._wrap_gradients)
        patches.function(training, "optimizer_step", self._wrap_optimizer_step)

    def _wrap_gradients(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.probe.maybe_sample()
            start = time.perf_counter()
            grads, loss = fn(*args, **kwargs)
            self.checks.check(np.isfinite(loss), f"non-finite training loss {loss!r}")
            self._open = (start, len(args[1][0]), args[2])
            return grads, loss
        return timed

    def _wrap_optimizer_step(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            out = fn(*args, **kwargs)
            end = time.perf_counter()
            start, windows, config = self._open
            self.steps.append((start, end, windows, config))
            return out
        return timed


def _timed(fn, *args, **kwargs):
    """(result, start, end) of one call."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, start, time.perf_counter()


def _median_ms(seconds):
    return {"value": statistics.median(seconds) * 1e3, "unit": "ms",
            "samples": len(seconds)}


def _medians(intervals, probe) -> tuple:
    """Per key: the median raw seconds and the median scaled seconds.

    ``intervals`` holds (key, start, end); the keys keep their first order.
    """
    raw: dict = {}
    scaled: dict = {}
    for key, start, end in intervals:
        raw.setdefault(key, []).append(end - start)
        scaled.setdefault(key, []).append(probe.scaled(start, end))
    return ({k: statistics.median(v) for k, v in raw.items()},
            {k: statistics.median(v) for k, v in scaled.items()})


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class TrainInputs:
    models: list                      # (label, ModelConfig, ModelState)
    train_windows: dataio.WindowSet
    val_windows: dataio.WindowSet
    test_windows: dataio.WindowSet
    train_config: training.TrainConfig

    @property
    def window_bytes(self) -> int:
        return sum(w.inputs.nbytes + w.targets.nbytes
                   for w in (self.train_windows, self.val_windows, self.test_windows))


class TrainWorkload:
    """Train each model for a fixed schedule through ``training.train``,
    then forecast the test windows with ``training.evaluate``."""

    # A forecast of the test windows is short next to training (about 8 ms
    # at N=8), so it is repeated to give its median enough samples.
    forecast_repeats = 10
    forecast_chunk = 256              # training.evaluate's default

    def run_pass(self, inputs: TrainInputs, checks: Checks, probe) -> dict:
        val_mae, forecast = [], []
        for label, config, state in inputs.models:
            fresh = dataclasses.replace(
                state, params={k: v.copy() for k, v in state.params.items()})
            try:
                trained, run = training.train(config, inputs.train_config,
                                              inputs.train_windows,
                                              inputs.val_windows, state=fresh)
            except NumericalError as exc:
                checks.check(False, f"{label}: {exc}")
                continue
            last = run.val_mae[-1]
            checks.check(np.isfinite(last), f"{label}: validation MAE {last!r}")
            val_mae.append(last)
            for _ in range(self.forecast_repeats):
                probe.maybe_sample()
                scores, start, end = _timed(training.evaluate, trained, config,
                                            inputs.test_windows, chunk=self.forecast_chunk)
                forecast.append((label, start, end))
                checks.check(np.isfinite(scores["mae"]) and np.isfinite(scores["rmse"]),
                             f"{label}: non-finite forecast scores {scores}")
        return {"val_mae": val_mae, "forecast": forecast,
                "test_windows": inputs.test_windows.count}

    def measured(self, results, passes, steps, probe) -> dict:
        step_s = [end - start for start, end, _, _ in steps]
        # Full batches only: a model's last batch of an epoch may be short.
        full = max(w for _, _, w, _ in steps)
        _, step_medians = _medians(((id(c), a, b) for a, b, w, c in steps if w == full), probe)
        forecasts = [f for r in results for f in r["forecast"]]
        raw_forecast, scaled_forecast = _medians(forecasts, probe)
        windows = len(raw_forecast) * results[0]["test_windows"]
        out = {
            # Each model's median step, averaged over the models: the mix of
            # models is fixed, while a median over all steps would fall on
            # whichever model has the middle step time.
            "work_ms": {"value": statistics.fmean(step_medians.values()) * 1e3,
                        "unit": "ms", "samples": len(steps)},
            "output_per_s": {"value": windows / sum(scaled_forecast.values()),
                             "unit": "1/s", "samples": len(forecasts)},
            "train_windows_per_s": {"value": sum(w for _, _, w, _ in steps) / sum(step_s),
                                    "unit": "windows/s", "samples": len(steps)},
            "train_step_ms_p50": _median_ms(step_s),
            "forecast_windows_per_s": {"value": windows / sum(raw_forecast.values()),
                                       "unit": "windows/s", "samples": len(forecasts)},
            "val_mae": {"value": statistics.fmean(results[0]["val_mae"]),
                        "unit": "normalized", "samples": len(results[0]["val_mae"])},
        }
        if len(step_s) >= 100:
            out["train_step_ms_p90"] = {"value": float(np.percentile(step_s, 90)) * 1e3,
                                        "unit": "ms", "samples": len(step_s)}
        return out


class TrainSmall(TrainWorkload):
    name = "train_small"
    # The five bases trained linear, plus Gegenbauer with ReLU and attention.
    models = [(basis, {"basis": basis}) for basis in experiments.BASIS_ORDER] + [
        ("gegenbauer_nonlinear", {"basis": "gegenbauer", "variant": "nonlinear"})]
    epochs = 3

    def setup(self, seed: int, checks: Checks) -> TrainInputs:
        task = experiments.SynthTask()
        bundle = experiments.prepare_synth(task, seed)
        models = []
        for label, overrides in self.models:
            config = experiments.task_model_config(task, **overrides)
            state = model_core.init_state(config, task.n_nodes, rng=seed,
                                          adjacency=bundle.adjacency)
            models.append((label, config, state))
        return TrainInputs(models, bundle.train_windows, bundle.val_windows,
                           bundle.test_windows,
                           training.TrainConfig(lr=3e-3, epochs=self.epochs,
                                                batch_size=64, seed=seed))


class TrainLarge(TrainWorkload):
    name = "train_large"
    n_per_group = 104        # 208 nodes, the METR-LA sensor count
    # Batches of 16 windows, for training and forecasting. At 64 windows a
    # step's arrays (1.3 MB each) no longer fit the 2 MB per-core L2, and on
    # a shared machine its time varied by 25% between 15 s blocks against
    # 10% at 16 windows. 24 steps of 16 are the same 384 windows.
    lookback, horizon, batch, steps = 12, 3, 16, 24
    # Validation and forecasts use the first 48 windows of their splits, so
    # that one evaluate takes about 0.25 s and a run holds enough of them
    # for a steady median.
    eval_windows, forecast_repeats, forecast_chunk = 48, 12, 16

    def setup(self, seed: int, checks: Checks) -> TrainInputs:
        # The training split holds exactly steps * batch windows, so one
        # epoch is the fixed number of steps.
        train_len = self.steps * self.batch + self.lookback + self.horizon - 1
        length = int(np.ceil(train_len / 0.6))
        data = dataio.synth_signed_groups(self.n_per_group, length, noise_sigma=0.05,
                                          seed=seed, periods=20)
        parts = dataio.split(data, (0.6, 0.2, 0.2))
        train_w, val_w, test_w = (dataio.make_windows(p, self.lookback, self.horizon)
                                  for p in parts)
        val_w, test_w = (dataio.WindowSet(w.inputs[:self.eval_windows],
                                          w.targets[:self.eval_windows],
                                          w.origins[:self.eval_windows])
                         for w in (val_w, test_w))
        config = model_core.ModelConfig(lookback=self.lookback, horizon=self.horizon,
                                        basis="gegenbauer", degree=4,
                                        variant="linear", adjacency_mode="pearson")
        state = model_core.init_state(config, data.n_variables, rng=seed,
                                      train_values=parts[0].values)
        return TrainInputs([("gegenbauer", config, state)], train_w, val_w, test_w,
                           training.TrainConfig(lr=1e-2, epochs=1,
                                                batch_size=self.batch, seed=seed))


# ---------------------------------------------------------------------------
# temporal 1-WL
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class WLPair:
    label: str
    left: temporal_wl.DTDG
    right: temporal_wl.DTDG
    steps: int | None
    verdict: str
    diverged_at: int | None


def random_dtdg(rng, n_nodes: int, n_steps: int, n_edges: int,
                churn: float) -> temporal_wl.DTDG:
    """Uniform random edges; each later snapshot swaps ``churn`` of them."""

    def fill(edges: set):
        while len(edges) < n_edges:
            u, v = (int(i) for i in rng.integers(0, n_nodes, size=2))
            if u != v:
                edges.add((min(u, v), max(u, v)))
        return sorted(edges)

    snapshots = [fill(set())]
    for _ in range(1, n_steps):
        current = snapshots[-1]
        drop = set(rng.choice(len(current), int(churn * n_edges), replace=False).tolist())
        snapshots.append(fill({e for i, e in enumerate(current) if i not in drop}))
    return temporal_wl.DTDG(n_nodes, tuple(tuple(s) for s in snapshots))


def moved_edge_copy(graph: temporal_wl.DTDG, rng) -> temporal_wl.DTDG:
    """Move one snapshot-0 edge (u, v) to (u, w).

    w is picked so that the snapshot-0 degree multiset changes; round 1
    then separates snapshot 0, and the difference reaches the last
    snapshot, which wl_test compares, exactly at round T.
    """
    first = list(graph.edges[0])
    present = set(first)
    degree = np.zeros(graph.n_nodes, dtype=int)
    for u, v in first:
        degree[u] += 1
        degree[v] += 1
    while True:
        u, v = first[int(rng.integers(len(first)))]
        w = int(rng.integers(graph.n_nodes))
        if w in (u, v) or (min(u, w), max(u, w)) in present:
            continue
        if degree[v] != degree[w] + 1:
            break
    moved = [e for e in first if e != (u, v)] + [(min(u, w), max(u, w))]
    return temporal_wl.DTDG(graph.n_nodes, (tuple(moved),) + graph.edges[1:])


class WLRefine:
    """wl_test over a fixed set of three graph pairs."""

    name = "wl_refine"
    n_nodes, n_steps, n_edges, churn = 500, 20, 1000, 0.1
    # Refinement of a graph against a permuted copy stabilizes after 9 to 16
    # rounds, depending on the seed. The cap makes the work of a pass the
    # same for every seed; the verdict is inconclusive either way.
    permuted_rounds = 8

    def setup(self, seed: int, checks: Checks) -> list:
        rng = np.random.default_rng(seed)
        base = random_dtdg(rng, self.n_nodes, self.n_steps, self.n_edges, self.churn)
        permuted = base.permuted(rng.permutation(self.n_nodes))
        moved = moved_edge_copy(base, rng)
        reparsed = temporal_wl.parse_dtdg(temporal_wl.format_dtdg(base))
        checks.check(reparsed.edges == base.edges, "DTDG text round trip changed the edges")
        left, right = (temporal_wl.read_dtdg(temporal_wl.fixture_path(name))
                       for name in ("wl_pair_left", "wl_pair_right"))
        return [
            WLPair("permuted", base, permuted, self.permuted_rounds,
                   temporal_wl.INCONCLUSIVE, None),
            WLPair("moved_edge", base, moved, None,
                   temporal_wl.NON_ISOMORPHIC, self.n_steps),
            WLPair("fixtures", left, right, None, temporal_wl.NON_ISOMORPHIC, 1),
        ]

    def run_pass(self, pairs: list, checks: Checks, probe) -> dict:
        rounds, calls = 0, []
        for pair in pairs:
            probe.maybe_sample()
            report, start, end = _timed(temporal_wl.wl_test, pair.left, pair.right,
                                        steps=pair.steps)
            calls.append((pair.label, start, end))
            rounds += report.rounds
            checks.check((report.verdict, report.diverged_at)
                         == (pair.verdict, pair.diverged_at),
                         f"{pair.label}: got {report.verdict} at {report.diverged_at}, "
                         f"expected {pair.verdict} at {pair.diverged_at}")
        return {"pairs": len(pairs), "rounds": rounds, "calls": calls}

    def measured(self, results, passes, steps, probe) -> dict:
        calls = [c for r in results for c in r["calls"]]
        raw, scaled = _medians(calls, probe)
        pass_s = sum(scaled.values())
        return {
            "work_ms": {"value": pass_s * 1e3, "unit": "ms", "samples": len(calls)},
            "output_per_s": {"value": results[0]["pairs"] / pass_s, "unit": "1/s",
                             "samples": len(calls)},
            "wl_pairs_per_s": {"value": results[0]["pairs"] / sum(raw.values()),
                               "unit": "pairs/s", "samples": len(calls)},
        }


# ---------------------------------------------------------------------------
# spectral probes
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class ProbeInputs:
    graphs: list                      # (laplacian, signal, [FilterBank per basis])
    signals: dict                     # DFT length -> (8, length) real signal
    sampling: tuple                   # (A, W) for column_sampling_check
    seed: int


class SpectralProbe:
    """Recurrence graph filters against the eigendecomposition oracle, DFT
    round trips, and one column-sampling check."""

    name = "spectral_probe"
    n_nodes, n_graphs, density, degree = 207, 6, 0.05, 10
    lengths = (12, 64, 1000, 1024)
    filter_tol = 1e-10                # acceptance criterion 1
    transform_tol = 1e-9

    def setup(self, seed: int, checks: Checks) -> ProbeInputs:
        rng = np.random.default_rng(seed)
        n = self.n_nodes
        graphs = []
        for _ in range(self.n_graphs):
            weights = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < self.density)
            weights = np.triu(weights, 1)
            laplacian = spectral_graph.normalized_laplacian(
                spectral_graph.Adjacency(weights + weights.T))
            signal = rng.standard_normal((n, 12, 2))
            banks = [spectral_graph.FilterBank(
                basis, self.degree, rng.standard_normal((self.degree + 1, 2)),
                alpha=float(rng.uniform(0.6, 2.0))) for basis in spectral_graph.BASES]
            graphs.append((laplacian, signal, banks))
        signals = {length: rng.standard_normal((8, length)) for length in self.lengths}
        sampling = (rng.standard_normal((64, 48)), rng.standard_normal((48, 8)))
        return ProbeInputs(graphs, signals, sampling, seed)

    def run_pass(self, inputs: ProbeInputs, checks: Checks, probe) -> dict:
        start = time.perf_counter()
        worst = 0.0
        for laplacian, signal, banks in inputs.graphs:
            spectrum = spectral_graph.eigendecompose(laplacian)
            for bank in banks:
                fast = spectral_graph.graph_conv(bank, laplacian, signal)
                slow = spectral_graph.spectral_oracle_conv(spectrum, bank, signal)
                err = float(np.linalg.norm(fast - slow) / max(np.linalg.norm(slow), 1e-30))
                worst = max(worst, err)
                checks.check(err < self.filter_tol,
                             f"graph_conv {bank.basis}: relative error {err:.3e}")
        graph_end = time.perf_counter()
        for length, signal in inputs.signals.items():
            spectrum = frequency_temporal.dft(signal)
            back = frequency_temporal.idft(spectrum)
            reference = np.fft.fft(signal)
            roundtrip = np.abs(back - signal).max() / np.abs(signal).max()
            agreement = np.abs(spectrum - reference).max() / np.abs(reference).max()
            checks.check(roundtrip < self.transform_tol and agreement < self.transform_tol,
                         f"dft length {length}: round trip {roundtrip:.3e}, "
                         f"against np.fft {agreement:.3e}")
        a, w = inputs.sampling
        report = frequency_temporal.column_sampling_check(a, w, k=4, s=16, trials=100,
                                                          seed=inputs.seed)
        checks.check(np.isfinite(report.max_lhs) and 0.0 <= report.violation_rate <= 1.0,
                     f"column_sampling_check returned {report}")
        return {"filters": sum(len(b) for _, _, b in inputs.graphs),
                "graph_part": ("graph", start, graph_end), "max_rel_err": worst}

    def measured(self, results, passes, steps, probe) -> dict:
        filters = results[0]["filters"]
        raw_pass, scaled_pass = _medians((("pass", a, b) for a, b in passes), probe)
        raw_graph, scaled_graph = _medians((r["graph_part"] for r in results), probe)
        return {
            "work_ms": {"value": scaled_pass["pass"] * 1e3, "unit": "ms",
                        "samples": len(passes)},
            "output_per_s": {"value": filters / scaled_graph["graph"], "unit": "1/s",
                             "samples": len(results)},
            "filters_checked_per_s": {"value": filters / raw_graph["graph"],
                                      "unit": "filters/s", "samples": len(results)},
            "probe_ms_p50": {"value": raw_pass["pass"] * 1e3, "unit": "ms",
                             "samples": len(passes)},
        }


WORKLOADS = {w.name: w for w in (TrainSmall(), TrainLarge(), WLRefine(), SpectralProbe())}
