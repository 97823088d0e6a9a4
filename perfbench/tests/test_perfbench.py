"""Tests of the benchmark itself: seeded inputs, failure counting, patch
hygiene, span reduction, speed scaling and the result line. Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spectemp import (autodiff, experiments, frequency_temporal,  # noqa: E402
                      model_core, spectral_graph, temporal_wl, training)
from speed import NOMINAL_S, SpeedProbe  # noqa: E402
from tracer import Patches, Tracer, reduce_spans  # noqa: E402
from workloads import Checks  # noqa: E402


def _parts(inputs):
    """The arrays and edge lists that make up a workload's inputs."""
    if isinstance(inputs, workloads.TrainInputs):
        parts = [inputs.train_windows.inputs, inputs.val_windows.targets,
                 inputs.test_windows.inputs]
        for _, _, state in inputs.models:
            parts += [state.params[k] for k in sorted(state.params)]
        return parts
    if isinstance(inputs, workloads.ProbeInputs):
        parts = [lap for lap, _, _ in inputs.graphs] + [x for _, x, _ in inputs.graphs]
        return parts + list(inputs.signals.values()) + list(inputs.sampling)
    return [edges for pair in inputs for edges in (pair.left.edges, pair.right.edges)]


def _same(a, b):
    return all(np.array_equal(np.asarray(x), np.asarray(y), equal_nan=False)
               if isinstance(x, np.ndarray) else x == y
               for x, y in zip(_parts(a), _parts(b), strict=True))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_one_seed_and_differ_across_seeds(name):
    workload = workloads.WORKLOADS[name]
    checks = Checks()
    first, again, other = (workload.setup(seed, checks) for seed in (3, 3, 4))
    assert _same(first, again)
    assert not _same(first, other)
    assert checks.failed == 0


def test_wrong_verdict_counts_as_failed_operation():
    left, right = (temporal_wl.read_dtdg(temporal_wl.fixture_path(n))
                   for n in ("wl_pair_left", "wl_pair_right"))
    right_pair = workloads.WLPair("fixtures", left, right, None,
                                  temporal_wl.NON_ISOMORPHIC, 1)
    wrong_round = workloads.WLPair("fixtures", left, right, None,
                                   temporal_wl.NON_ISOMORPHIC, 2)
    wrong_verdict = workloads.WLPair("fixtures", left, right, None,
                                     temporal_wl.INCONCLUSIVE, None)
    checks = Checks()
    workloads.WORKLOADS["wl_refine"].run_pass([right_pair, wrong_round, wrong_verdict],
                                              checks, SpeedProbe())
    assert (checks.attempted, checks.failed) == (3, 2)


def _small_probe():
    probe = workloads.SpectralProbe()
    probe.n_nodes, probe.n_graphs, probe.lengths = 12, 1, (12, 16)
    return probe


@pytest.mark.parametrize("module,attr", [(spectral_graph, "graph_conv"),
                                         (frequency_temporal, "idft")])
def test_tolerance_breach_counts_as_failed_operation(monkeypatch, module, attr):
    probe = _small_probe()
    inputs = probe.setup(0, Checks())
    clean = Checks()
    probe.run_pass(inputs, clean, SpeedProbe())
    assert clean.failed == 0 and clean.attempted == 5 + 2 + 1

    original = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **k: original(*a, **k) * (1.0 + 1e-6))
    breached = Checks()
    probe.run_pass(inputs, breached, SpeedProbe())
    assert breached.attempted == clean.attempted
    assert breached.failed == (5 if attr == "graph_conv" else 2)


def _bindings():
    modules = [m for n, m in sys.modules.items() if n.startswith("spectemp")]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_wrappers_leave_every_module_attribute_as_found():
    before = _bindings()
    tensor_before = dict(autodiff.Tensor.__dict__)
    with pytest.raises(RuntimeError):
        with Patches() as patches:
            workloads.StepClock(Checks(), SpeedProbe()).install(patches)
            layers.install(Tracer(), patches)
            # The name bound by ``from ... import`` is patched too.
            assert model_core.moving_average_matrix is not before[
                ("spectemp.model_core", "moving_average_matrix")]
            assert autodiff.Tensor.__init__ is not tensor_before["__init__"]
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert dict(autodiff.Tensor.__dict__) == tensor_before


def _tiny_train_inputs():
    task = experiments.SynthTask(n_per_group=2, length=300, lookback=12, horizon=2)
    bundle = experiments.prepare_synth(task, 0)
    config = experiments.task_model_config(task, degree=2, n_modes=3,
                                           variant="nonlinear")
    state = model_core.init_state(config, task.n_nodes, rng=0, adjacency=bundle.adjacency)
    return workloads.TrainInputs([("tiny", config, state)], bundle.train_windows,
                                 bundle.val_windows, bundle.test_windows,
                                 training.TrainConfig(lr=1e-3, epochs=1, batch_size=64))


def test_traced_passes_reduce_to_nonnegative_self_times():
    probe = _small_probe()
    probe_inputs = probe.setup(0, Checks())
    fixtures = workloads.WORKLOADS["wl_refine"].setup(0, Checks())[2:]
    tracer, checks, speed = Tracer(), Checks(), SpeedProbe()
    with Patches() as patches:
        layers.install(tracer, patches)
        clock = workloads.StepClock(checks, speed)
        clock.install(patches)
        train_inputs = _tiny_train_inputs()
        workloads.WORKLOADS["train_small"].run_pass(train_inputs, checks, speed)
        probe.run_pass(probe_inputs, checks, speed)
        workloads.WORKLOADS["wl_refine"].run_pass(fixtures, checks, speed)
    assert checks.failed == 0 and clock.steps

    reduced = reduce_spans(tracer.spans)
    assert {"training.gradients", "autodiff.graph_mix", "autodiff.backward",
            "spectral_graph.graph_conv.bernstein", "frequency_temporal.dft.other",
            "temporal_wl.refine_step"} <= reduced.keys()
    for name, row in reduced.items():
        assert row["self_s"] >= 0.0, name
        assert row["self_s"] <= row["inclusive_s"], name

    metrics = layers.layer_metrics(tracer, passes=1, setups=1,
                                   extra={"overhead_pct": 0.0, "rounds": 1})
    assert [name for name, _, _ in layers.PER_LAYER] == list(metrics)
    assert all(math.isfinite(m["value"]) and m["value"] >= 0 for m in metrics.values())
    assert metrics["autodiff.nodes_per_step"]["value"] > 0
    assert metrics["frequency_temporal.moving_average_matrix.calls_per_step"]["value"] == 1


def test_reduce_spans_subtracts_direct_children_only():
    spans = [("outer", 0, 100, -1), ("mid", 10, 60, 0), ("leaf", 20, 50, 1),
             ("mid", 70, 90, 0)]
    reduced = reduce_spans(spans)
    assert reduced["outer"]["self_s"] == pytest.approx(30e-9)
    assert reduced["mid"]["self_s"] == pytest.approx(40e-9)
    assert reduced["mid"]["calls"] == 2
    assert reduced["leaf"]["self_s"] == pytest.approx(30e-9)


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "wl_refine",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_scales_by_the_neighbouring_samples():
    probe = SpeedProbe()
    probe.times, probe.seconds = [1.0, 2.0, 3.0], [0.010, 0.030, 0.050]
    assert probe.scaled(1.5, 1.9) == pytest.approx(0.4 * NOMINAL_S / 0.020)
    assert probe.scaled(2.1, 2.6) == pytest.approx(0.5 * NOMINAL_S / 0.040)
    # Before the first sample or after the last, the one neighbour alone.
    assert probe.scaled(0.5, 0.9) == pytest.approx(0.4 * NOMINAL_S / 0.010)
    assert probe.scaled(3.5, 4.0) == pytest.approx(0.5 * NOMINAL_S / 0.050)
    with pytest.raises(ValueError):
        SpeedProbe().scaled(0.0, 1.0)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_holds_the_declared_metrics(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectral_probe",
                           "--seed", "2", "--seconds", "0.5", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
