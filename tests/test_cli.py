"""End-to-end command-line checks: exit codes, output files, manifests,
and rerun determinism. Everything runs through cli.main() directly on
throwaway directories; one test drives the installed module entry point
through a subprocess."""

import csv
import json
import subprocess
import sys
import warnings

import pytest

from spectemp import cli
from spectemp.experiments import BASIS_ORDER
from spectemp.temporal_wl import fixture_path

TINY = {
    "task": {"n_per_group": 2, "length": 240, "periods": 8,
             "noise_sigma": 0.2, "lookback": 8, "horizon": 2},
    "model": {"blocks": 1, "degree": 2, "n_modes": 4, "decomp_window": 3},
    "train": {"epochs": 2, "batch_size": 64, "lr": 3e-3},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# train / forecast
# ---------------------------------------------------------------------------

def test_train_writes_expected_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "run"
    code = cli.main(["train", "--config", cfg, "--out", str(out), "--seed", "0"])
    assert code == 0
    for name in ("checkpoint.stck", "history.csv", "metrics.json",
                 "manifest.json"):
        assert (out / name).exists(), name

    metrics = read_json(out / "metrics.json")
    assert set(metrics) >= {"mae", "rmse", "epochs_run"}
    assert metrics["epochs_run"] == 2

    manifest = read_json(out / "manifest.json")
    assert manifest["command"] == "train"
    assert manifest["seed"] == 0
    assert manifest["effective_config"]["model"]["degree"] == 2
    assert any(p.endswith("checkpoint.stck") for p in manifest["outputs"])

    rows = read_rows(out / "history.csv")
    assert rows[0] == ["epoch", "train_loss", "val_mae", "val_rmse", "seconds"]
    assert len(rows) == 3

    printed = capsys.readouterr().out
    assert "mae" in printed and "rmse" in printed


def test_train_rerun_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, TINY)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli.main(["train", "--config", cfg, "--out", str(out),
                         "--seed", "7"]) == 0
        outs.append(read_json(out / "metrics.json"))
    assert outs[0] == outs[1]


def test_set_override_reaches_the_run(tmp_path):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg, "--out", str(out),
                     "--set", "train.epochs=1",
                     "--set", "model.degree=3"]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["effective_config"]["train"]["epochs"] == 1
    assert manifest["effective_config"]["model"]["degree"] == 3
    assert len(read_rows(out / "history.csv")) == 2


def test_forecast_reproduces_training_metrics(tmp_path):
    cfg = write_config(tmp_path, TINY)
    train_out = tmp_path / "train"
    assert cli.main(["train", "--config", cfg, "--out", str(train_out),
                     "--seed", "3"]) == 0
    train_metrics = read_json(train_out / "metrics.json")

    fc_cfg = write_config(
        tmp_path,
        {**TINY, "forecast": {"checkpoint": str(train_out / "checkpoint.stck")}},
        name="forecast.json")
    fc_out = tmp_path / "fc"
    assert cli.main(["forecast", "--config", fc_cfg, "--out", str(fc_out),
                     "--seed", "3"]) == 0
    fc_metrics = read_json(fc_out / "metrics.json")
    assert fc_metrics["mae"] == train_metrics["mae"]
    assert fc_metrics["rmse"] == train_metrics["rmse"]

    rows = read_rows(fc_out / "predictions.csv")
    assert rows[0] == ["window_origin", "node_id", "step", "dim", "value"]
    assert len(rows) > 1


def test_forecast_without_checkpoint_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    code = cli.main(["forecast", "--config", cfg,
                     "--out", str(tmp_path / "fc")])
    assert code == 2
    assert "error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# failure exit codes
# ---------------------------------------------------------------------------

def test_missing_config_file_exits_2(tmp_path, capsys):
    code = cli.main(["train", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "run")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_malformed_json_config_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert cli.main(["train", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2


def test_unknown_model_key_exits_2(tmp_path):
    cfg = write_config(tmp_path, {**TINY,
                                  "model": {**TINY["model"], "bogus_knob": 1}})
    assert cli.main(["train", "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 2


def test_out_of_domain_jacobi_exponent_exits_2(tmp_path):
    cfg = write_config(tmp_path, TINY)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--set", "model.basis=jacobi",
                     "--set", "model.jacobi_a=-2.0"]) == 2


def test_unreadable_graph_file_exits_3(tmp_path, capsys):
    garbage = tmp_path / "bad.dtdg"
    garbage.write_text("this is not a graph\n")
    cfg = write_config(tmp_path, {"twl": {"left": str(garbage)}})
    code = cli.main(["twl", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    assert "data error" in capsys.readouterr().err


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """A checkpoint trained on TINY (4 variables), shared by forecast cases."""
    root = tmp_path_factory.mktemp("trained")
    cfg = write_config(root, TINY)
    assert cli.main(["train", "--config", cfg, "--out", str(root / "run")]) == 0
    return (root / "run" / "checkpoint.stck").read_bytes()


def forecast_with(tmp_path, checkpoint_bytes, task=None):
    ckpt = tmp_path / "model.stck"
    ckpt.write_bytes(checkpoint_bytes)
    payload = {**TINY, "task": {**TINY["task"], **(task or {})},
               "forecast": {"checkpoint": str(ckpt)}}
    cfg = write_config(tmp_path, payload, name="forecast.json")
    return cli.main(["forecast", "--config", cfg, "--out", str(tmp_path / "fc")])


def test_truncated_checkpoint_exits_3(tmp_path, capsys, trained_checkpoint):
    assert forecast_with(tmp_path, trained_checkpoint[:-100]) == 3
    assert "data error" in capsys.readouterr().err


def test_checkpoint_bad_magic_exits_3(tmp_path, capsys, trained_checkpoint):
    assert forecast_with(tmp_path, b"XXXX" + trained_checkpoint[4:]) == 3
    assert "data error" in capsys.readouterr().err


def test_checkpoint_node_count_mismatch_exits_2(tmp_path, capsys,
                                                trained_checkpoint):
    assert forecast_with(tmp_path, trained_checkpoint, {"n_per_group": 3}) == 2
    err = capsys.readouterr().err
    assert "6 variables" in err and "built for 4" in err


# Each of these used to end in a traceback (or, for twl.stepz, pass
# silently); each must now be a typed error with its exit code.
BAD_RUNS = {
    "twl pair of two": (["twl", "--set", "twl.pair=[0,2]"], 2),
    "twl steps not int": (["twl", "--set", "twl.steps=x"], 2),
    "twl unknown key": (["twl", "--set", "twl.stepz=3"], 2),
    "column sampling not a section": (
        ["theory", "--set", "theory.column_sampling=5"], 2),
    "column sampling n not int": (
        ["theory", "--set", "theory.column_sampling.n=a"], 2),
    "task lookback not int": (["train", "--set", "task.lookback=x"], 2),
    "model n_modes a string": (["train", "--set", 'model.n_modes="5"'], 2),
    "misspelt section": (["train", "--set", "trian.epochs=1"], 2),
    "checkpoint with renamed parameter": (["forecast"], 3),
}


@pytest.mark.parametrize("case", sorted(BAD_RUNS))
def test_malformed_input_exits_with_typed_error(tmp_path, capsys, case,
                                                trained_checkpoint):
    argv, code = BAD_RUNS[case]
    ckpt = tmp_path / "model.stck"
    ckpt.write_bytes(trained_checkpoint.replace(b"block0.fine_re",
                                                b"block0.fine_rf"))
    cfg = write_config(tmp_path, {**TINY, "forecast": {"checkpoint": str(ckpt)}})
    assert cli.main(argv + ["--config", cfg, "--out", str(tmp_path / "out")]) == code
    prefix = "data error: " if code == 3 else "error: "
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("key,value", [("lookback", 12), ("horizon", 3)])
def test_model_window_geometry_differing_from_task_exits_2(tmp_path, capsys,
                                                            key, value):
    cfg = write_config(tmp_path, TINY)
    code = cli.main(["train", "--config", cfg, "--set", f"model.{key}={value}",
                     "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"model.{key}={value}" in err and f"task.{key}={TINY['task'][key]}" in err
    assert not (tmp_path / "run" / "checkpoint.stck").exists()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_divergent_training_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path, {**TINY,
                                  "train": {"epochs": 6, "batch_size": 64,
                                            "lr": 1e160}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["train", "--config", cfg,
                         "--out", str(tmp_path / "run")])
    assert code == 4
    assert "numerical error" in capsys.readouterr().err
    # The non-finite gradient check reports the divergence; numpy stays quiet.
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# ablate / theory / twl / synth
# ---------------------------------------------------------------------------

def test_ablate_requires_axis(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    assert cli.main(["ablate", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    assert "valid axes" in capsys.readouterr().err


def test_ablate_unknown_axis_lists_choices(tmp_path, capsys):
    cfg = write_config(tmp_path, {**TINY, "ablate": {"axis": "flux"}})
    assert cli.main(["ablate", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
    printed = capsys.readouterr().err
    assert "basis" in printed and "nonlinearity" in printed


def test_ablate_nonlinearity_axis(tmp_path):
    cfg = write_config(tmp_path, {**TINY,
                                  "ablate": {"axis": "nonlinearity",
                                             "seeds": [0]}})
    out = tmp_path / "out"
    assert cli.main(["ablate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "ablation_rows.csv")
    assert rows[0] == ["variant", "seed", "mae", "rmse", "epochs_run"]
    assert len(rows) == 1 + 3  # linear, relu_only, nonlinear
    summary = read_rows(out / "ablation_summary.csv")
    assert summary[0][0] == "variant"
    assert len(summary) == 1 + 3


def test_twl_default_fixtures(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["twl", "--out", str(out)]) == 0
    report = read_json(out / "twl.json")
    assert report["verdict"] == "non_isomorphic"
    printed = capsys.readouterr().out
    assert "non_isomorphic" in printed


def test_twl_pair_query(tmp_path, capsys):
    cfg = write_config(tmp_path, {"twl": {"pair": [0, 2, 1]}})
    out = tmp_path / "out"
    assert cli.main(["twl", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "distinguishable(left, 0, 2, t=1): False" in printed


def test_twl_self_comparison_inconclusive(tmp_path):
    left = str(fixture_path("wl_pair_left"))
    cfg = write_config(tmp_path, {"twl": {"left": left, "right": left}})
    out = tmp_path / "out"
    assert cli.main(["twl", "--config", cfg, "--out", str(out)]) == 0
    assert read_json(out / "twl.json")["verdict"] == "inconclusive"


def test_theory_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "theory": {"column_sampling": {"n": 8, "t": 16, "k": 2, "s": 8,
                                       "trials": 10},
                   "race": {"epochs": 1, "seeds": [0]}},
    })
    out = tmp_path / "out"
    assert cli.main(["theory", "--config", cfg, "--out", str(out)]) == 0

    report = read_json(out / "theory.json")
    assert 0.0 <= report["column_sampling"]["violation_rate"] <= 1.0
    assert set(report["orthogonality"]) == set(BASIS_ORDER)
    assert report["orthogonality"]["gegenbauer"]["1.0"] < 1e-6
    assert report["orthogonality"]["monomial"]["1.0"] > 1e-2
    assert report["density"]["fitted_alpha"] > 0

    rows = read_rows(out / "race.csv")
    assert rows[0] == ["epoch"] + list(BASIS_ORDER)
    assert len(rows) == 2  # header + one epoch

    printed = capsys.readouterr().out
    assert "violation rate" in printed


def test_synth_embedding_exports(tmp_path, capsys):
    cfg = write_config(tmp_path, {**TINY,
                                  "synth": {"seeds": [0], "n_eval": 4}})
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0

    sil = read_rows(out / "silhouettes.csv")
    assert sil[0] == ["seed", "model_silhouette", "control_silhouette",
                      "model_wins"]
    assert len(sil) == 2

    n_nodes = 2 * TINY["task"]["n_per_group"]
    for tag in ("model", "control"):
        wide = read_rows(out / f"embeddings_{tag}.csv")
        assert wide[0][:3] == ["node_id", "group", "f0"]
        assert len(wide) == 1 + n_nodes
        long = read_rows(out / f"embeddings_{tag}_long.csv")
        assert long[0] == ["node_id", "t", "dim", "value"]

    labels = read_rows(out / "labels.csv")
    assert len(labels) == 1 + n_nodes
    assert "model wins" in capsys.readouterr().out


def test_module_entry_point_subprocess(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "spectemp.cli", "twl", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "wl_test: non_isomorphic" in proc.stdout


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
