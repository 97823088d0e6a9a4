"""End-to-end command-line checks: exit codes, output files, manifests,
and rerun determinism. Everything runs through cli.main() directly on
throwaway directories; one test drives the installed module entry point
through a subprocess."""

import csv
import dataclasses
import json
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from spectemp import cli
from spectemp import experiments as ex
from spectemp import model_core as mc
from spectemp import training as tr
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
    env = manifest["environment"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "cores", "wall_s"}
    assert env["numpy"] == np.__version__ and set(env["blas"]) == {"name", "version"}
    assert env["cores"] >= 1 and env["wall_s"] > 0

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


@pytest.mark.parametrize("method", ["zscore", "minmax"])
def test_normalized_csv_train_and_forecast_agree_on_the_raw_scale(tmp_path, method):
    steps = np.arange(240)
    series = np.stack([np.sin(2 * np.pi * steps / 24), 3 + 2 * np.cos(2 * np.pi * steps / 12),
                       np.full(240, 5.0)], axis=1)
    np.savetxt(tmp_path / "series.csv", series, delimiter=",")
    data = {"csv": str(tmp_path / "series.csv"), "normalize": method}
    payload = {**TINY, "data": data}
    train_out, fc_out = tmp_path / "train", tmp_path / "fc"
    assert cli.main(["train", "--config", write_config(tmp_path, payload),
                     "--out", str(train_out)]) == 0
    checkpoint = str(train_out / "checkpoint.stck")
    assert cli.main(["forecast", "--out", str(fc_out), "--config", write_config(
        tmp_path, {**payload, "forecast": {"checkpoint": checkpoint}},
        name="forecast.json")]) == 0

    train_metrics = read_json(train_out / "metrics.json")
    fc_metrics = read_json(fc_out / "metrics.json")
    assert (fc_metrics["mae"], fc_metrics["rmse"]) == (train_metrics["mae"],
                                                       train_metrics["rmse"])
    state, config = mc.load_checkpoint(checkpoint)
    bundle = ex.prepare_data(ex.SynthTask(**TINY["task"]), 0, ex.DataSource(**data))
    predicted, _ = tr.predict(state, config, bundle.test_windows, bundle.stats)
    values = [float(row[-1]) for row in read_rows(fc_out / "predictions.csv")[1:]]
    assert values == predicted.ravel().tolist()
    for out in (train_out, fc_out):
        dataset = read_json(out / "manifest.json")["effective_config"]["dataset"]
        assert dataset["normalization"] == method
        assert dataset["degenerate_variables"] == [2]


def test_forecast_forwards_at_most_256_windows_at_once(tmp_path, monkeypatch):
    task = {**TINY["task"], "length": 1600}
    cfg = write_config(tmp_path, {**TINY, "task": task,
                                  "train": {**TINY["train"], "epochs": 1}})
    train_out = tmp_path / "train"
    assert cli.main(["train", "--config", cfg, "--out", str(train_out)]) == 0
    checkpoint = str(train_out / "checkpoint.stck")
    fc_cfg = write_config(tmp_path,
                          {**TINY, "task": task, "forecast": {"checkpoint": checkpoint}},
                          name="forecast.json")

    sizes = []
    forward = mc.forward

    def counting_forward(x, state, config):
        sizes.append(len(x))
        return forward(x, state, config)

    monkeypatch.setattr(mc, "forward", counting_forward)
    fc_out = tmp_path / "fc"
    assert cli.main(["forecast", "--config", fc_cfg, "--out", str(fc_out)]) == 0
    assert sum(sizes) == read_json(fc_out / "metrics.json")["windows"] > 256
    assert max(sizes) <= 256


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


@pytest.mark.parametrize("text", ["this is not a graph\n", "0 1\n#\n#\n", "-1 1\n#\n#\n",
                                  "2 0\n"],
                         ids=["garbage", "no nodes", "negative nodes", "no snapshots"])
def test_unreadable_graph_file_exits_3(tmp_path, capsys, text):
    garbage = tmp_path / "bad.dtdg"
    garbage.write_text(text)
    cfg = write_config(tmp_path, {"twl": {"left": str(garbage)}})
    code = cli.main(["twl", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 3
    err = capsys.readouterr().err
    assert "data error" in err and repr(text.splitlines()[0]) in err


def test_graph_file_with_a_nan_feature_exits_3(tmp_path, capsys):
    bad = tmp_path / "nan.dtdg"
    bad.write_text("2 1\n#\nnan\n2.0\n#\n")
    code = cli.main(["twl", "--set", f"twl.left={bad}", "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == "data error: features contain non-finite values\n"


def test_graph_file_with_an_endpoint_past_int64_exits_3(tmp_path, capsys):
    bad = tmp_path / "far.dtdg"
    bad.write_text("2 1\n0 99999999999999999999\n#\n#\n")
    code = cli.main(["twl", "--set", f"twl.left={bad}", "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == ("data error: edge 0-99999999999999999999"
                                       " out of range in snapshot 0\n")


def test_graph_file_too_large_to_refine_exits_3(tmp_path, capsys):
    # the header alone asks for 2 * 10**20 cells; nothing is allocated
    big = tmp_path / "big.dtdg"
    big.write_text("99999999999999999999 1\n#\n#\n")
    code = cli.main(["twl", "--set", f"twl.left={big}", "--set", f"twl.right={big}",
                     "--out", str(tmp_path / "out")])
    assert code == 3
    assert "graphs too large to refine" in capsys.readouterr().err


def test_config_file_with_a_utf8_byte_order_mark_is_read(tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"twl": {"steps": 1}}).encode())
    assert cli.main(["twl", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert read_json(tmp_path / "out" / "manifest.json")["effective_config"]["twl"]["steps"] == 1


@pytest.mark.parametrize("raw", [b'{"train": {"epochs": "\xb5"}}', b"[" * 200_000],
                         ids=["not utf8", "nested too deep"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, raw):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    assert cli.main(["train", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("section,key,name", [("twl", "left", "bad.dtdg"),
                                              ("data", "csv", "bad.csv")])
def test_input_file_that_is_not_utf8_exits_3(tmp_path, capsys, section, key, name):
    garbage = tmp_path / name
    garbage.write_bytes(b"\xff\xfe1 1\n#\n#\n")
    cfg = write_config(tmp_path, {**TINY, section: {key: str(garbage)}})
    command = "twl" if section == "twl" else "train"
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("data error: ")


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


def test_checkpoint_with_nan_parameter_exits_3(tmp_path, capsys,
                                               trained_checkpoint):
    source = tmp_path / "trained.stck"
    source.write_bytes(trained_checkpoint)
    state, config = mc.load_checkpoint(source)
    state.params["block0.theta"][1] = float("nan")
    mc.save_checkpoint(source, state, config)
    assert forecast_with(tmp_path, source.read_bytes()) == 3
    assert "block0.theta holds non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "fc" / "metrics.json").exists()


# Each of these used to end in a traceback (or, for twl.stepz and the two
# task settings, pass silently); each must now be a typed error with its
# exit code.
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
    "train patience negative": (["train", "--set", "train.patience=-3"], 2),
    "learned embed_dim zero": (["train", "--set", "model.adjacency_mode=learned",
                                "--set", "model.embed_dim=0"], 2),
    "learned embed_dim negative": (["train", "--set", "model.adjacency_mode=learned",
                                    "--set", "model.embed_dim=-2"], 2),
    "train --seed negative": (["train", "--seed", "-1"], 2),
    "theory --seed negative": (["theory", "--seed", "-1"], 2),
    "train seed negative": (["train", "--set", "train.seed=-5"], 2),
    "synth seeds negative": (["synth", "--set", "synth.seeds=[-2]"], 2),
    "ablate seeds negative": (["ablate", "--set", "ablate.axis=basis",
                               "--set", "ablate.seeds=[-1]"], 2),
    "race seeds negative": (["theory", "--set", "theory.race.seeds=[-1]"], 2),
    "task noise_sigma negative": (["train", "--set", "task.noise_sigma=-1"], 2),
    "task periods zero": (["train", "--set", "task.periods=0"], 2),
    "data layout unknown value": (["train", "--set", "data.layout=bogus"], 2),
    "data impute unknown value": (["train", "--set", "data.impute=fill"], 2),
    "data normalize unknown value": (["train", "--set", "data.normalize=bogus"], 2),
    "model variant unknown value": (["train", "--set", "model.variant=bogus"], 2),
    "model basis unknown value": (["train", "--set", "model.basis=fourier"], 2),
    "model projector unknown value": (["train", "--set", "model.projector=x"], 2),
    "model blocks zero": (["train", "--set", "model.blocks=0"], 2),
    "model degree negative": (["train", "--set", "model.degree=-1"], 2),
    "model lookback zero": (["train", "--set", "model.lookback=0"], 2),
    "model n_modes out of range": (["train", "--set", "model.n_modes=99"], 2),
    "model decomp_window zero": (["train", "--set", "model.decomp_window=0"], 2),
    "train batch_size zero": (["train", "--set", "train.batch_size=0"], 2),
    "train epochs zero": (["train", "--set", "train.epochs=0"], 2),
    "model jacobi_a ignored by the basis": (["train", "--set", "model.jacobi_a=-5"], 2),
    "model jacobi_b ignored by the basis": (["train", "--set", "model.basis=monomial",
                                             "--set", "model.jacobi_b=9"], 2),
    "synth train seed ignored": (["synth", "--set", "train.seed=7"], 2),
    "ablate train seed ignored": (["ablate", "--set", "ablate.axis=basis",
                                   "--set", "train.seed=7"], 2),
    "checkpoint with renamed parameter": (["forecast"], 3),
    "override without '='": (["train", "--set", "foo"], 2),
    "override into a value": (["train", "--set", "model.lookback=12",
                               "--set", "model.lookback.x=1"], 2),
    "config file a JSON list": (["train", "--config", "list.json"], 2),
    "twl steps negative": (["twl", "--set", "twl.steps=-1"], 2),
    "synth n_eval zero": (["synth", "--set", "synth.n_eval=0"], 2),
    "forecast checkpoint missing": (["forecast", "--set",
                                     "forecast.checkpoint=no/such/model.stck"], 2),
    # Adam's constants and batch shuffling are fixed, not train settings
    "train key beta1 removed": (["train", "--set", "train.beta1=0.9"], 2),
    "train key beta2 removed": (["train", "--set", "train.beta2=0.999"], 2),
    "train key eps removed": (["train", "--set", "train.eps=1e-8"], 2),
    "train key shuffle removed": (["train", "--set", "train.shuffle=true"], 2),
    # the variant alone picks the nonlinearity; the residual and I - L are fixed
    "model key use_relu removed": (["train", "--set", "model.use_relu=true"], 2),
    "model key use_attention removed": (["train", "--set", "model.use_attention=false"], 2),
    "model key residual removed": (["train", "--set", "model.residual=true"], 2),
    "model key monomial_on_laplacian removed": (
        ["train", "--set", "model.monomial_on_laplacian=false"], 2),
}

# what the error says, where the key-naming test below does not check it
BAD_RUN_MESSAGES = {
    "override without '='": "override 'foo' must look like key=value",
    "override into a value": "'model.lookback.x': 'lookback' is not a section",
    "config file a JSON list": "config file must hold a JSON object",
    "forecast checkpoint missing": "checkpoint not found: no/such/model.stck",
    **{f"train key {key} removed": f"unknown train keys: ['{key}']"
       for key in ("beta1", "beta2", "eps", "shuffle")},
    **{f"model key {key} removed": f"unknown model keys: ['{key}']"
       for key in ("use_relu", "use_attention", "residual", "monomial_on_laplacian")},
}


@pytest.mark.parametrize("case", sorted(BAD_RUNS))
def test_malformed_input_exits_with_typed_error(tmp_path, capsys, monkeypatch, case,
                                                trained_checkpoint):
    argv, code = BAD_RUNS[case]
    ckpt = tmp_path / "model.stck"
    ckpt.write_bytes(trained_checkpoint.replace(b"block0.fine_re",
                                                b"block0.fine_rf"))
    cfg = write_config(tmp_path, {**TINY, "forecast": {"checkpoint": str(ckpt)}})
    # a case's own --config, relative to tmp_path, comes last and so wins
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, [TINY], name="list.json")
    assert cli.main(argv[:1] + ["--config", cfg, "--out", str(tmp_path / "out")]
                    + argv[1:]) == code
    prefix = "data error: " if code == 3 else "error: "
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert BAD_RUN_MESSAGES.get(case, "") in err


@pytest.mark.parametrize("case", sorted(c for c in BAD_RUNS if "negative" in c or "zero" in c
                                         or "unknown value" in c or "out of range" in c
                                         or "ignored" in c))
def test_bad_setting_error_names_its_key(tmp_path, capsys, case):
    argv, _ = BAD_RUNS[case]
    cli.main(argv + ["--config", write_config(tmp_path, TINY),
                     "--out", str(tmp_path / "out")])
    key = argv[-1].split("=")[0] if argv[-2] == "--set" else argv[-2]
    assert key in capsys.readouterr().err


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


@pytest.mark.parametrize("key,value", [("lookback", 12), ("horizon", 5)])
def test_forecast_task_window_geometry_differing_from_checkpoint_exits_2(
        tmp_path, capsys, trained_checkpoint, key, value):
    assert forecast_with(tmp_path, trained_checkpoint, {key: value}) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"model.{key}={TINY['task'][key]}" in err and f"task.{key}={value}" in err
    assert not (tmp_path / "fc" / "predictions.csv").exists()


@pytest.mark.parametrize("key,raw", [("train.lr", "NaN"), ("train.lr", "Infinity"),
                                     ("model.alpha", "Infinity"),
                                     ("train.lr", "1" + "0" * 400)])
def test_non_finite_config_value_exits_2(tmp_path, capsys, key, raw):
    cfg = write_config(tmp_path, TINY)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["train", "--config", cfg, "--set", f"{key}={raw}",
                         "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} must be a finite float" in err
    assert not caught
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


def test_divergence_on_the_last_optimizer_step_exits_4(tmp_path, capsys):
    # one epoch of one batch: no later step's gradients could catch it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["train", "--set", "train.epochs=1",
                         "--set", "train.batch_size=100000", "--set", "train.lr=1e308",
                         "--out", str(tmp_path / "run")])
    assert code == 4
    assert "numerical error" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "run" / "checkpoint.stck").exists()


def test_failed_run_removes_only_the_empty_directories_it_created(tmp_path, capsys):
    diverging = ["train", "--set", "train.epochs=1", "--set", "train.batch_size=100000",
                 "--set", "train.lr=1e308"]
    assert cli.main(diverging + ["--out", str(tmp_path / "dv")]) == 4
    assert not (tmp_path / "dv").exists()
    assert cli.main(diverging + ["--out", str(tmp_path / "a" / "b")]) == 4
    assert list(tmp_path.iterdir()) == []
    (tmp_path / "kept").mkdir()
    assert cli.main(diverging + ["--out", str(tmp_path / "kept")]) == 4
    assert (tmp_path / "kept").is_dir()
    (tmp_path / "made" / "old").mkdir(parents=True)
    assert cli.main(diverging + ["--out", str(tmp_path / "made" / "new" / "run")]) == 4
    assert sorted(p.name for p in (tmp_path / "made").iterdir()) == ["old"]
    assert capsys.readouterr().err.count("numerical error") == 4


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


def test_twl_spectral_conditions_on_the_fixed_topology_fixture(tmp_path, capsys):
    fixed = str(fixture_path("fixed_topology"))
    cfg = write_config(tmp_path, {"twl": {"left": fixed, "right": fixed}})
    out = tmp_path / "out"
    assert cli.main(["twl", "--config", cfg, "--out", str(out)]) == 0
    report = read_json(out / "twl.json")
    assert report["verdict"] == "inconclusive"
    assert report["spectral"]["left"] == {"repeated_eigenvalues": False,
                                          "missing_components": [[0, 1], [0, 3]]}
    assert report["spectral"]["right"] == report["spectral"]["left"]
    assert "left: repeated eigenvalues False" in capsys.readouterr().out


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


@pytest.mark.parametrize("overrides,train,noise_sigma", [
    (["train.epochs=1"], {"lr": 3e-3, "batch_size": 64, "epochs": 1}, 0.5),
    (["train.epochs=1", "train.lr=0.01", "task.noise_sigma=0.2"],
     {"lr": 0.01, "batch_size": 64, "epochs": 1}, 0.2)])
def test_synth_preset_fills_each_key_the_config_omits(tmp_path, overrides, train,
                                                      noise_sigma):
    task = {key: value for key, value in TINY["task"].items() if key != "noise_sigma"}
    cfg = write_config(tmp_path, {"task": task, "synth": {"seeds": [0], "n_eval": 2}})
    out = tmp_path / "out"
    argv = ["synth", "--config", cfg, "--out", str(out)]
    assert cli.main(argv + [arg for item in overrides for arg in ("--set", item)]) == 0
    effective = read_json(out / "manifest.json")["effective_config"]
    assert {key: effective["train"][key] for key in train} == train
    assert effective["task"]["noise_sigma"] == noise_sigma


@pytest.mark.parametrize("command,seeds_key", [("synth", "synth.seeds"),
                                                ("ablate", "ablate.seeds")])
def test_per_seed_commands_refuse_train_seed(tmp_path, capsys, command, seeds_key):
    cfg = write_config(tmp_path, {**TINY, "synth": {"seeds": [0], "n_eval": 2},
                                  "ablate": {"axis": "basis", "seeds": [0]},
                                  "train": {**TINY["train"], "seed": 7}})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "train.seed" in err and seeds_key in err
    assert not (out / "manifest.json").exists()


def test_synth_manifest_records_the_seeds_that_ran(tmp_path):
    cfg = write_config(tmp_path, {**TINY, "synth": {"seeds": [3], "n_eval": 2}})
    out = tmp_path / "out"
    assert cli.main(["synth", "--config", cfg, "--out", str(out)]) == 0
    effective = read_json(out / "manifest.json")["effective_config"]
    assert effective["synth"]["seeds"] == [3]
    assert "seed" not in effective["train"]


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


# ---------------------------------------------------------------------------
# documentation
# ---------------------------------------------------------------------------

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# The `model` and `train` rows name a selection of their keys on purpose.
TABLE_SECTIONS = {"task": ex.SynthTask, "data": ex.DataSource,
                  "forecast": cli.ForecastSection, "ablate": cli.AblateSection,
                  "theory.column_sampling": cli.ColumnSamplingSection,
                  "theory.race": cli.RaceSection, "twl": cli.TwlSection,
                  "synth": cli.SynthSection}


def table_keys(cell: str) -> set:
    """The backticked names of a config-table cell outside parentheses."""
    while (stripped := re.sub(r"\([^()]*\)", "", cell)) != cell:
        cell = stripped
    return set(re.findall(r"`(\w+)`", cell))


def test_readme_config_table_lists_exactly_each_section_key():
    rows = dict(re.findall(r"^\| `([\w.]+)` \| (.*) \|$",
                           README.read_text(encoding="utf-8"), re.MULTILINE))
    for name, cls in TABLE_SECTIONS.items():
        assert table_keys(rows[name]) == {f.name for f in dataclasses.fields(cls)}, name
