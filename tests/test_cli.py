import csv
import json
import os

import numpy as np
import pytest

from conftest import random_dense_net
from opcert import cli
from opcert.cli import main
from opcert.operator_net import OperatorNet, WaveletGainLayer, save_net


@pytest.fixture
def net_file(tmp_path, rng):
    path = tmp_path / "net.json"
    save_net(random_dense_net(rng, (8, 8, 8), weight_scale=2.0, last_identity=False),
             path)
    return str(path)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(["--out", str(out), *argv])
    return code, out


def test_certify_writes_certificate(tmp_path, net_file, capsys):
    code, out = _run(tmp_path, "certify", "--net", net_file)
    assert code == 0
    rows = _read_csv(out / "certificate.csv")
    assert rows[0] == ["layer", "variant", "lipschitz", "activation",
                       "activation_lipschitz"]
    assert len(rows) == 3
    assert "certified bound" in capsys.readouterr().out
    assert (out / "manifest.json").exists()


def test_certify_missing_file_is_validation_error(tmp_path):
    code, _ = _run(tmp_path, "certify", "--net", str(tmp_path / "nope.json"))
    assert code == 1


def test_fixpoint_trace(tmp_path, net_file):
    code, out = _run(tmp_path, "fixpoint", "--net", net_file,
                     "--q", "0.8", "--eps", "1e-6")
    assert code == 0
    rows = _read_csv(out / "trace.csv")
    assert rows[0] == ["n", "error", "q_pow_n_bound"]
    errors = np.array([float(r[1]) for r in rows[1:]])
    bounds = np.array([float(r[2]) for r in rows[1:]])
    assert np.all(errors <= bounds + 1e-9)


def test_fixpoint_out_of_iterations_is_numerical_failure(tmp_path, net_file, capsys):
    code, _ = _run(tmp_path, "fixpoint", "--net", net_file, "--max-iter", "1")
    assert code == 2
    assert capsys.readouterr().err.startswith("numerical failure: no convergence")


def test_fixpoint_needs_a_fixed_input_size(tmp_path, capsys):
    path = tmp_path / "wavelet.json"
    save_net(OperatorNet((WaveletGainLayer(np.ones(2), "db4"),)), path)
    code, _ = _run(tmp_path, "fixpoint", "--net", str(path))
    assert code == 1
    assert "no fixed input size" in capsys.readouterr().err


def test_fixpoint_checks_input_size_before_normalizing(tmp_path, monkeypatch):
    path = tmp_path / "wavelet.json"
    save_net(OperatorNet((WaveletGainLayer(np.ones(2), "db4"),)), path)
    calls = []
    monkeypatch.setattr(cli, "normalize_to_contraction",
                        lambda *args: calls.append(args))
    code, _ = _run(tmp_path, "fixpoint", "--net", str(path))
    assert code == 1
    assert calls == []


def test_fixpoint_failure_keeps_partial_trace_and_manifest(tmp_path, net_file):
    code, out = _run(tmp_path, "fixpoint", "--net", net_file, "--max-iter", "3")
    assert code == 2
    rows = _read_csv(out / "trace.csv")
    assert rows[0] == ["n", "error", "q_pow_n_bound"]
    assert len(rows) == 1 + 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["failure"].startswith("FixedPointDivergence: no convergence")
    assert "result" not in manifest["config"]


def test_approx_csv(tmp_path):
    code, out = _run(tmp_path, "approx", "--signal", "smooth-spike", "--n", "256",
                     "--budgets", "8,16", "--strategy", "all")
    assert code == 0
    rows = _read_csv(out / "error_vs_budget.csv")
    assert rows[0] == ["budget", "strategy", "l2_error", "decay_exponent"]
    assert len(rows) == 1 + 3 * 2


def test_regions_csv(tmp_path):
    code, out = _run(tmp_path, "regions", "--max-width", "3", "--max-depth", "2",
                     "--seeds", "2")
    assert code == 0
    rows = _read_csv(out / "regions.csv")
    assert rows[0] == ["input_dim", "width", "depth", "seed", "count",
                       "montufar_bound"]
    for row in rows[1:]:
        assert int(row[4]) >= int(row[5])


def test_amdahl_csv(tmp_path):
    code, out = _run(tmp_path, "amdahl", "--p", "0.9", "--workers", "1,10")
    assert code == 0
    rows = _read_csv(out / "amdahl.csv")
    assert float(rows[2][2]) == pytest.approx(5.2632, abs=1e-4)


def test_train_config_round_trip(tmp_path):
    cfg = {"epochs": 3, "learning_rate": 0.3, "seeds": [0],
           "n_train": 20, "n_test": 20, "n_grid": 16}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = _run(tmp_path, "train", "--config", str(path))
    assert code == 0
    rows = _read_csv(out / "train_seed0.csv")
    assert rows[0] == ["epoch", "train_loss", "test_loss", "cert_bound"]
    assert len(rows) == 4
    assert (out / "summary.csv").exists()


def test_train_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"epochs": 3, "learning_rte": 0.3}))
    code, _ = _run(tmp_path, "train", "--config", str(path))
    assert code == 1
    assert "learning_rte" in capsys.readouterr().err


def test_train_reports_json_error_position(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"epochs": 3,\n "oops')
    code, _ = _run(tmp_path, "train", "--config", str(path))
    assert code == 1
    assert ":2:" in capsys.readouterr().err


def test_seeded_reruns_reproduce_csv_bytes(tmp_path):
    args = ["approx", "--signal", "smooth-spike", "--n", "256",
            "--budgets", "8", "--strategy", "combined"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--out", str(out_a), "--seed", "7", *args]) == 0
    assert main(["--out", str(out_b), "--seed", "7", *args]) == 0
    assert (out_a / "error_vs_budget.csv").read_bytes() \
        == (out_b / "error_vs_budget.csv").read_bytes()


def test_bench_speedup_csv(tmp_path):
    code, out = _run(tmp_path, "bench", "--study", "speedup", "--batch", "16",
                     "--size", "512", "--workers", "1,2", "--repeats", "5")
    assert code == 0
    rows = _read_csv(out / "speedup.csv")
    assert rows[0][:2] == ["workers", "effective_workers"]
    assert float(rows[1][3]) == pytest.approx(1.0)


def test_bench_scaling_csv(tmp_path):
    code, out = _run(tmp_path, "bench", "--study", "scaling", "--min-pow", "3",
                     "--max-pow", "5", "--repeats-scaling", "1")
    assert code == 0
    rows = _read_csv(out / "scaling.csv")
    assert rows[0] == ["n", "t_direct_s", "t_fft_s"]
    assert [int(row[0]) for row in rows[1:]] == [8, 16, 32]


def test_bad_subcommand_is_usage_error(tmp_path):
    assert main(["--out", str(tmp_path / "x"), "frobnicate"]) == 1


def test_every_run_has_exactly_one_manifest(tmp_path):
    code, out = _run(tmp_path, "amdahl", "--p", "0.5", "--workers", "1,2")
    assert code == 0
    manifests = [p for p in os.listdir(out) if p.endswith(".json")]
    assert manifests == ["manifest.json"]
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["command"] == "amdahl"
    assert "package_version" in doc and "timestamp_utc" in doc
