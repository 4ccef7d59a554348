import hashlib
from pathlib import Path

import numpy as np
import pytest

from ncrf.cli import main
from ncrf.data import SynthConfig, save_synth_config
from ncrf.model import desk_config, init_params
from ncrf.training import Checkpoint, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "synth.txt"
    save_synth_config(SynthConfig(num_subjects=6, epochs_per_subject=16, seed=13), path)
    return path


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory, small_cfg):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--config", str(small_cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run")
    ckpt = out / "model.ncrf"
    code = main([
        "train", "--data", str(corpus_dir / "manifest.txt"), "--model", "crf",
        "--seed", "3", "--out", str(ckpt), "--max-epochs", "2", "--patience", "2",
        "--hidden", "8",
    ])
    assert code == 0
    return ckpt


def dir_digest(path: Path) -> str:
    digest = hashlib.sha256()
    for p in sorted(path.rglob("*")):
        if p.is_file():
            digest.update(p.name.encode())
            digest.update(p.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_writes_manifest_rows(corpus_dir):
    rows = (corpus_dir / "manifest.txt").read_text().strip().splitlines()
    assert len(rows) == 6
    assert all(len(r.split(",")) == 3 for r in rows)
    assert (corpus_dir / "synth_config.txt").exists()


def test_synth_repeat_seed_identical(tmp_path, small_cfg):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--config", str(small_cfg), "--out", str(a), "--seed", "99"]) == 0
    assert main(["synth", "--config", str(small_cfg), "--out", str(b), "--seed", "99"]) == 0
    assert dir_digest(a) == dir_digest(b)


def test_synth_missing_out_is_usage_error(small_cfg):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--config", str(small_cfg)])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# train / eval / predict
# ---------------------------------------------------------------------------


def test_train_writes_checkpoint_and_history(trained):
    assert trained.exists()
    history = trained.with_suffix(".history.csv")
    lines = history.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_kappa"
    assert len(lines) == 3  # two epochs


def test_train_determinism_byte_identical(tmp_path, corpus_dir):
    outs = []
    for name in ("r1", "r2"):
        ckpt = tmp_path / f"{name}.ncrf"
        hist = tmp_path / f"{name}.csv"
        code = main([
            "train", "--data", str(corpus_dir / "manifest.txt"), "--model", "softmax",
            "--seed", "11", "--out", str(ckpt), "--history", str(hist),
            "--max-epochs", "2", "--patience", "2", "--hidden", "8",
        ])
        assert code == 0
        outs.append((ckpt.read_bytes(), hist.read_text()))
    assert outs[0] == outs[1]


def test_train_learning_rate_defaults_by_profile(tmp_path, corpus_dir, trained):
    assert load_checkpoint(trained).extras["learning_rate"] == "0.001"  # desk default

    paper_cfg = tmp_path / "paper.txt"
    save_synth_config(SynthConfig(num_subjects=5, epochs_per_subject=2, sample_rate=32,
                                  epoch_seconds=30, seed=13), paper_cfg)
    paper_corpus = tmp_path / "paper"
    assert main(["synth", "--config", str(paper_cfg), "--out", str(paper_corpus)]) == 0
    ckpt = tmp_path / "paper.ncrf"
    code = main([
        "train", "--data", str(paper_corpus / "manifest.txt"), "--profile", "paper",
        "--channels", "2", "--hidden", "3", "--out", str(ckpt),
        "--max-epochs", "1", "--patience", "1",
    ])
    assert code == 0
    assert load_checkpoint(ckpt).extras["learning_rate"] == "0.0001"


def test_train_explicit_learning_rate_overrides_profile(tmp_path, corpus_dir):
    ckpt = tmp_path / "lr.ncrf"
    code = main([
        "train", "--data", str(corpus_dir / "manifest.txt"), "--lr", "0.0005",
        "--out", str(ckpt), "--max-epochs", "1", "--patience", "1", "--hidden", "4",
    ])
    assert code == 0
    assert load_checkpoint(ckpt).extras["learning_rate"] == "0.0005"


def test_eval_writes_summary_with_exact_keys(tmp_path, corpus_dir, trained):
    out = tmp_path / "report"
    code = main([
        "eval", "--checkpoint", str(trained), "--data", str(corpus_dir / "manifest.txt"),
        "--split", "test", "--out", str(out),
    ])
    assert code == 0
    keys = [line.split("=")[0] for line in (out / "summary.txt").read_text().splitlines()]
    assert keys == ["accuracy", "kappa", "se_mae", "n_subjects"]
    assert (out / "confusion.csv").exists()
    assert (out / "per_subject_se.csv").exists()


def test_eval_deterministic(tmp_path, corpus_dir, trained):
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert main([
            "eval", "--checkpoint", str(trained), "--data", str(corpus_dir / "manifest.txt"),
            "--out", str(out),
        ]) == 0
        outs.append(dir_digest(out))
    assert outs[0] == outs[1]


def test_predict_tokens(tmp_path, corpus_dir, trained):
    out = tmp_path / "preds"
    assert main([
        "predict", "--checkpoint", str(trained), "--data", str(corpus_dir / "manifest.txt"),
        "--out", str(out),
    ]) == 0
    files = sorted(out.glob("*.pred.txt"))
    assert len(files) == 6
    tokens = set(files[0].read_text().split())
    assert tokens <= {"W", "R", "L", "D"}
    assert len(files[0].read_text().splitlines()) == 16


def test_predict_unknown_subject_fails(tmp_path, corpus_dir, trained):
    assert main([
        "predict", "--checkpoint", str(trained), "--data", str(corpus_dir / "manifest.txt"),
        "--subject", "ghost", "--out", str(tmp_path / "x"),
    ]) == 1


# ---------------------------------------------------------------------------
# saliency / inspect / gradcheck
# ---------------------------------------------------------------------------


def test_saliency_outputs(tmp_path, corpus_dir, trained):
    prefix = tmp_path / "sal"
    assert main([
        "saliency", "--checkpoint", str(trained), "--data", str(corpus_dir / "manifest.txt"),
        "--subject", "synth0000", "--epoch", "2", "--out", str(prefix),
    ]) == 0
    assert prefix.with_suffix(".csv").exists()
    assert prefix.with_suffix(".pgm").exists()
    assert len(prefix.with_suffix(".csv").read_text().splitlines()) == 16


def test_inspect_untrained_is_uniform(tmp_path):
    config = desk_config("crf", hidden_dim=8, channels=4)
    ckpt = Checkpoint(config, init_params(config, 0), seed=0, epoch=0, val_kappa=0.0)
    path = tmp_path / "fresh.ncrf"
    save_checkpoint(path, ckpt)
    out = tmp_path / "trans.csv"
    assert main(["inspect", "--checkpoint", str(path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",W,R,L,D"
    for row in lines[1:]:
        values = [float(v) for v in row.split(",")[1:]]
        np.testing.assert_allclose(values, 0.25, atol=1e-6)


def test_inspect_rejects_softmax_checkpoint(tmp_path):
    config = desk_config("softmax", hidden_dim=8, channels=4)
    ckpt = Checkpoint(config, init_params(config, 0), seed=0, epoch=0, val_kappa=0.0)
    path = tmp_path / "soft.ncrf"
    save_checkpoint(path, ckpt)
    assert main(["inspect", "--checkpoint", str(path)]) == 1


def test_gradcheck_tiny_passes():
    assert main(["gradcheck", "--tiny", "--seed", "0"]) == 0
