import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ncrf
from ncrf.autodiff import Tensor
from ncrf.cli import main
from ncrf.crf import _enumerate_scores, potentials_from_hidden
from ncrf.data import SynthConfig, load_records, save_synth_config, synth_generate, write_corpus
from ncrf.model import desk_config, hidden_states, init_params
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


def test_default_synth_corpus_bytes_are_pinned(tmp_path):
    # the digest of the corpus as the one-repr-per-sample writer wrote it
    assert main(["synth", "--out", str(tmp_path), "--seed", "7"]) == 0
    assert dir_digest(tmp_path) == "8e4f5d497f13324fb486d05eadea75a409a6ac25e35101f56651deba1a28da56"


def test_synth_missing_out_is_usage_error(small_cfg):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--config", str(small_cfg)])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["synth", "train"])
def test_negative_seed_fails_with_one_line(tmp_path, corpus_dir, capsys, command):
    out = tmp_path / "out"
    args = ["--data", str(corpus_dir / "manifest.txt")] if command == "train" else []
    capsys.readouterr()
    assert main([command, *args, "--out", str(out), "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "seed" in captured.err
    assert not out.exists()


def test_synth_into_a_path_under_a_regular_file_fails_with_one_line(tmp_path, small_cfg, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    capsys.readouterr()
    assert main(["synth", "--config", str(small_cfg), "--out", str(blocker / "corpus")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("I/O error: ") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("flag,value,field", [("--lambda", "nan", "l1_lambda"),
                                              ("--lr", "inf", "learning_rate")])
def test_train_rejects_a_non_finite_number_in_one_line(tmp_path, corpus_dir, capsys, flag, value,
                                                       field):
    ckpt = tmp_path / "nonfinite.ncrf"
    capsys.readouterr()
    code = main([
        "train", "--data", str(corpus_dir / "manifest.txt"), flag, value,
        "--out", str(ckpt), "--max-epochs", "1", "--patience", "1", "--hidden", "4",
    ])
    assert code == 1
    assert not ckpt.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


@pytest.mark.parametrize("flag", ["--hidden", "--channels"])
def test_train_rejects_a_zero_size_in_one_line(tmp_path, corpus_dir, capsys, flag):
    # 0 is a size the user gave, not an unset option: validation must see it
    ckpt = tmp_path / "zero.ncrf"
    code = main([
        "train", "--data", str(corpus_dir / "manifest.txt"), flag, "0",
        "--out", str(ckpt), "--max-epochs", "1", "--patience", "1",
    ])
    assert code == 1
    assert not ckpt.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_predict_rejects_nonfinite_transitions(tmp_path, corpus_dir, trained, capsys):
    checkpoint = load_checkpoint(trained)
    checkpoint.params["crf.T1"].data[1, 2] = np.nan
    bad = tmp_path / "nan.ncrf"
    save_checkpoint(bad, checkpoint)
    capsys.readouterr()
    assert main([
        "predict", "--checkpoint", str(bad), "--data", str(corpus_dir / "manifest.txt"),
        "--out", str(tmp_path / "preds"),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "transitions" in captured.err


def test_predict_rejects_nonfinite_softmax_weights(tmp_path, corpus_dir, capsys):
    config = desk_config("softmax", hidden_dim=8, channels=4)
    params = init_params(config, 0)
    params["gru.U_z"].data[0, 0] = np.nan
    bad = tmp_path / "nan.ncrf"
    save_checkpoint(bad, Checkpoint(config, params, seed=0, epoch=0, val_kappa=0.0))
    capsys.readouterr()
    assert main([
        "predict", "--checkpoint", str(bad), "--data", str(corpus_dir / "manifest.txt"),
        "--out", str(tmp_path / "preds"),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "scores" in captured.err


def test_predict_rejects_nonfinite_signal(tmp_path, corpus_dir, trained, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    signal = corpus / "synth0002.signal.txt"
    lines = signal.read_text().splitlines()
    lines[9] = "nan"
    signal.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main([
        "predict", "--checkpoint", str(trained), "--data", str(corpus / "manifest.txt"),
        "--out", str(tmp_path / "preds"),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "synth0002.signal.txt:10:" in captured.err


def test_train_on_empty_signal_file_prints_one_line(tmp_path, corpus_dir):
    # a separate interpreter, so that a warning numpy prints would reach stderr
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir, corpus)
    (corpus / "synth0000.signal.txt").write_text("")
    env = {**os.environ, "PYTHONPATH": str(Path(ncrf.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "ncrf.cli", "train", "--data", str(corpus / "manifest.txt"),
         "--out", str(tmp_path / "model.ncrf")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: {corpus / 'synth0000.signal.txt'}: no samples\n"


def test_desk_training_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, corpus_dir):
    # paper-scale gradients differ by round-off across thread counts; desk bytes do not
    digests = []
    for threads in ("1", "2"):
        ckpt = tmp_path / f"threads{threads}.ncrf"
        env = {**os.environ, "PYTHONPATH": str(Path(ncrf.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "ncrf.cli", "train", "--data", str(corpus_dir / "manifest.txt"),
             "--out", str(ckpt), "--max-epochs", "2"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append([hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (ckpt, ckpt.with_suffix(".history.csv"))])
    assert digests[0] == digests[1]


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


@pytest.mark.parametrize("kind", ["crf", "crf2"])
def test_inspect_data_prints_expected_move_probabilities(tmp_path, kind):
    # the direct computation enumerates all 4^4 label sequences of each record
    config = desk_config(kind, hidden_dim=6, channels=4)
    params = init_params(config, 1)
    rng = np.random.default_rng(4)
    for name in ("crf.T1", "crf.T2"):
        if name in params:
            params[name].data[:] = rng.normal(scale=2.0, size=(4, 4))
    path = tmp_path / f"{kind}.ncrf"
    save_checkpoint(path, Checkpoint(config, params, seed=0, epoch=0, val_kappa=0.0))
    records = synth_generate(SynthConfig(num_subjects=3, epochs_per_subject=4, seed=2))
    manifest = write_corpus(records, tmp_path / "tiny")
    out = tmp_path / "moves.csv"
    assert main(["inspect", "--checkpoint", str(path), "--data", str(manifest),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",W,R,L,D"
    printed = np.array([[float(v) for v in row.split(",")[1:]] for row in lines[1:]])

    counts = np.zeros((4, 4))
    for rec in load_records(manifest, sample_rate_hz=4, epoch_seconds=4):
        hidden = hidden_states(config, params, Tensor(rec.signal.reshape(1, -1)))
        seqs, scores = _enumerate_scores(potentials_from_hidden(hidden, params))
        w = np.exp(scores - scores.max())
        w /= w.sum()
        for t in range(seqs.shape[1] - 1):
            np.add.at(counts, (seqs[:, t], seqs[:, t + 1]), w)
    expected = counts / counts.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(printed.sum(axis=1), 1.0, atol=4e-6)
    np.testing.assert_allclose(printed, expected, rtol=0, atol=1e-6)
    # the scores alone give another table
    assert main(["inspect", "--checkpoint", str(path), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] != lines[1:]


def test_inspect_data_without_moves_fails_with_one_line(tmp_path, capsys):
    config = desk_config("crf", hidden_dim=6, channels=4)
    path = tmp_path / "crf.ncrf"
    save_checkpoint(path, Checkpoint(config, init_params(config, 1), seed=0, epoch=0,
                                     val_kappa=0.0))
    records = synth_generate(SynthConfig(num_subjects=2, epochs_per_subject=1, seed=2))
    manifest = write_corpus(records, tmp_path / "single")
    assert main(["inspect", "--checkpoint", str(path), "--data", str(manifest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gradcheck_tiny_passes():
    assert main(["gradcheck", "--tiny", "--seed", "0"]) == 0
