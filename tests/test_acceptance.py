"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -s`` to watch).

Criteria 3 and 5 (one shared run), 4 and 6 train real models and take
several minutes; they carry the ``slow`` marker, so ``pytest -m "not
slow"`` skips them. Everything else is fast.
"""

import time
import tracemalloc

import numpy as np
import pytest

from ncrf.autodiff import ModelParams, Tape, Tensor, grad_check
from ncrf.cli import gradcheck_battery
from ncrf.cnn import ConvLayerSpec, _conv_layer, cnn_forward, cnn_init, paper_cnn_config
from ncrf.crf import (
    CrfPotentials,
    brute_force_best,
    brute_force_log_partition,
    brute_force_marginals,
    crf_nll,
    log_partition,
    marginals,
    viterbi,
)
from ncrf.data import SynthConfig, skewed_config, split_by_subject, synth_generate
from ncrf.metrics import kappa, kappa_from_confusion, se_mae, sleep_efficiency
from ncrf.model import evaluate, expected_moves
from ncrf.training import TrainConfig, train
from primitives import (
    add,
    affine,
    conv1d,
    dropout,
    exp,
    gather_pairs,
    logsumexp,
    matmul,
    maxpool1d,
    mul,
    reduce_sum,
    relu,
    reshape,
    sigmoid,
    take_cols,
    tanh,
    transpose,
)

K = 4
SPLIT_SEED = 7


def announce(criterion: int, message: str) -> None:
    print(f"\n[criterion {criterion}] PASS — {message}")


# ---------------------------------------------------------------------------
# shared trained models (criteria 3 and 5 use the same run)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def default_corpus():
    records = synth_generate(SynthConfig())  # 40 subjects, m = 120, seed 7
    return split_by_subject(records, seed=SPLIT_SEED)


@pytest.fixture(scope="session")
def structured_runs(default_corpus):
    train_recs, val_recs, test_recs = default_corpus
    out = {}
    for kind in ("softmax", "crf"):
        config = TrainConfig(model_kind=kind, seed=SPLIT_SEED, max_epochs=200, patience=200)
        checkpoint, history = train(train_recs, val_recs, config)
        report = evaluate(checkpoint.model_config, checkpoint.params, test_recs)
        out[kind] = {"checkpoint": checkpoint, "kappa": report.kappa, "epochs": len(history)}
    return out


# ---------------------------------------------------------------------------
# criterion 1: oracle equivalence of exact inference
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    started = time.time()
    rng = np.random.default_rng(1)
    sigma = np.sqrt(2.0)
    checked = 0
    for order, m_lo, m_hi in ((1, 1, 8), (2, 2, 6)):
        for _ in range(1000):
            m = int(rng.integers(m_lo, m_hi + 1))
            pot = CrfPotentials(
                scores=Tensor(rng.normal(scale=sigma, size=(m, K))),
                transitions=Tensor(rng.normal(scale=sigma, size=(K, K))),
                edge_bias=Tensor(rng.normal(scale=sigma)),
                second_order=(
                    Tensor(rng.normal(scale=sigma, size=(K, K))) if order == 2 else None
                ),
            )
            assert abs(log_partition(pot).item() - brute_force_log_partition(pot)) < 1e-9
            assert np.abs(marginals(pot).data - brute_force_marginals(pot)).max() < 1e-9
            path, score = viterbi(pot)
            bf_path, bf_score = brute_force_best(pot)
            assert path == bf_path
            assert abs(score - bf_score) < 1e-9
            checked += 1
    elapsed = time.time() - started
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s"
    announce(1, f"{checked} random instances (orders 1 and 2) agree with "
                f"enumeration within 1e-9 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: gradient fidelity
# ---------------------------------------------------------------------------


def _primitive_batteries(rng):
    """Named scalar losses exercising every differentiable primitive."""
    batteries = {}

    conv_params = ModelParams({
        "x": Tensor(rng.normal(size=(2, 12))),
        "k": Tensor(rng.normal(size=(3, 2, 4))),
        "b": Tensor(rng.normal(size=3)),
    })

    def conv_loss(p, tape):
        y = conv1d(p["x"], p["k"], p["b"], 2, "same", tape)
        y = maxpool1d(relu(y, tape), 2, tape)
        return logsumexp(reshape(y, (-1,), tape), tape=tape)

    batteries["conv/relu/maxpool/logsumexp"] = (conv_loss, conv_params)

    dense_params = ModelParams({
        "x": Tensor(rng.normal(size=(4, 6))),
        "w": Tensor(rng.normal(size=(3, 4))),
        "b": Tensor(rng.normal(size=3)),
        "m": Tensor(rng.normal(size=(6, 3))),
    })

    def dense_loss(p, tape):
        y = affine(p["x"], p["w"], p["b"], tape)
        z = matmul(y, p["m"], tape)
        s = sigmoid(transpose(z, tape), tape)
        t = tanh(mul(s, s, tape), tape)
        return reduce_sum(exp(t, tape), tape=tape)

    batteries["affine/matmul/sigmoid/tanh/exp"] = (dense_loss, dense_params)

    gather_params = ModelParams({"x": Tensor(rng.normal(size=(5, 4)))})

    def gather_loss(p, tape):
        picked = gather_pairs(p["x"], [0, 2, 4, 1, 3], [3, 1, 0, 2, 2], tape)
        cols = take_cols(p["x"], [1, 3], tape)
        both = add(reshape(picked, (5, 1), tape), cols, tape)
        return logsumexp(reshape(both, (-1,), tape), tape=tape)

    batteries["gather/take"] = (gather_loss, gather_params)

    drop_params = ModelParams({"x": Tensor(rng.normal(size=(3, 8)))})

    def drop_loss(p, tape):
        # fresh generator per call: fixed mask makes the loss deterministic
        y = dropout(p["x"], 0.4, True, np.random.default_rng(123), tape)
        return reduce_sum(mul(y, y, tape), tape=tape)

    batteries["dropout(fixed mask)"] = (drop_loss, drop_params)

    # own generator: the coordinates checked in the batteries above stay put
    layer_rng = np.random.default_rng(21)
    layer_params = ModelParams({
        "x": Tensor(layer_rng.normal(size=(2, 13))),
        "k": Tensor(layer_rng.normal(size=(3, 2, 4))),
        "b": Tensor(layer_rng.normal(size=3)),
    })
    layer = ConvLayerSpec(4, 2, 3, pool_window=2, dropout_rate=0.3)

    def layer_loss(p, tape):
        y = _conv_layer(p["x"], p["k"], p["b"], layer, True, np.random.default_rng(321), tape)
        return logsumexp(reshape(y, (-1,), tape), tape=tape)

    batteries["fused conv layer(fixed mask)"] = (layer_loss, layer_params)
    return batteries


def test_criterion_2_gradient_fidelity():
    started = time.time()
    rng = np.random.default_rng(2)
    report = []

    for name, (loss, params) in _primitive_batteries(rng).items():
        err = grad_check(loss, params, eps=1e-5, samples=40, rng=rng)
        assert err < 1e-4, f"{name}: {err:.3e}"
        report.append(f"{name} {err:.1e}")

    # the CLI's battery: both CRF losses at both orders, the fused GRU with
    # each candidate activation, and whole softmax / crf / crf2 models
    battery = gradcheck_battery(tiny=False, seed=2)
    assert {name for name, _ in battery} == {
        "quadratic",
        "crf_nll_order1", "cost_sensitive_order1",
        "crf_nll_order2", "cost_sensitive_order2",
        "gru_sigmoid", "gru_tanh",
        "full_softmax", "full_crf", "full_crf2",
    }
    for name, err in battery:
        assert err < 1e-4, f"{name}: {err:.3e}"
        report.append(f"{name} {err:.1e}")

    # closed form: d(nll)/dS = marginals - onehot, against the tape
    m = 6
    y = rng.integers(0, K, size=m)
    pot = CrfPotentials(Tensor(rng.normal(size=(m, K))), Tensor(rng.normal(size=(K, K))),
                        Tensor(rng.normal(size=())))
    tape = Tape()
    tape.backward(crf_nll(pot, y, tape))
    onehot = np.zeros((m, K))
    onehot[np.arange(m), y] = 1.0
    closed_err = np.abs(tape.grad(pot.scores) - (marginals(pot).data - onehot)).max()
    assert closed_err < 1e-10
    report.append(f"closed-form dS {closed_err:.1e}")

    elapsed = time.time() - started
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    announce(2, f"{'; '.join(report)} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: structured-learning gain on the default corpus
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_3_structured_gain(structured_runs):
    k_soft = structured_runs["softmax"]["kappa"]
    k_crf = structured_runs["crf"]["kappa"]
    assert k_crf >= k_soft + 0.03, f"crf {k_crf:.4f} vs softmax {k_soft:.4f}"
    assert k_crf >= 0.6, f"crf kappa {k_crf:.4f} below 0.6"
    announce(3, f"test kappa: crf {k_crf:.4f} vs softmax {k_soft:.4f} "
                f"(gap {k_crf - k_soft:+.4f})")


# ---------------------------------------------------------------------------
# criterion 4: cost-sensitive prior lifts rare-class recall
# ---------------------------------------------------------------------------


def _per_class_recall(confusion: np.ndarray) -> np.ndarray:
    totals = confusion.sum(axis=1)
    return np.divide(np.diag(confusion), totals, out=np.zeros(K), where=totals > 0)


@pytest.mark.slow
def test_criterion_4_cost_sensitive_recall():
    from ncrf.data import SleepStage

    rem, deep = int(SleepStage.REM), int(SleepStage.DEEP)
    recalls = {"plain": [], "cost": []}
    for seed in (0, 1, 2):
        records = synth_generate(skewed_config(num_subjects=24, epochs_per_subject=100,
                                               seed=100 + seed))
        labels = np.concatenate([r.labels for r in records])
        shares = np.bincount(labels, minlength=K) / labels.size
        assert shares[rem] < 0.10 and shares[deep] < 0.10
        tr, va, te = split_by_subject(records, seed=seed)
        for name, cost in (("plain", False), ("cost", True)):
            config = TrainConfig(model_kind="crf", cost_sensitive=cost, seed=seed,
                                 max_epochs=60, patience=60)
            checkpoint, _ = train(tr, va, config)
            report = evaluate(checkpoint.model_config, checkpoint.params, te)
            recalls[name].append(_per_class_recall(report.confusion)[[rem, deep]])
    plain = np.mean(recalls["plain"], axis=0)
    cost = np.mean(recalls["cost"], axis=0)
    assert cost[0] > plain[0], f"REM recall {cost[0]:.3f} <= {plain[0]:.3f}"
    assert cost[1] > plain[1], f"Deep recall {cost[1]:.3f} <= {plain[1]:.3f}"
    announce(4, f"mean recall over 3 seeds, cost-sensitive vs plain: "
                f"REM {cost[0]:.3f} > {plain[0]:.3f}, Deep {cost[1]:.3f} > {plain[1]:.3f}")


# ---------------------------------------------------------------------------
# criterion 5: the trained CRF starves the generator-forbidden moves
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_5_transition_recovery(structured_runs, default_corpus):
    # T1 alone is not identified: adding c_j to column j of T1 and -c_j to
    # S[t, j] for t >= 1 leaves every sequence score unchanged, and the GRU
    # may carry a rule in S. So the check is on the model's own P(j | i).
    checkpoint = structured_runs["crf"]["checkpoint"]
    counts = expected_moves(checkpoint.model_config, checkpoint.params, default_corpus[2])
    conditional = counts / counts.sum(axis=1, keepdims=True)
    forbidden = np.argwhere(SynthConfig().transition_matrix == 0.0)
    assert len(forbidden)
    worst = max(conditional[i, j] for i, j in forbidden)
    assert worst < 0.02, f"forbidden transition probability {worst:.4f}"
    announce(5, f"all {len(forbidden)} generator-forbidden transitions get "
                f"< 0.02 model probability on held-out records (worst {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 6: aggressive L1 produces exact sparsity
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_sparsity(default_corpus):
    train_recs, val_recs, _ = default_corpus
    config = TrainConfig(model_kind="crf", l1_lambda=0.5, seed=SPLIT_SEED,
                         max_epochs=40, patience=40)
    checkpoint, _ = train(train_recs, val_recs, config)
    crf_values = np.concatenate([
        t.data.reshape(-1)
        for name, t in checkpoint.params.items()
        if name.startswith("crf.")
    ])
    zero_fraction = float(np.mean(crf_values == 0.0))
    assert zero_fraction >= 0.25, f"only {zero_fraction:.1%} exactly zero"
    announce(6, f"lambda 0.5 drives {zero_fraction:.1%} of {crf_values.size} "
                f"CRF coordinates to exactly 0")


# ---------------------------------------------------------------------------
# criterion 7: metric oracles
# ---------------------------------------------------------------------------


def test_criterion_7_metric_oracles():
    # independent derivation first: p_o = 80/100; marginals (50,50) and
    # (60,40) give p_e = 0.5*0.6 + 0.5*0.4 = 0.5; kappa = 0.3/0.5 = 0.6
    conf = np.array([[45, 5], [15, 35]])
    p_o = np.trace(conf) / conf.sum()
    p_e = (conf.sum(axis=1) / conf.sum()) @ (conf.sum(axis=0) / conf.sum())
    assert (p_o - p_e) / (1 - p_e) == pytest.approx(0.6, abs=1e-15)
    assert abs(kappa_from_confusion(conf) - 0.6) < 1e-12

    assert kappa([0, 1, 2, 3, 2, 1], [0, 1, 2, 3, 2, 1]) == 1.0

    assert sleep_efficiency([0, 0, 0]) == 0.0
    assert sleep_efficiency([1, 2, 3]) == 1.0
    labels = np.concatenate([np.zeros(100, dtype=int), np.full(800, 2)])
    assert sleep_efficiency(labels) == 800 / 900

    assert se_mae([(0.8, 0.8)]) == 0.0
    assert se_mae([(0.8, 0.72)]) == pytest.approx(0.1, abs=1e-15)
    assert se_mae([(0.5, 0.55), (0.5, 0.65)]) == pytest.approx(0.2, abs=1e-15)
    announce(7, "hand-derived kappa 0.6 within 1e-12; SE and MAE cases exact")


# ---------------------------------------------------------------------------
# criterion 8: train CLI determinism
# ---------------------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    from ncrf.cli import main
    from ncrf.data import save_synth_config

    cfg_path = tmp_path / "synth.txt"
    save_synth_config(SynthConfig(num_subjects=6, epochs_per_subject=20, seed=5), cfg_path)
    corpus = tmp_path / "corpus"
    assert main(["synth", "--config", str(cfg_path), "--out", str(corpus)]) == 0

    blobs = []
    for name in ("runA", "runB"):
        ckpt = tmp_path / f"{name}.ncrf"
        hist = tmp_path / f"{name}.csv"
        code = main([
            "train", "--data", str(corpus / "manifest.txt"), "--model", "crf",
            "--cost-sensitive", "--lambda", "0.005", "--seed", "17",
            "--out", str(ckpt), "--history", str(hist),
            "--max-epochs", "3", "--patience", "3", "--hidden", "16",
        ])
        assert code == 0
        blobs.append((ckpt.read_bytes(), hist.read_bytes()))
    assert blobs[0][0] == blobs[1][0], "checkpoints differ between identical runs"
    assert blobs[0][1] == blobs[1][1], "history files differ between identical runs"
    announce(8, f"byte-identical checkpoint ({len(blobs[0][0])} bytes) and history "
                f"across two identical train invocations")


# ---------------------------------------------------------------------------
# criterion 9: paper-profile shape contract
# ---------------------------------------------------------------------------


def test_criterion_9_paper_shape_contract():
    config = paper_cnn_config()
    params = cnn_init(config, np.random.default_rng(9))
    n = 864_000
    signal = Tensor(np.random.default_rng(10).normal(size=(1, n)).astype(np.float64))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        started = time.time()
        out = cnn_forward(signal, config, params)
        elapsed = time.time() - started
        peak_mib = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    assert out.shape == (256, 900)
    assert np.isfinite(out.data).all()
    announce(9, f"paper profile maps n=864,000 samples to 256x900 features "
                f"(forward pass {elapsed:.1f}s, tracemalloc peak {peak_mib:,.0f} MiB)")
