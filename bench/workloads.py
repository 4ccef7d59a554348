"""The three workloads, their timed rounds, and the checks on their outputs.

Each workload drives the package the way ``ncrf train`` and
``ncrf predict`` do: split the loaded records by the seed, call
``training.train``, save the checkpoint, then load the checkpoint and
records again, decode every record and write its stage tokens.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from ncrf import crf, data, model, training
from ncrf.autodiff import Tape, Tensor
from ncrf.cnn import cnn_forward, desk_cnn_config, paper_cnn_config
from ncrf.gru import gru_forward
from spans import LayerTape

MIB = 1024.0 * 1024.0
PASSES = 2  # training passes per round; patience equals it, so every pass runs
REFERENCE_RECORDS = 8  # records per kind whose features and states are recomputed apart


@dataclass(frozen=True)
class Workload:
    name: str
    # corpus name -> (subjects, epochs per subject, sample rate, epoch seconds)
    corpora: dict
    train_corpus: str
    predict_corpus: str
    kinds: tuple[str, ...]
    cost_sensitive: bool
    paper: bool
    gradient_epochs: int | None = None  # epochs of the record the gradient check uses
    predict_test_split: bool = False  # decode only the test split, as `ncrf predict --subject`
    probe_records: int = 1
    learning_rate: float = 1e-3

    def train_config(self, kind: str, seed: int) -> training.TrainConfig:
        extra = {"hidden_dim": 125, "cnn": paper_cnn_config()} if self.paper else {}
        return training.TrainConfig(
            model_kind=kind,
            cost_sensitive=self.cost_sensitive,
            l1_lambda=0.005,
            learning_rate=self.learning_rate,
            max_epochs=PASSES,
            patience=PASSES,
            seed=seed,
            **extra,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk",
            # decoding the 120-epoch training nights takes under half a second a
            # kind, too short to time on a machine whose stalls last seconds
            corpora={"corpus": (40, 120, 4, 4), "nights": (40, 240, 4, 4)},
            train_corpus="corpus",
            predict_corpus="nights",
            kinds=("crf", "crf2"),
            cost_sensitive=True,
            paper=False,
            probe_records=8,
        ),
        Workload(
            name="paper-train",
            corpora={"corpus": (3, 120, 32, 30)},
            train_corpus="corpus",
            predict_corpus="corpus",
            kinds=("crf",),
            # at the default 1e-3 the first Adam steps overshoot on this 2M-parameter
            # network: on most seeds the loss of pass 2 is above that of pass 1
            learning_rate=1e-4,
            cost_sensitive=False,
            paper=True,
            gradient_epochs=4,
            predict_test_split=True,
        ),
        Workload(
            name="paper-night",
            corpora={"fit": (3, 32, 32, 30), "night": (1, 960, 32, 30)},
            train_corpus="fit",
            predict_corpus="night",
            kinds=("crf",),
            learning_rate=1e-4,  # the paper-profile rate, as in paper-train
            cost_sensitive=False,
            paper=True,
            gradient_epochs=4,
        ),
    )
}


@dataclass
class RoundResult:
    seconds: float = 0.0
    train_seconds: float = 0.0
    train_epochs: int = 0
    decode_seconds: float = 0.0
    decode_epochs: int = 0
    operations: int = 0
    histories: dict = field(default_factory=dict)  # kind -> [train loss per pass]
    checkpoint_digest: dict = field(default_factory=dict)  # kind -> sha256
    predictions: dict = field(default_factory=dict)  # (kind, subject) -> file text


class Inputs:
    """What set-up built: one manifest per corpus, and the split records."""

    def __init__(self, workload: Workload, work: Path, seed: int):
        self.workload = workload
        self.work = work
        self.seed = seed
        self.manifests: dict[str, Path] = {}
        self.train: list = []
        self.val: list = []
        self.test: list = []


def setup(workload: Workload, work: Path, seed: int, run) -> Inputs:
    """Synthesize and write every corpus of the workload (timed as set-up)."""
    inputs = Inputs(workload, work, seed)
    with run.span("data.synth"):
        corpora = {}
        for name, (subjects, epochs, rate, epoch_s) in workload.corpora.items():
            config = data.SynthConfig(num_subjects=subjects, epochs_per_subject=epochs,
                                      sample_rate=rate, epoch_seconds=epoch_s, seed=seed)
            corpora[name] = data.synth_generate(config)
    with run.span("data.write"):
        for name, records in corpora.items():
            inputs.manifests[name] = data.write_corpus(records, work / name)
    return inputs


def load_training_split(inputs: Inputs) -> None:
    """Load and split the training corpus as `ncrf train` does (not timed)."""
    rate, epoch_s = inputs.workload.corpora[inputs.workload.train_corpus][2:]
    records = data.load_records(inputs.manifests[inputs.workload.train_corpus],
                                sample_rate_hz=rate, epoch_seconds=epoch_s)
    inputs.train, inputs.val, inputs.test = data.split_by_subject(records, seed=inputs.seed)


def run_round(inputs: Inputs, run) -> RoundResult:
    """One whole round: train every kind, then predict with every checkpoint."""
    wl, work, result = inputs.workload, inputs.work, RoundResult()
    start = time.perf_counter()
    for kind in wl.kinds:
        with run.span("train", kind=kind):
            t0 = time.perf_counter()
            checkpoint, history = training.train(inputs.train, inputs.val,
                                                 wl.train_config(kind, inputs.seed))
            result.train_seconds += time.perf_counter() - t0
        result.train_epochs += len(history) * sum(r.num_epochs for r in inputs.train)
        result.histories[kind] = [h.train_loss for h in history]
        path = work / f"{kind}.ncrf"
        training.save_checkpoint(path, checkpoint)
        result.checkpoint_digest[kind] = hashlib.sha256(path.read_bytes()).hexdigest()
        result.operations += 1

    test_ids = {r.subject_id for r in inputs.test}
    for kind in wl.kinds:
        out = work / f"pred-{kind}"
        with run.span("predict", kind=kind):
            t0 = time.perf_counter()
            with run.span("training.checkpoint_load"):
                checkpoint = training.load_checkpoint(work / f"{kind}.ncrf")
            cfg = checkpoint.model_config
            with run.span("data.load") as span:
                records = data.load_records(inputs.manifests[wl.predict_corpus],
                                            sample_rate_hz=cfg.sample_rate_hz,
                                            epoch_seconds=cfg.epoch_seconds)
                if span is not None:
                    span["records"] = len(records)
            if wl.predict_test_split:
                records = [r for r in records if r.subject_id in test_ids]
            out.mkdir(parents=True, exist_ok=True)
            for rec in records:
                with run.span("model.decode"):
                    path = model.decode_record(cfg, checkpoint.params, rec)
                target = out / f"{rec.subject_id}.pred.txt"
                target.write_text("\n".join(data.STAGE_TOKENS[i] for i in path) + "\n")
            result.decode_seconds += time.perf_counter() - t0
        for rec in records:
            result.decode_epochs += rec.num_epochs
            result.predictions[(kind, rec.subject_id)] = (out / f"{rec.subject_id}.pred.txt").read_text()
        result.operations += len(records)
        del records, checkpoint
    result.seconds = time.perf_counter() - start
    return result


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


class Checks:
    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def all_ok(self) -> bool:
        return bool(self.results) and all(r["ok"] for r in self.results)


def check_rounds(rounds: list[RoundResult], checks: Checks) -> None:
    """Losses finite and falling; every round reproduces the first one."""
    first = rounds[0]
    for kind, losses in first.histories.items():
        finite = all(np.isfinite(v) for v in losses)
        checks.add(f"loss finite and below the first pass ({kind})",
                   finite and len(losses) >= 2 and losses[-1] < losses[0],
                   f"losses {losses}")
    same = all(r.histories == first.histories and r.checkpoint_digest == first.checkpoint_digest
               and r.predictions == first.predictions for r in rounds[1:])
    checks.add("rounds reproduce the first round bit for bit", same, f"{len(rounds)} rounds")


def _params(checkpoint) -> dict:
    return {name: t.data for name, t in checkpoint.params.items()}


def _cnn_geometry(cfg):
    layers = [(l.kernel_width, l.stride, l.pool_window) for l in cfg.cnn.layers]
    return layers, list(cfg.cnn.residual_pairs)


def _close(a, b, tol=1e-9) -> tuple[bool, float]:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False, float("inf")
    err = float(np.max(np.abs(a - b))) if a.size else 0.0
    return err <= tol * max(1.0, float(np.max(np.abs(b)))), err


def check_outputs(inputs: Inputs, first: RoundResult, checks: Checks, run) -> None:
    """Check every prediction of the round against the oracles.

    Features and hidden states come from the package's untaped forward
    functions and are checked against direct convolution and a plain
    GRU; the written path must equal max-plus decoding of the node
    scores. Then log Z and marginals on a slice, and the gradient.
    """
    wl, work = inputs.workload, inputs.work
    rng = np.random.default_rng([inputs.seed, 17])
    records = {r.subject_id: r for r in data.load_records(
        inputs.manifests[wl.predict_corpus],
        sample_rate_hz=wl.corpora[wl.predict_corpus][2],
        epoch_seconds=wl.corpora[wl.predict_corpus][3])}
    for kind in wl.kinds:
        checkpoint = training.load_checkpoint(work / f"{kind}.ncrf")
        cfg, params = checkpoint.model_config, _params(checkpoint)
        layers, residuals = _cnn_geometry(cfg)
        t2 = params.get("crf.T2")
        worst_feat = worst_hidden = 0.0
        bad_paths = bad_files = 0
        sliced = None
        subjects = sorted(s for k, s in first.predictions if k == kind)
        for n_done, sid in enumerate(subjects):
            rec = records[sid]
            text = first.predictions[(kind, sid)]
            lines = text.split("\n")
            tokens = lines[:-1] if lines and lines[-1] == "" else lines
            if len(tokens) != rec.num_epochs or any(t not in data.STAGE_TOKENS for t in tokens):
                bad_files += 1
                continue
            signal = Tensor(rec.signal.reshape(1, -1))
            measure_peak = run.tracing and n_done == 0
            if measure_peak:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            features = cnn_forward(signal, cfg.cnn, checkpoint.params).data
            if measure_peak:
                run.layer["cnn.forward_peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / MIB
                tracemalloc.stop()
            m = rec.num_epochs
            if wl.paper:  # direct convolution is affordable on a few epochs only
                picks = sorted({0, m - 1, *rng.choice(m, size=min(m, 4), replace=False).tolist()})
                windows = [(e, e) for e in picks]
            else:
                windows = [(0, m - 1)]
            hidden = gru_forward(Tensor(features), checkpoint.params,
                                 candidate_tanh=cfg.candidate_tanh).data
            if n_done < REFERENCE_RECORDS:
                for lo, hi in windows:
                    ref = oracles.cnn_features(rec.signal, layers, residuals, params, lo, hi)
                    ok, err = _close(features[:, lo : hi + 1], ref)
                    worst_feat = max(worst_feat, err if ok else float("inf"))
                ok, err = _close(hidden, oracles.gru_states(features, params, cfg.candidate_tanh))
                worst_hidden = max(worst_hidden, err if ok else float("inf"))
            scores = oracles.node_scores(hidden, params)
            best = oracles.max_plus_decode(scores, params["crf.T1"], float(params["crf.b_e"]), t2)
            if [data.STAGE_TOKENS[i] for i in best] != tokens:
                bad_paths += 1
            if sliced is None:
                width = min(7, m)
                t0 = int(rng.integers(0, m - width + 1))
                sliced = scores[t0 : t0 + width]
        n = len(subjects)
        checks.add(f"prediction files hold one stage token per epoch ({kind})",
                   n > 0 and bad_files == 0, f"{bad_files} of {n} files malformed")
        n_ref = min(n, REFERENCE_RECORDS)
        checks.add(f"CNN features equal direct convolution ({kind})",
                   n > 0 and worst_feat <= 1e-9,
                   f"{n_ref} records, max abs error {worst_feat:.3e}")
        checks.add(f"GRU states equal the plain recurrence ({kind})",
                   n > 0 and worst_hidden <= 1e-9,
                   f"{n_ref} records, max abs error {worst_hidden:.3e}")
        checks.add(f"paths equal max-plus decoding ({kind})",
                   n > 0 and bad_paths == 0, f"{bad_paths} of {n} paths differ")
        if sliced is not None:
            _check_enumeration(kind, sliced, params, checks)
        _check_gradient(inputs, kind, checkpoint, rng, checks)


def _check_enumeration(kind, scores, params, checks: Checks) -> None:
    t2 = params.get("crf.T2")
    pots = crf.CrfPotentials(Tensor(scores), Tensor(params["crf.T1"]), Tensor(params["crf.b_e"]),
                             Tensor(t2) if t2 is not None else None)
    log_z, marg = oracles.enumerate_log_partition_and_marginals(
        scores, params["crf.T1"], float(params["crf.b_e"]), t2)
    ok_z, err_z = _close(crf.log_partition(pots).item(), log_z)
    ok_m, err_m = _close(crf.marginals(pots).data, marg)
    checks.add(f"log Z and marginals equal enumeration over {len(scores)} epochs ({kind})",
               ok_z and ok_m, f"log Z error {err_z:.3e}, marginal error {err_m:.3e}")


def _check_gradient(inputs: Inputs, kind, checkpoint, rng, checks: Checks) -> None:
    """Tape gradient of the training loss (dropout off) against central
    differences at three coordinates of each module."""
    rec = inputs.train[0]
    epochs = inputs.workload.gradient_epochs
    if epochs is not None:
        spe = rec.samples_per_epoch
        rec = data.Record(rec.subject_id, rec.signal[: epochs * spe], rec.labels[:epochs],
                          rec.sample_rate_hz, rec.epoch_seconds)
    weights = (data.class_prior([r.labels for r in inputs.train])
               if inputs.workload.cost_sensitive else None)
    cfg, params = checkpoint.model_config, checkpoint.params
    tape = Tape()
    loss = model.record_loss(cfg, params, rec, weights, training=False, tape=tape)
    tape.backward(loss)

    def loss_at():
        return model.record_loss(cfg, params, rec, weights, training=False).item()

    failures, tried = [], 0
    for module in ("cnn.", "gru.", "crf."):
        names = sorted(n for n in params if n.startswith(module))
        sizes = np.array([params[n].size for n in names])
        for flat in rng.choice(int(sizes.sum()), size=3, replace=False):
            slot = int(np.searchsorted(np.cumsum(sizes), flat, side="right"))
            name = names[slot]
            idx = int(flat - (sizes[:slot].sum() if slot else 0))
            g = float(tape.grad(params[name]).flat[idx])
            ok, fd = oracles.gradient_agrees(g, loss_at, params[name].data, idx)
            tried += 1
            if not ok:
                failures.append(f"{name}[{idx}] tape {g!r} vs difference {fd!r}")
    checks.add(f"tape gradient matches central differences in every module ({kind})",
               not failures, f"{tried} coordinates; " + "; ".join(failures))


# ---------------------------------------------------------------------------
# layer probe (traced runs only)
# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else float("nan")


def layer_probe(inputs: Inputs, run, checks: Checks) -> None:
    """Taped forward and backward of probe records, layer by layer.

    The probe composes the training loss from the package's public layer
    functions on a LayerTape, with the same dropout stream as
    ``model.record_loss``; the two losses must be equal bit for bit, so
    the composition is the one training runs. Kinds the workload does not
    train are probed with freshly initialised parameters.
    """
    wl = inputs.workload
    weights = (data.class_prior([r.labels for r in inputs.train]) if wl.cost_sensitive else None)
    probe = inputs.train[: wl.probe_records]
    out = run.layer
    for kind in ("crf", "crf2"):
        if kind in wl.kinds:
            checkpoint = training.load_checkpoint(inputs.work / f"{kind}.ncrf")
            cfg, params = checkpoint.model_config, checkpoint.params
        else:
            train_cfg = wl.train_config(kind, inputs.seed)
            cfg = model.ModelConfig(kind, train_cfg.cnn or desk_cnn_config(), train_cfg.hidden_dim,
                                    probe[0].sample_rate_hz, probe[0].epoch_seconds)
            params = model.init_params(cfg, inputs.seed)
        rows: dict[str, list[float]] = {}
        mismatches = 0
        for i, rec in enumerate(probe):
            tape = LayerTape()
            signal = Tensor(rec.signal.reshape(1, -1))
            t0 = time.perf_counter()
            tape.layer = "cnn"
            feats = cnn_forward(signal, cfg.cnn, params, training=True,
                                rng=np.random.default_rng([inputs.seed, i]), tape=tape)
            t1 = time.perf_counter()
            tape.layer = "gru"
            hidden = gru_forward(feats, params, candidate_tanh=cfg.candidate_tanh, tape=tape)
            t2 = time.perf_counter()
            tape.layer = "crf"
            pots = crf.potentials_from_hidden(hidden, params, tape)
            if weights is not None:
                loss = crf.cost_sensitive_loss(pots, rec.labels, weights, tape)
            else:
                loss = crf.crf_nll(pots, rec.labels, tape)
            t3 = time.perf_counter()
            tape.backward(loss)
            reference = model.record_loss(cfg, params, rec, weights, training=True,
                                          rng=np.random.default_rng([inputs.seed, i]))
            mismatches += loss.item() != reference.item()
            untaped = crf.potentials_from_hidden(
                gru_forward(Tensor(feats.data), params, candidate_tanh=cfg.candidate_tanh), params)
            t4 = time.perf_counter()
            crf.viterbi(untaped)
            t5 = time.perf_counter()
            closures = tape.closure_seconds
            for key, value in (
                ("cnn.train_forward_ms", 1e3 * (t1 - t0)),
                ("gru.train_forward_ms", 1e3 * (t2 - t1)),
                ("crf.loss_forward_ms", 1e3 * (t3 - t2)),
                ("cnn.backward_ms", 1e3 * closures.get("cnn", 0.0)),
                ("gru.backward_ms", 1e3 * closures.get("gru", 0.0)),
                ("crf.loss_backward_ms", 1e3 * closures.get("crf", 0.0)),
                ("autodiff.backward_ms", 1e3 * tape.backward_seconds),
                ("autodiff.bookkeeping_ms",
                 1e3 * (tape.backward_seconds - sum(closures.values()))),
                ("autodiff.tape_nodes", len(tape)),
                ("cnn.tape_nodes", tape.nodes_by_layer.get("cnn", 0)),
                ("gru.tape_nodes", tape.nodes_by_layer.get("gru", 0)),
                ("crf.tape_nodes", tape.nodes_by_layer.get("crf", 0)),
                ("crf.viterbi_ms", 1e3 * (t5 - t4)),
            ):
                rows.setdefault(key, []).append(value)
            del tape, feats, hidden, pots, loss
        checks.add(f"probe loss equals model.record_loss bit for bit ({kind})",
                   mismatches == 0, f"{mismatches} of {len(probe)} records differ")
        for key, values in rows.items():
            if key.startswith("crf."):
                out[f"{key}.{kind}"] = _median(values)
            elif kind == "crf":  # network layers and the tape: the crf model
                out[key] = _median(values)
        if kind == "crf":
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            tape = Tape()
            loss = model.record_loss(cfg, params, probe[0], weights, training=True,
                                     rng=np.random.default_rng([inputs.seed, 0]), tape=tape)
            tape.backward(loss)
            out["training.record_peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / MIB
            tracemalloc.stop()
            del tape, loss


def span_metrics(run) -> None:
    """Per-layer medians from the spans recorded around the rounds."""
    spans, out = run.spans, run.layer
    by_id = {r["id"]: r for r in spans.records}

    def under(rec, name):
        p = rec["parent"]
        while p is not None:
            if by_id[p]["name"] == name:
                return True
            p = by_id[p]["parent"]
        return False

    def ms(rec):
        return 1e3 * (rec["end"] - rec["start"])

    def durations(name, predicate=lambda r: True):
        return [ms(r) for r in spans.records if r["name"] == name and predicate(r)]

    def median_of(name, predicate=lambda r: True):
        return _median(durations(name, predicate))

    in_predict = lambda r: under(r, "predict")
    out["data.synth_ms"] = median_of("data.synth")
    out["data.write_ms"] = median_of("data.write")
    out["training.validation_ms"] = median_of("training.validation")
    # one clip, one Adam step and one prox per optimizer step, in that order
    steps = zip(*(durations(n) for n in ("training.clip", "training.adam", "training.prox")))
    out["training.optimizer_ms"] = _median([sum(parts) for parts in steps])
    out["training.checkpoint_load_ms"] = median_of("training.checkpoint_load")
    out["model.decode_ms"] = median_of("model.decode", in_predict)
    out["cnn.forward_ms"] = median_of("cnn.forward", lambda r: in_predict(r) and not r["taped"])
    out["gru.forward_ms"] = median_of("gru.forward", lambda r: in_predict(r) and not r["taped"])
    out["data.load_ms"] = _median([ms(r) / r["records"] for r in spans.records
                                   if r["name"] == "data.load" and r.get("records")])


def install_wrappers(spans) -> None:
    """Spans around the package's own calls into its layers."""
    spans.wrap(training, "evaluate", "training.validation")
    spans.wrap(training, "_clip_global_norm", "training.clip")
    spans.wrap(training.Adam, "step", "training.adam")
    spans.wrap(training, "l1_prox", "training.prox")
    spans.wrap(model, "cnn_forward", "cnn.forward")
    spans.wrap(model, "gru_forward", "gru.forward")
