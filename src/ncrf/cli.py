"""Command-line surface: synth, train, eval, predict, saliency, gradcheck, inspect.

Exit codes: 0 on success, 1 on runtime failure, 2 on usage errors.
Every subcommand is deterministic under --seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .autodiff import ModelParams, Tensor, grad_check
from .cnn import CnnConfig, ConvLayerSpec
from .crf import CrfPotentials, cost_sensitive_loss, crf_init, crf_nll, potentials_from_hidden
from .data import (
    STAGE_TOKENS,
    Record,
    SynthConfig,
    load_records,
    load_synth_config,
    save_synth_config,
    split_by_subject,
    synth_generate,
    write_corpus,
)
from .errors import NcrfError, NumericError, ParameterError
from .gru import gru_forward, gru_init
from .metrics import write_report
from .model import (MODEL_KINDS, ModelConfig, decode_record, desk_config, evaluate,
                    expected_moves, init_params, paper_config, record_loss)
from .saliency import export_saliency, saliency_map
from .training import TrainConfig, load_checkpoint, save_checkpoint, train, write_history

GRADCHECK_FAIL_THRESHOLD = 1e-3
# --profile -> (model config with the profile's geometry and sizes, default Adam learning rate)
PROFILES = {"desk": (desk_config, 1e-3), "paper": (paper_config, 1e-4)}


def _records(args, config: ModelConfig, subject: str | None = None) -> list[Record]:
    """The records of ``args.data`` at the model's geometry; only ``subject``'s if one is named."""
    records = load_records(
        args.data, sample_rate_hz=config.sample_rate_hz, epoch_seconds=config.epoch_seconds
    )
    if subject is None:
        return records
    records = [r for r in records if r.subject_id == subject]
    if not records:
        raise ParameterError(f"subject {subject!r} not in manifest")
    return records


def cmd_synth(args) -> int:
    config = load_synth_config(args.config) if args.config else SynthConfig()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    records = synth_generate(config)
    manifest = write_corpus(records, args.out)
    save_synth_config(config, Path(args.out) / "synth_config.txt")
    print(f"wrote {len(records)} subjects; manifest at {manifest}")
    return 0


def cmd_train(args) -> int:
    make_config, default_lr = PROFILES[args.profile]
    sizes = {"hidden_dim": args.hidden, "channels": args.channels}
    model = make_config(args.model, **{k: v for k, v in sizes.items() if v is not None})
    train_recs, val_recs, _ = split_by_subject(_records(args, model), seed=args.seed)
    config = TrainConfig(
        model_kind=args.model,
        cost_sensitive=args.cost_sensitive,
        l1_lambda=getattr(args, "lambda"),
        learning_rate=default_lr if args.lr is None else args.lr,
        max_epochs=args.max_epochs,
        patience=args.patience,
        batch_size=args.batch,
        seed=args.seed,
        hidden_dim=model.hidden_dim,
        cnn=model.cnn,
    )
    try:
        checkpoint, history = train(train_recs, val_recs, config)
    except NumericError as e:  # records load finite: name the rate, overflow's usual cause
        raise NumericError(f"{e} (learning rate {config.learning_rate!r})") from e
    save_checkpoint(args.out, checkpoint)
    history_path = args.history or str(Path(args.out).with_suffix(".history.csv"))
    write_history(history, history_path)
    print(
        f"trained {args.model} for {len(history)} epochs; "
        f"best validation kappa {checkpoint.val_kappa:.4f} at epoch {checkpoint.epoch}"
    )
    print(f"checkpoint: {args.out}\nhistory: {history_path}")
    return 0


def cmd_eval(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    records = _records(args, checkpoint.model_config)
    if args.split != "all":
        seed = args.seed if args.seed is not None else checkpoint.seed
        records = split_by_subject(records, seed=seed)[("train", "val", "test").index(args.split)]
        if not records:
            raise ParameterError(f"split {args.split!r} is empty")
    report = evaluate(checkpoint.model_config, checkpoint.params, records)
    paths = write_report(report, args.out)
    print(
        f"evaluated {report.n_subjects} subjects: accuracy {report.accuracy:.4f}, "
        f"kappa {report.kappa:.4f}, SE MAE {report.se_mae:.4f}"
    )
    for kind, p in paths.items():
        print(f"{kind}: {p}")
    return 0


def cmd_predict(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    cfg = checkpoint.model_config
    records = _records(args, cfg, args.subject)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for rec in records:
        path = decode_record(cfg, checkpoint.params, rec)
        target = out / f"{rec.subject_id}.pred.txt"
        target.write_text("\n".join(STAGE_TOKENS[i] for i in path) + "\n")
    print(f"wrote predictions for {len(records)} subject(s) to {out}")
    return 0


def cmd_saliency(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    record = _records(args, checkpoint.model_config, args.subject)[0]
    weights = saliency_map(checkpoint, record, args.epoch, target=args.target)
    spe = record.samples_per_epoch
    signal_slice = record.signal[args.epoch * spe : (args.epoch + 1) * spe]
    csv_path, pgm_path = export_saliency(weights, signal_slice, args.out)
    print(f"saliency for {record.subject_id} epoch {args.epoch}: {csv_path}, {pgm_path}")
    return 0


def gradcheck_battery(tiny: bool, seed: int) -> list[tuple[str, float]]:
    """Named max relative errors of tape gradients against central
    differences: both CRF losses at both orders, the fused GRU with each
    candidate activation, and whole tiny models. ``tiny`` leaves out
    the ``crf2`` model."""
    rng = np.random.default_rng(seed)
    results = []

    quad = ModelParams({"theta": Tensor(rng.normal(size=12))})

    def sq(p, tape):
        theta = p["theta"]
        out = Tensor(np.sum(theta.data * theta.data))
        if tape is not None:
            tape.record(out, (theta,), lambda g: (2.0 * g * theta.data,))
        return out

    results.append(("quadratic", grad_check(sq, quad, samples=12, rng=rng)))

    m = 5
    y = rng.integers(0, 4, size=m)
    for order in (1, 2):
        pot = ModelParams({
            "S": Tensor(rng.normal(size=(m, 4))),
            "T1": Tensor(rng.normal(size=(4, 4))),
            "be": Tensor(rng.normal(size=())),
        })
        if order == 2:
            pot["T2"] = Tensor(rng.normal(size=(4, 4)))

        def nll(p, tape):
            return crf_nll(CrfPotentials(p["S"], p["T1"], p["be"], p.get("T2")), y, tape)

        def cs(p, tape):
            return cost_sensitive_loss(
                CrfPotentials(p["S"], p["T1"], p["be"], p.get("T2")), y, [0.5, 1.0, 2.0, 2.0], tape
            )

        results.append((f"crf_nll_order{order}", grad_check(nll, pot, samples=40, rng=rng)))
        results.append((f"cost_sensitive_order{order}", grad_check(cs, pot, samples=40, rng=rng)))

    feat, hid, steps = 3, 4, 5
    yg = rng.integers(0, 4, size=steps)
    for candidate in ("sigmoid", "tanh"):
        gp = gru_init(feat, hid, rng)
        gp.update(crf_init(hid, 4, order=0, rng=rng))
        gp["Z"] = Tensor(rng.normal(size=(feat, steps)))

        def gru_loss(p, tape, _tanh=candidate == "tanh"):
            h = gru_forward(p["Z"], p, candidate_tanh=_tanh, tape=tape)
            return crf_nll(potentials_from_hidden(h, p, tape), yg, tape)

        results.append((f"gru_{candidate}", grad_check(gru_loss, gp, samples=40, rng=rng)))

    tiny_cnn = CnnConfig(
        layers=(ConvLayerSpec(3, 2, 4), ConvLayerSpec(3, 2, 4)),
        residual_pairs=((0, 1),),
    )
    for kind in ("softmax", "crf") if tiny else ("softmax", "crf", "crf2"):
        config = ModelConfig(kind, tiny_cnn, hidden_dim=6, sample_rate_hz=2, epoch_seconds=2)
        params = init_params(config, seed)
        m_epochs = 4
        rec = Record(
            "gc", rng.normal(size=m_epochs * 4), rng.integers(0, 4, size=m_epochs),
            sample_rate_hz=2, epoch_seconds=2,
        )

        def model_loss(p, tape, _c=config, _r=rec):
            return record_loss(_c, p, _r, training=False, tape=tape)

        results.append((f"full_{kind}", grad_check(model_loss, params, samples=60, rng=rng)))
    return results


def cmd_gradcheck(args) -> int:
    results = gradcheck_battery(args.tiny, args.seed)
    worst = 0.0
    for name, err in results:
        print(f"{name:>22}: max relative error {err:.3e}")
        worst = max(worst, err)
    print(f"{'overall':>22}: {worst:.3e}")
    return 0 if worst <= GRADCHECK_FAIL_THRESHOLD else 1


def cmd_inspect(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    cfg, params = checkpoint.model_config, checkpoint.params
    if cfg.crf_order == 0:
        raise ParameterError("inspect needs a crf or crf2 checkpoint")
    if args.data:
        counts = expected_moves(cfg, params, _records(args, cfg))
    else:
        t1 = params["crf.T1"].data
        counts = np.exp(t1 - t1.max(axis=1, keepdims=True))
    leaving = counts.sum(axis=1, keepdims=True)
    if not (leaving > 0.0).all():
        raise ParameterError("the records give some stage no expected move out of it")
    normalized = counts / leaving
    lines = ["," + ",".join(STAGE_TOKENS)]
    for i, tok in enumerate(STAGE_TOKENS):
        lines.append(tok + "," + ",".join(f"{v:.6f}" for v in normalized[i]))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"transition matrix written to {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncrf",
        description="Sleep staging from raw flow signal with a CNN-GRU-CRF network",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", help="key=value synth config file (defaults built in)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a manifest")
    p.add_argument("--data", required=True, help="manifest path")
    p.add_argument("--model", choices=MODEL_KINDS, default="crf")
    p.add_argument("--cost-sensitive", action="store_true")
    p.add_argument("--lambda", type=float, default=0.005, help="L1 strength on CRF params")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", help="history CSV path (default: next to checkpoint)")
    p.add_argument("--profile", choices=tuple(PROFILES), default="desk",
                   help="record geometry and default sizes")
    p.add_argument("--hidden", type=int, help="GRU width (default: the profile's)")
    p.add_argument("--channels", type=int, help="CNN channels (default: the profile's)")
    p.add_argument("--max-epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--lr", type=float, help="Adam learning rate (default: the profile's)")
    p.add_argument("--batch", type=int, default=1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test", "all"), default="test")
    p.add_argument("--seed", type=int, help="split seed (default: the checkpoint's)")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="write per-epoch stage tokens")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--subject", help="single subject id (default: all)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("saliency", help="input-gradient map for one epoch")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--subject", required=True)
    p.add_argument("--epoch", type=int, required=True)
    p.add_argument("--target", default="predicted", help="predicted or one of W/R/L/D")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--tiny", action="store_true", help="smallest battery only")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("inspect", help="dump the normalized CRF transition matrix")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="manifest: print the model's expected P(next | current) "
                                   "stage over its records instead")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NcrfError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
