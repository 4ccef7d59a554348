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

from .autodiff import ModelParams, Tensor, grad_check, mul, reduce_sum
from .cnn import desk_cnn_config, paper_cnn_config
from .data import (
    STAGE_TOKENS,
    SynthConfig,
    load_records,
    load_synth_config,
    save_synth_config,
    split_by_subject,
    synth_generate,
    write_corpus,
)
from .errors import NcrfError, ParameterError
from .gru import gru_forward, gru_init
from .heads import head_init, softmax_nll, softmax_rows, softmax_logits
from .metrics import write_report
from .model import ModelConfig, decode_record, evaluate, init_params, record_loss
from .saliency import export_saliency, saliency_map
from .training import (
    Checkpoint,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    write_history,
)

GRADCHECK_FAIL_THRESHOLD = 1e-3


def _profile_geometry(args) -> tuple[int, int]:
    rate, epoch_s = (32, 30) if args.profile == "paper" else (4, 4)
    if args.sample_rate is not None:
        rate = args.sample_rate
    if args.epoch_seconds is not None:
        epoch_s = args.epoch_seconds
    return rate, epoch_s


def _cnn_for(args):
    if args.profile == "paper":
        return paper_cnn_config(channels=args.channels or 256)
    return desk_cnn_config(channels=args.channels or 32)


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
    rate, epoch_s = _profile_geometry(args)
    records = load_records(args.data, sample_rate_hz=rate, epoch_seconds=epoch_s)
    train_recs, val_recs, _ = split_by_subject(records, seed=args.seed)
    lr = args.lr if args.lr is not None else (1e-4 if args.profile == "paper" else 1e-3)
    config = TrainConfig(
        model_kind=args.model,
        cost_sensitive=args.cost_sensitive,
        l1_lambda=getattr(args, "lambda"),
        learning_rate=lr,
        max_epochs=args.max_epochs,
        patience=args.patience,
        batch_size=args.batch,
        seed=args.seed,
        hidden_dim=args.hidden or (125 if args.profile == "paper" else 64),
        cnn=_cnn_for(args),
    )
    checkpoint, history = train(train_recs, val_recs, config)
    save_checkpoint(args.out, checkpoint)
    history_path = args.history or str(Path(args.out).with_suffix(".history.csv"))
    write_history(history, history_path)
    print(
        f"trained {args.model} for {len(history)} epochs; "
        f"best validation kappa {checkpoint.val_kappa:.4f} at epoch {checkpoint.epoch}"
    )
    print(f"checkpoint: {args.out}\nhistory: {history_path}")
    return 0


def _load_split(checkpoint: Checkpoint, args) -> list:
    cfg = checkpoint.model_config
    records = load_records(
        args.data, sample_rate_hz=cfg.sample_rate_hz, epoch_seconds=cfg.epoch_seconds
    )
    seed = args.seed if args.seed is not None else checkpoint.seed
    if args.split == "all":
        return records
    splits = dict(zip(("train", "val", "test"), split_by_subject(records, seed=seed)))
    chosen = splits[args.split]
    if not chosen:
        raise ParameterError(f"split {args.split!r} is empty")
    return chosen


def cmd_eval(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    records = _load_split(checkpoint, args)
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
    records = load_records(
        args.data, sample_rate_hz=cfg.sample_rate_hz, epoch_seconds=cfg.epoch_seconds
    )
    if args.subject is not None:
        records = [r for r in records if r.subject_id == args.subject]
        if not records:
            raise ParameterError(f"subject {args.subject!r} not in manifest")
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
    cfg = checkpoint.model_config
    records = load_records(
        args.data, sample_rate_hz=cfg.sample_rate_hz, epoch_seconds=cfg.epoch_seconds
    )
    matches = [r for r in records if r.subject_id == args.subject]
    if not matches:
        raise ParameterError(f"subject {args.subject!r} not in manifest")
    record = matches[0]
    weights = saliency_map(checkpoint, record, args.epoch, target=args.target)
    spe = record.samples_per_epoch
    signal_slice = record.signal[args.epoch * spe : (args.epoch + 1) * spe]
    csv_path, pgm_path = export_saliency(weights, signal_slice, args.out)
    print(f"saliency for {record.subject_id} epoch {args.epoch}: {csv_path}, {pgm_path}")
    return 0


def _gradcheck_battery(tiny: bool, seed: int) -> list[tuple[str, float]]:
    from .crf import CrfPotentials, cost_sensitive_loss, crf_nll

    rng = np.random.default_rng(seed)
    results = []

    quad = ModelParams({"theta": Tensor(rng.normal(size=12))})

    def half_sq(p, tape):
        from .autodiff import scale

        return scale(reduce_sum(mul(p["theta"], p["theta"], tape), tape=tape), 0.5, tape)

    results.append(("quadratic", grad_check(half_sq, quad, samples=12, rng=rng)))

    m = 5
    pot = ModelParams({
        "S": Tensor(rng.normal(size=(m, 4))),
        "T1": Tensor(rng.normal(size=(4, 4))),
        "be": Tensor(rng.normal(size=())),
        "T2": Tensor(rng.normal(size=(4, 4))),
    })
    y = rng.integers(0, 4, size=m)

    def nll1(p, tape):
        return crf_nll(CrfPotentials(p["S"], p["T1"], p["be"]), y, tape)

    def nll2(p, tape):
        return crf_nll(CrfPotentials(p["S"], p["T1"], p["be"], p["T2"]), y, tape)

    def cs(p, tape):
        return cost_sensitive_loss(
            CrfPotentials(p["S"], p["T1"], p["be"], p["T2"]), y, [0.5, 1.0, 2.0, 2.0], tape
        )

    results.append(("crf_nll_order1", grad_check(nll1, pot, samples=40, rng=rng)))
    results.append(("crf_nll_order2", grad_check(nll2, pot, samples=40, rng=rng)))
    results.append(("cost_sensitive", grad_check(cs, pot, samples=40, rng=rng)))

    feat, hid, steps = 3, 4, 5
    gp = gru_init(feat, hid, rng)
    gp.update(head_init(hid, 4, rng))
    gp["Z"] = Tensor(rng.normal(size=(feat, steps)))
    yg = rng.integers(0, 4, size=steps)

    def gru_loss(p, tape):
        h = gru_forward(p["Z"], p, tape=tape)
        return softmax_nll(softmax_rows(softmax_logits(h, p, tape), tape), yg, tape=tape)

    results.append(("gru_softmax", grad_check(gru_loss, gp, samples=40, rng=rng)))

    for kind in ("softmax", "crf") if tiny else ("softmax", "crf", "crf2"):
        from .cnn import CnnConfig, ConvLayerSpec
        from .data import Record

        tiny_cnn = CnnConfig(
            layers=(ConvLayerSpec(3, 2, 4), ConvLayerSpec(3, 2, 4)),
            residual_pairs=((0, 1),),
        )
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
    results = _gradcheck_battery(args.tiny, args.seed)
    worst = 0.0
    for name, err in results:
        print(f"{name:>16}: max relative error {err:.3e}")
        worst = max(worst, err)
    print(f"{'overall':>16}: {worst:.3e}")
    return 0 if worst <= GRADCHECK_FAIL_THRESHOLD else 1


def cmd_inspect(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    if not checkpoint.model_config.uses_crf:
        raise ParameterError("inspect needs a crf or crf2 checkpoint")
    t1 = checkpoint.params["crf.T1"].data
    normalized = np.exp(t1 - t1.max(axis=1, keepdims=True))
    normalized /= normalized.sum(axis=1, keepdims=True)
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
    p.add_argument("--model", choices=("softmax", "crf", "crf2"), default="crf")
    p.add_argument("--cost-sensitive", action="store_true")
    p.add_argument("--lambda", type=float, default=0.005, help="L1 strength on CRF params")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", help="history CSV path (default: next to checkpoint)")
    p.add_argument("--profile", choices=("desk", "paper"), default="desk")
    p.add_argument("--sample-rate", type=int, help="override profile sample rate")
    p.add_argument("--epoch-seconds", type=int, help="override profile epoch length")
    p.add_argument("--hidden", type=int, help="GRU width (default 64 desk / 125 paper)")
    p.add_argument("--channels", type=int, help="CNN channels (default 32 desk / 256 paper)")
    p.add_argument("--max-epochs", type=int, default=200)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--lr", type=float, help="Adam learning rate (default 1e-3 desk / 1e-4 paper)")
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
