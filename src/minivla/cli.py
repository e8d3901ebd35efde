"""Command-line entry points.

Subcommands: gen-data, stats, train, eval, ablate sep-resampler,
ablate depth-extremes, sensitivity, gradcheck. Exit codes: 0 success,
1 validation/usage error, 2 runtime error. gradcheck takes no flags: it
checks training.full_model_gradcheck's one fixed model and batch, and
passes below a relative error of 1e-4.

Flags reach the program by one path. A flag that names a config field
is listed in CONFIG_FLAGS; its value goes through config.parse_config,
with a --config file where the command takes one, so it gets the same
type and range checks as a config file. Every other flag is checked by
its argparse type. Either way a bad value exits 1 before any dataset,
checkpoint or stats file is read, and a bad stats file exits 1 before
the dataset is read; so do families that cannot fill a chain, for eval
and ablate, and ablate depth-extremes exits 1 before the dataset is
read when --wide does not strictly contain --narrow. Every
file a command writes goes through persist, and train writes nothing
into --out until training has finished, apart from the periodic
checkpoints of --ckpt-every.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from . import analysis as an
from . import depth as dp
from . import persist
from . import policy as pol
from . import sim
from . import training as tr
from .config import DEPTH_INPUTS, RunConfig, parse_config
from .errors import MinivlaError, ValidationError

# Config section -> its fields that a flag of the same dest sets. The --seed
# of train and ablate seeds model and train alike; that of gen-data (data
# seed) and eval (chain seed) names no config field, so has its own dest.
CONFIG_FLAGS = (
    ("model", ("seed", "sep_resampler", "depth_input")),
    ("train", ("seed", "epochs", "learning_rate", "lambda_gripper", "batch_size",
               "ckpt_every")),
    ("env", ("palettes", "eval_palette", "families", "variant", "n_chains", "horizon",
             "enrich")),
)


def _split_csv(text):
    return [t.strip() for t in text.split(",") if t.strip()] or None


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _run_config(args) -> RunConfig:
    """The run's settings: the --config file, if the command takes one,
    then every CONFIG_FLAGS flag the command has and the user set. For a
    command that evaluates chains, the families must be able to fill one
    (sim.chain_families)."""
    overrides: dict = {}
    for section, names in CONFIG_FLAGS:
        for name in names:
            value = getattr(args, name, None)
            if value is not None:
                overrides.setdefault(section, {})[name] = value
    cfg = parse_config(getattr(args, "config", None), overrides)
    if hasattr(args, "n_chains"):  # eval and both ablations
        sim.chain_families(cfg.env.families, cfg.env.variant)
    return cfg


# --- subcommand bodies -----------------------------------------------------------


def cmd_gen_data(args) -> int:
    env = _run_config(args).env
    data = sim.generate_dataset(args.n, args.data_seed, env.palettes, families=env.families,
                                variant=env.variant, enrich=env.enrich)
    persist.save_dataset(data, args.out, meta={
        "seed": args.data_seed, "palettes": env.palettes, "families": env.families,
        "variant": env.variant, "enriched": env.enrich,
    })
    steps = sum(len(t.steps) for t in data)
    print(f"wrote {len(data)} trajectories ({steps} steps) to {args.out}")
    return 0


def cmd_stats(args) -> int:
    data = persist.load_dataset(args.data)
    stats = dp.compute_stats(persist.dataset_depth_frames(data))
    persist.write_json(args.out, dataclasses.asdict(stats))
    print(f"{args.out}: {stats}")
    return 0


def _data_and_stats(args) -> tuple[list[sim.Trajectory], dp.DepthStats]:
    """The dataset and the --stats file, which is read first, so a bad one
    exits 1 before the dataset is read; without it, the data's statistics."""
    stats = args.stats and dp.DepthStats.from_json(args.stats.read_text())
    data = persist.load_dataset(args.data)
    return data, stats or dp.compute_stats(persist.dataset_depth_frames(data))


def cmd_train(args) -> int:
    cfg = _run_config(args)
    # A run's log, summary and checkpoints describe that run alone.
    if args.out.exists() and (not args.out.is_dir() or any(args.out.iterdir())):
        raise ValidationError(f"--out {args.out} is not an empty directory; "
                              "train writes each run into a new one")
    data, stats = _data_and_stats(args)
    model = pol.init_model(cfg.model, stats)

    def on_epoch(epoch, st):
        print(f"epoch {epoch}: loss {st.loss:.5f} (mse {st.mse:.5f}, "
              f"bce {st.bce:.5f}) in {st.seconds:.1f}s")
        k = cfg.train.ckpt_every
        if k and (epoch + 1) % k == 0:
            persist.save_checkpoint(model, args.out / f"checkpoint_ep{epoch + 1:04d}.rfpx")

    report = tr.train_run(data, model, cfg.train, on_epoch=on_epoch)
    # The checkpoint, which refuses parameters not finite in float32, goes
    # first, so a failed run leaves only the periodic checkpoints behind.
    path = persist.save_checkpoint(model, args.out / "checkpoint.rfpx")
    persist.write_json(args.out / "config_echo.json", dataclasses.asdict(cfg))
    persist.write_json(args.out / "stats.json", dataclasses.asdict(stats))
    persist.write_train_log(report, args.out)
    print(f"checkpoint: {path}")
    return 0


def cmd_eval(args) -> int:
    env = _run_config(args).env
    model = persist.load_checkpoint(args.checkpoint)
    agent = pol.PolicyAgent(model)
    results = an.run_chain_eval(agent, env.n_chains, env.eval_palette, args.chain_seed,
                                families=env.families, variant=env.variant,
                                enrich=env.enrich, horizon=env.horizon)
    table = an.aggregate_chain_metrics(
        results, model_label=args.label, train_split=args.train_label,
        test_split=env.eval_palette, enriched=env.enrich)
    persist.write_chain_results(results, args.out / "chains.jsonl")
    persist.write_metrics(table, args.out)
    print("task rates:", " ".join(f"{r:.3f}" for r in table.rates),
          f"avg {table.avg:.3f} over {table.n_chains} chains")
    return 0


def cmd_ablate_sep_resampler(args) -> int:
    cfg = _run_config(args)
    data, stats = _data_and_stats(args)
    report = an.run_sep_resampler_ablation(cfg.model, stats, data, cfg.train, cfg.env)
    _write_ablation(report, args.out)
    return 0


def cmd_ablate_depth_extremes(args) -> int:
    cfg = _run_config(args)
    narrow = dp.DepthStats.from_json(args.narrow.read_text())
    wide = dp.DepthStats.from_json(args.wide.read_text())
    an.check_depth_extremes(narrow, wide)
    data = persist.load_dataset(args.data)
    report = an.run_depth_extremes_ablation(cfg.model, narrow, wide, data,
                                            cfg.train, cfg.env)
    _write_ablation(report, args.out)
    return 0


def _write_ablation(report, run_dir: Path) -> None:
    out = persist.write_json(run_dir / f"ablation_{report.name}.json", report.to_dict())
    for table in report.tables.values():
        persist.write_metrics(table, run_dir)
    print(f"ablation report: {out}")
    for label, table in report.tables.items():
        print(f"  {label}: rates {table.rates} avg {table.avg:.3f}")


def cmd_sensitivity(args) -> int:
    # Each stats file is labelled by its stem, so two files must not share one.
    paths: dict[str, Path] = {}
    for p in args.stats:
        if p.stem in paths:
            raise ValidationError(f"--stats {paths[p.stem]} and {p} share the label "
                                  f"{p.stem!r}; rename one")
        paths[p.stem] = p
    stats_by_label = {label: dp.DepthStats.from_json(p.read_text())
                      for label, p in paths.items()}
    data = persist.load_dataset(args.data)
    pairs = an.consecutive_depth_pairs(data, limit=args.pairs)
    counts = an.depth_sensitivity_report(pairs, stats_by_label)
    persist.write_json(args.out, counts)
    for label, values in sorted(counts.items()):
        print(f"{label}: total {sum(values)} changed pixels over {len(values)} pairs")
    return 0


def cmd_gradcheck(args) -> int:
    t0 = time.perf_counter()
    res = tr.full_model_gradcheck()
    dt = time.perf_counter() - t0
    ok = res.max_rel_error < 1e-4
    print(f"max relative error {res.max_rel_error:.3e} over {res.n_checked} "
          f"entries (worst: {res.worst_param}) in {dt:.1f}s -> "
          f"{'OK' if ok else 'FAIL'}")
    return 0 if ok else 2


# --- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="minivla",
                description="Desk-scale RGB-D vision-language manipulation policy")
    sub = p.add_subparsers(dest="command")

    g = sub.add_parser("gen-data", help="generate expert demonstrations")
    g.add_argument("--out", type=Path, required=True)
    g.add_argument("--n", type=_positive_int, default=200)
    g.add_argument("--families", type=_split_csv, help="comma-separated family names")
    g.add_argument("--palettes", type=_split_csv, default=None)
    g.add_argument("--seed", dest="data_seed", type=_non_negative_int, default=0)
    g.add_argument("--variant", choices=sim.VARIANTS, default=None)
    g.add_argument("--enrich", action="store_true",
                   help="sample instruction paraphrases")
    g.set_defaults(func=cmd_gen_data)

    s = sub.add_parser("stats", help="depth statistics of a dataset")
    s.add_argument("--data", type=Path, required=True)
    s.add_argument("--out", type=Path, required=True)
    s.set_defaults(func=cmd_stats)

    t = sub.add_parser("train", help="behavior-clone a policy")
    t.add_argument("--data", type=Path, required=True)
    t.add_argument("--out", type=Path, required=True)
    t.add_argument("--config", type=Path, default=None)
    t.add_argument("--stats", type=Path, default=None,
                   help="depth stats JSON (else computed)")
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    t.add_argument("--lambda-gripper", dest="lambda_gripper", type=float, default=None)
    t.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    t.add_argument("--ckpt-every", dest="ckpt_every", type=int, default=None)
    t.add_argument("--sep-resampler", dest="sep_resampler", action="store_const",
                   const=True, default=None)
    t.add_argument("--depth-input", dest="depth_input",
                   choices=DEPTH_INPUTS, default=None)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="chain evaluation of a checkpoint")
    e.add_argument("--checkpoint", type=Path, required=True)
    e.add_argument("--out", type=Path, required=True)
    e.add_argument("--chains", dest="n_chains", type=int, default=200)
    e.add_argument("--palette", dest="eval_palette", default=None)
    e.add_argument("--families", type=_split_csv, default=None)
    e.add_argument("--seed", dest="chain_seed", type=_non_negative_int, default=1000)
    e.add_argument("--horizon", type=int, default=None)
    e.add_argument("--variant", choices=sim.VARIANTS, default=None)
    e.add_argument("--enrich", action="store_true")
    e.add_argument("--label", default="ours")
    e.add_argument("--train-label", default="ABC")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", help="paired-variant studies")
    asub = a.add_subparsers(dest="ablation")
    a1 = asub.add_parser("sep-resampler", help="shared vs separate resamplers")
    a2 = asub.add_parser("depth-extremes", help="narrow vs wide depth ranges")
    for ap in (a1, a2):
        ap.add_argument("--data", type=Path, required=True)
        ap.add_argument("--out", type=Path, required=True)
        ap.add_argument("--config", type=Path, default=None)
        ap.add_argument("--seed", type=int, default=None)
        ap.add_argument("--epochs", type=int, default=None)
        ap.add_argument("--chains", dest="n_chains", type=int, default=None)
        ap.add_argument("--families", type=_split_csv, default=None)
    a1.add_argument("--stats", type=Path, default=None,
                    help="depth stats JSON (else computed)")
    a1.set_defaults(func=cmd_ablate_sep_resampler)
    a2.add_argument("--narrow", type=Path, required=True, help="narrow-range stats JSON")
    a2.add_argument("--wide", type=Path, required=True, help="wide-range stats JSON")
    a2.set_defaults(func=cmd_ablate_depth_extremes)

    n = sub.add_parser("sensitivity", help="quantized pixel-change counts")
    n.add_argument("--data", type=Path, required=True)
    n.add_argument("--stats", type=Path, nargs="+", required=True)
    n.add_argument("--out", type=Path, required=True)
    n.add_argument("--pairs", type=_positive_int, default=50)
    n.set_defaults(func=cmd_sensitivity)

    c = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    c.set_defaults(func=cmd_gradcheck)
    return p


def dispatch(argv) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help paths
        return 0 if not e.code else 1
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args) or 0
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MinivlaError as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
