"""Command-line surface: synth, train, classify, eval, compare, roc, freq.

Exit codes: 0 success, 1 usage, 2 data error, 3 model error. Reports are
headered CSV; every output file is written atomically.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from functools import partial
from itertools import chain
from typing import List, Optional, Sequence

import yaml

from . import data as dataio
from .core import (
    FLOOR_UNION,
    NB_PAPER_LITERAL,
    NB_STANDARD,
    SHAPE,
    ClassifierConfig,
    DataError,
    FeatureSpec,
    ModelError,
    TimeSeries,
    whole_number,
)
from .evaluate import compare_variants, detection_frequency, metrics, mil_confusion, roc_sweep
from .model import ClassSpec, classify, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# Config document
# ---------------------------------------------------------------------------

_TOP_KEYS = {
    "seed",
    "stride",
    "decision_floor",
    "nb_denominator",
    "small_value_mode",
    "thresholds",
    "classes",
}
_CLASS_KEYS = {"name", "m", "exclusion_zone", "prior", "features"}
_FEATURE_KEYS = {"kind", "id", "prototype"}


def _parse_samples(value, sample_rate_hz: Optional[float], what: str) -> int:
    """Accept plain sample counts or time suffixes (s, ms, min, h)."""
    if isinstance(value, (int, float)):
        return _convert(int, value, what)
    text = str(value).strip()
    try:
        return int(text)
    except ValueError:
        pass
    units = (("ms", 1e-3), ("min", 60.0), ("h", 3600.0), ("s", 1.0))
    for suffix, seconds in units:
        if text.endswith(suffix):
            try:
                quantity = float(text[: -len(suffix)])
            except ValueError:
                raise DataError(f"cannot parse {what} {text!r}")
            if sample_rate_hz is None:
                raise DataError(
                    f"{what} {text!r} needs a series with sample_rate_hz; "
                    "use a plain sample count instead"
                )
            samples = quantity * seconds * sample_rate_hz
            if not math.isfinite(samples):
                raise DataError(f"{what} {text!r} is not a finite number of samples")
            return int(round(samples))
    raise DataError(f"cannot parse {what} {text!r}")


def _convert(kind, value, what: str):
    """`value` as a whole number (kind int) or a float, else a DataError."""
    try:
        return whole_number(value) if kind is int else float(value)
    except (OverflowError, TypeError, ValueError) as exc:
        noun = "an integer" if kind is int else "a number"
        raise DataError(f"{what} must be {noun}, got {value!r}") from exc


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise DataError(f"unknown {where} keys: {', '.join(sorted(unknown))}")


def _parse_feature(obj) -> FeatureSpec:
    if isinstance(obj, str):
        return FeatureSpec(kind=obj)
    if not isinstance(obj, dict):
        raise DataError(f"feature entries must be a kind or a mapping, got {obj!r}")
    _check_keys(obj, _FEATURE_KEYS, "feature")
    kind = obj.get("kind")
    if not kind:
        raise DataError("feature mapping needs a kind")
    query = None
    if "prototype" in obj and obj["prototype"] is not None:
        if kind != SHAPE:
            raise DataError(f"feature kind {kind!r} takes no prototype")
        query = dataio.load_series(str(obj["prototype"])).values
    return FeatureSpec(kind=kind, id=obj.get("id", "") or "", query=query)


def load_run_config(path: str, sample_rate_hz: Optional[float] = None):
    """Parse the YAML run config into (ClassifierConfig, [ClassSpec], seed)."""
    try:
        doc = yaml.safe_load(dataio.read_file(path))
    except yaml.YAMLError as exc:
        raise DataError(f"bad config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"config {path} must be a mapping")
    _check_keys(doc, _TOP_KEYS, "config")
    thresholds = doc.get("thresholds") or {}
    if not isinstance(thresholds, dict):
        raise DataError("thresholds must map class names to weights")
    cfg = ClassifierConfig(
        thresholds={
            str(k): _convert(float, v, f"threshold for {k!r}") for k, v in thresholds.items()
        },
        decision_floor=_convert(float, doc.get("decision_floor", 0.5), "decision_floor"),
        stride=_convert(int, doc.get("stride", 1), "stride"),
        nb_denominator=str(doc.get("nb_denominator", NB_STANDARD)),
        small_value_mode=str(doc.get("small_value_mode", FLOOR_UNION)),
    )
    classes = doc.get("classes") or []
    if not isinstance(classes, list):
        raise DataError("classes must be a list of class entries")
    specs: List[ClassSpec] = []
    for entry in classes:
        if not isinstance(entry, dict):
            raise DataError("each class entry must be a mapping")
        _check_keys(entry, _CLASS_KEYS, "class")
        for key in ("name", "m", "exclusion_zone", "features"):
            if key not in entry:
                raise DataError(f"class entry is missing {key!r}")
        name = str(entry["name"])
        if not isinstance(entry["features"], list):
            raise DataError(f"features of class {name!r} must be a list")
        m = _convert(int, entry["m"], f"m of class {name!r}")
        prior = entry.get("prior")
        if prior is not None:
            prior = _convert(float, prior, f"prior of class {name!r}")
        specs.append(
            ClassSpec(
                class_id=name,
                m=m,
                exclusion_zone=_parse_samples(
                    entry["exclusion_zone"], sample_rate_hz, "exclusion_zone"
                ),
                features=tuple(_parse_feature(f) for f in entry["features"]),
                prior=prior,
            )
        )
    seed = doc.get("seed")
    return cfg, specs, (None if seed is None else _convert(int, seed, "seed"))


def _classifier_config(args, sample_rate_hz: Optional[float] = None) -> ClassifierConfig:
    """The run config's classifier settings (defaults without --config), then the flags."""
    cfg = load_run_config(args.config, sample_rate_hz)[0] if args.config else ClassifierConfig()
    thresholds = dict(cfg.thresholds)
    for item in args.threshold or []:
        name, _, value = item.partition("=")
        if not name or not value:
            raise DataError(f"--threshold expects class=weight, got {item!r}")
        thresholds[name] = _convert(float, value, f"--threshold {name}")
    flags = ("decision_floor", "stride", "nb_denominator")
    given = {k: getattr(args, k) for k in flags if getattr(args, k) is not None}
    return dataclasses.replace(cfg, thresholds=thresholds, **given)


def _fmt(x: float) -> str:
    return repr(float(x))


def _confusion_csv(cm, precision: float, recall: float, accuracy: float) -> str:
    """The ``tp,fp,fn,tn,precision,recall,accuracy`` fields of one report row."""
    return (f"{cm.tp},{cm.fp},{cm.fn},{cm.tn},"
            f"{_fmt(precision)},{_fmt(recall)},{_fmt(accuracy)}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_synth_series(args) -> int:
    ts = args.generator(args.n, args.seed)
    if args.sample_rate is not None:
        ts = TimeSeries(values=ts.values, sample_rate_hz=args.sample_rate, name=ts.name)
    dataio.save_series(ts, args.out)
    print(f"wrote {args.out} ({ts.name}, n={len(ts)})")
    return 0


def cmd_synth_two_modality(args) -> int:
    params = dataio.TwoModalityParams(
        m=args.m, n_sine=args.sine_bags, n_flat=args.flat_bags, n_surge=args.surge_bags,
        n_hum=args.hum_bags, noise_level=args.noise_level, sample_rate_hz=args.sample_rate,
    )
    bundle = dataio.gen_two_modality_dataset(params, args.seed)
    dataio.save_series(bundle.series, args.out_series)
    dataio.save_labels(bundle.labels, args.out_labels)
    print(
        f"wrote {args.out_series} and {args.out_labels} "
        f"({bundle.provenance}, n={len(bundle.series)}, bags={len(bundle.labels.regions)})"
    )
    return 0


def cmd_synth_gun_experiment(args) -> int:
    instances = dataio.load_ucr_instances(args.source)
    gun = [v for label, v in instances if label == args.gun_label]
    nogun = [v for label, v in instances if label == args.nogun_label]
    bundle = dataio.build_gun_experiment(
        gun, nogun, n_per_class=args.n_per_class, length=args.length, seed=args.seed
    )
    dataio.save_instances(bundle, args.out)
    print(
        f"wrote {args.out} (gun-experiment seed={args.seed}, "
        f"{len(bundle)} instances of length {args.length})"
    )
    return 0


def cmd_train(args) -> int:
    series = dataio.load_series(args.series)
    labels = dataio.load_labels(args.labels, len(series))
    _, specs, _ = load_run_config(args.config, series.sample_rate_hz)
    if not specs:
        raise DataError(f"config {args.config} defines no classes")
    models = train(series, labels, specs)
    dataio.save_model(models, args.out)
    for spec, model in zip(specs, models):
        parts = []
        # `train` keeps each class's feature order.
        for asked, (fspec, pos_h, neg_h) in zip(spec.features, model.features):
            origin = ""
            if fspec.kind == SHAPE:
                origin = " (medoid prototype)" if asked.query is None else " (explicit prototype)"
            parts.append(
                f"{fspec.id}: pos {pos_h.total}/{pos_h.counts.size} bins, "
                f"neg {neg_h.total}/{neg_h.counts.size} bins{origin}"
            )
        print(f"class {model.class_id}: prior={model.prior!r}; " + "; ".join(parts))
    print(f"wrote {args.out} ({len(models)} classes)")
    return 0


def cmd_classify(args) -> int:
    models = dataio.load_model(args.model)
    series = dataio.SeriesStream(args.series)
    cfg = _classifier_config(args, series.sample_rate_hz)
    track = classify(models, series, cfg)
    dataio.save_predictions(track, args.out)
    print(
        f"wrote {args.out} ({len(track.positions)} detections over "
        f"{len(track)} positions, stride={cfg.stride})"
    )
    return 0


def _load_predictions(path: str, class_ids: Sequence[str]):
    """The predictions at `path`, whose `# classes:` header must name each of `class_ids`."""
    track = dataio.load_predictions(path)
    for class_id in class_ids:
        if class_id not in track.class_ids:
            raise ModelError(f"no class {class_id!r} in the predictions' classes "
                             f"{','.join(track.class_ids)!r}")
    return track


def cmd_eval(args) -> int:
    track = _load_predictions(args.predictions, args.class_id)
    bags = dataio.load_labels(args.labels, track.series_length)
    rows = []
    for class_id in args.class_id:
        cm = mil_confusion(track, bags, class_id)
        precision, recall, accuracy = metrics(cm)
        rows.append(f"{class_id},{_confusion_csv(cm, precision, recall, accuracy)}")
        print(
            f"{class_id}: tp={cm.tp} fp={cm.fp} fn={cm.fn} tn={cm.tn} "
            f"precision={precision:.4g} recall={recall:.4g} accuracy={accuracy:.4g}"
        )
    dataio.write_lines(args.out, ["class,tp,fp,fn,tn,precision,recall,accuracy", *rows])
    print(f"wrote {args.out}")
    return 0


def cmd_compare(args) -> int:
    models = dataio.load_model(args.model)
    series = dataio.SeriesStream(args.series)
    cfg = _classifier_config(args, series.sample_rate_hz)
    # The labels' bounds need the series length, known when the pass ends.
    rows = compare_variants(models, series, partial(dataio.load_labels, args.labels), cfg)
    lines = ["variant,class,tp,fp,fn,tn,precision,recall,accuracy"]
    for name, class_id, cm, precision, recall, accuracy in rows:
        lines.append(f"{name},{class_id},{_confusion_csv(cm, precision, recall, accuracy)}")
        print(
            f"{name:>8} {class_id}: precision={precision:.4g} "
            f"recall={recall:.4g} accuracy={accuracy:.4g}"
        )
    dataio.write_lines(args.out, lines)
    print(f"wrote {args.out}")
    return 0


def cmd_roc(args) -> int:
    models = dataio.load_model(args.model)
    series = dataio.SeriesStream(args.series)
    cfg = _classifier_config(args, series.sample_rate_hz)
    weights = [
        _convert(float, w, "--weights entry") for w in args.weights.split(",") if w.strip()
    ]
    if len(weights) < 2:
        raise DataError("need at least two weights")
    points = roc_sweep(models, series, partial(dataio.load_labels, args.labels), cfg,
                       args.class_id, weights)
    rows = [
        f"{_fmt(pt.threshold_weight)},{_fmt(pt.precision)},{_fmt(pt.recall)},"
        f"{pt.tp},{pt.fp},{pt.fn},{pt.tn}"
        for pt in points
    ]
    dataio.write_lines(args.out, ["weight,precision,recall,tp,fp,fn,tn", *rows])
    print(f"wrote {args.out} ({len(points)} operating points for {args.class_id})")
    return 0


def cmd_freq(args) -> int:
    track = _load_predictions(args.predictions, [args.class_id])
    window = _parse_samples(args.window, track.sample_rate_hz, "window")
    step = _parse_samples(args.step, track.sample_rate_hz, "step")
    series = detection_frequency(track, args.class_id, window, step)
    rows = (f"{start},{count}" for start, count in series)
    dataio.write_lines(args.out, chain(["window_start,count"], rows))
    windows = -(-len(track) // step)  # one per start 0, step, 2 * step, ... below len(track)
    print(f"wrote {args.out} ({windows} windows of {window} samples, step {step})")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML run config")
    p.add_argument("--stride", type=int, default=None, help="snippet step override")
    p.add_argument(
        "--decision-floor", type=float, default=None, dest="decision_floor",
        help="minimum weighted probability for a detection",
    )
    p.add_argument(
        "--threshold", action="append", metavar="CLASS=WEIGHT",
        help="per-class threshold weight override (repeatable)",
    )
    p.add_argument(
        "--nb-denominator", choices=[NB_STANDARD, NB_PAPER_LITERAL],
        default=None, dest="nb_denominator",
        help="Naive-Bayes prior denominator mode",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shapefeat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic datasets")
    synth_sub = p.add_subparsers(dest="kind", required=True)

    for kind, about, generator in (
        ("noise", "iid standard normal series", dataio.gen_random_noise),
        ("walk", "random walk series", dataio.gen_random_walk),
    ):
        ps = synth_sub.add_parser(kind, help=about)
        ps.add_argument("--n", type=int, required=True)
        ps.add_argument("--seed", type=int, default=0)
        ps.add_argument("--sample-rate", type=float, default=None, dest="sample_rate")
        ps.add_argument("--out", required=True)
        ps.set_defaults(func=cmd_synth_series, generator=generator)

    ps = synth_sub.add_parser(
        "two-modality", help="planted shape-class / feature-class fixture"
    )
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--m", type=int, default=64)
    ps.add_argument("--sine-bags", type=int, default=12, dest="sine_bags")
    ps.add_argument("--flat-bags", type=int, default=12, dest="flat_bags")
    ps.add_argument("--surge-bags", type=int, default=8, dest="surge_bags")
    ps.add_argument("--hum-bags", type=int, default=8, dest="hum_bags")
    ps.add_argument("--noise-level", type=float, default=0.05, dest="noise_level")
    ps.add_argument("--sample-rate", type=float, default=100.0, dest="sample_rate")
    ps.add_argument("--out-series", required=True, dest="out_series")
    ps.add_argument("--out-labels", required=True, dest="out_labels")
    ps.set_defaults(func=cmd_synth_two_modality)

    ps = synth_sub.add_parser(
        "gun-experiment", help="4-class instance bundle from a UCR-style file"
    )
    ps.add_argument("--source", required=True, help="UCR-style labeled instance file")
    ps.add_argument("--gun-label", default="1", dest="gun_label")
    ps.add_argument("--nogun-label", default="2", dest="nogun_label")
    ps.add_argument("--n-per-class", type=int, default=20, dest="n_per_class")
    ps.add_argument("--length", type=int, default=150)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_synth_gun_experiment)

    p = sub.add_parser("train", help="fit per-class models")
    p.add_argument("--config", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("classify", help="label a series with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("eval", help="bag-level confusion matrix and metrics")
    p.add_argument("--predictions", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument(
        "--class", action="append", required=True, dest="class_id", metavar="CLASS"
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "compare", help="shape-only / feature-only / combined metrics grid"
    )
    p.add_argument("--model", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("roc", help="threshold-weight sweep for one class")
    p.add_argument("--model", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--class", required=True, dest="class_id", metavar="CLASS")
    p.add_argument(
        "--weights", required=True, help="comma-separated ascending positive weights"
    )
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("freq", help="detection counts per sliding window")
    p.add_argument("--predictions", required=True)
    p.add_argument("--class", required=True, dest="class_id", metavar="CLASS")
    p.add_argument("--window", required=True, help="samples, or e.g. 15min / 0.25s")
    p.add_argument("--step", required=True, help="samples, or e.g. 15min / 0.25s")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_freq)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DataError) else 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
