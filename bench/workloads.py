"""Workloads: fixtures made from a seed, the timed CLI commands, their checks.

All fixtures come from the two-modality generator at m=100 with five sine
cycles per window and block lengths on a 4-sample grid, the layout of
acceptance criterion 9. Every class has prior 0.5 and exclusion zone 99.
"""
from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from shapefeat import data as dataio
from shapefeat.cli import load_run_config
from shapefeat.core import ShapefeatError
from shapefeat.model import train

from spans import fft_length, prototype_candidates

M = 100
EXCLUSION_ZONE = 99
COMMON = dict(m=M, sine_cycles=5.0, align=4)
ROC_WEIGHTS = "0.25,0.5,0.75,1,1.5,2,3,4"

TWO_CLASS = {
    "sine": ("shape", "sliding_std"),
    "flat": ("shape", "sliding_std"),
}
# Together the four classes use every feature kind.
FOUR_CLASS = {
    "sine": ("shape", "complexity", "sliding_std"),
    "flat": ("shape", "sliding_mean", "sliding_std"),
    "surge": ("shape", "sliding_std"),
    "hum": ("complexity", "sliding_std"),
}

# Bag counts per kind and block lengths (in units of m) of each fixture.
# Series lengths keep clear of powers of two, where the MASS FFT size doubles.
# Bags of 2-3 m (the generator default) leave every bag a medoid window;
# the acceptance-9 training layout (1.6-2.0 m) leaves a class none on about
# a third of seeds, and training then fails.
DETECT_TRAIN = dict(n_sine=120, n_flat=120, n_surge=60, n_hum=60)  # ~160k points
# The acceptance-9 test layout at ~1/10 scale (~0.9M points).
DETECT_TEST = dict(n_sine=260, n_flat=260, n_surge=150, n_hum=150, region_len=(8.0, 10.0))
# ~180k points; ~300 medoid candidates per class.
FIT_TRAIN = dict(n_sine=120, n_flat=120, n_surge=60, n_hum=60, region_len=(2.5, 3.5))
# Held-out series on which the freshly trained model must find its bags.
FIT_CHECK = dict(n_sine=100, n_flat=100, n_surge=60, n_hum=60, region_len=(8.0, 10.0))
RESCORE_TRAIN = dict(n_sine=60, n_flat=60, n_surge=60, n_hum=60)  # ~108k points
RESCORE_TEST = dict(n_sine=200, n_flat=200, n_surge=200, n_hum=200)  # ~360k points


def config_text(classes: Dict[str, Tuple[str, ...]]) -> str:
    lines = ["decision_floor: 0.5", "nb_denominator: standard", "thresholds:"]
    lines += [f"  {name}: 1.0" for name in classes]
    lines.append("classes:")
    for name, features in classes.items():
        lines += [
            f"  - name: {name}",
            f"    m: {M}",
            f"    exclusion_zone: {EXCLUSION_ZONE}",
            "    prior: 0.5",
            f"    features: [{', '.join(features)}]",
        ]
    return "\n".join(lines) + "\n"


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


@dataclass
class Fixture:
    workdir: Path
    files: Dict[str, Path] = field(default_factory=dict)
    series: Dict[str, object] = field(default_factory=dict)
    labels: Dict[str, object] = field(default_factory=dict)
    lengths: Dict[str, int] = field(default_factory=dict)

    def write_series(self, tag: str, layout: dict, seed: int) -> None:
        bundle = dataio.gen_two_modality_dataset(
            dataio.TwoModalityParams(**layout, **COMMON), seed
        )
        self.files[tag] = self.workdir / f"{tag}.txt"
        self.files[f"{tag}_labels"] = self.workdir / f"{tag}-labels.csv"
        dataio.save_series(bundle.series, str(self.files[tag]))
        dataio.save_labels(bundle.labels, str(self.files[f"{tag}_labels"]))
        self.series[tag] = bundle.series
        self.labels[tag] = bundle.labels
        self.lengths[tag] = len(bundle.series)

    def write_config(self, classes: Dict[str, Tuple[str, ...]]) -> None:
        self.files["config"] = self.workdir / "config.yaml"
        self.files["config"].write_text(config_text(classes))

    def train_model(self, tag: str) -> None:
        """The set-up model, trained in-process on the generated series."""
        _, specs, _ = load_run_config(str(self.files["config"]))
        self.files["model"] = self.workdir / "model.sfcm"
        models = train(self.series[tag], self.labels[tag], specs)
        dataio.save_model(models, str(self.files["model"]))

    def digest(self) -> Dict[str, str]:
        return {tag: sha256(path) for tag, path in sorted(self.files.items())}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `metric` names its time, `points` the series points it reads."""

    metric: str
    argv: Tuple[str, ...]
    out: Path
    points: int


class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name = ""
    classes: Dict[str, Tuple[str, ...]] = {}
    timed = ""  # the fixture series the timed commands read
    trained = ""  # the fixture series the model is trained on

    def setup(self, workdir: Path, seed: int) -> Fixture:
        raise NotImplementedError

    def commands(self, fx: Fixture, round_: int) -> List[Command]:
        raise NotImplementedError

    def check_commands(self, fx: Fixture, first: List[Command]) -> List[Command]:
        """Untimed commands that check the first round's outputs."""
        return []

    def recalls(self, first: List[Command], checks: List[Command]) -> Tuple[float, Optional[str]]:
        """Mean bag recall over the model's classes, and what is wrong, if anything."""
        raise NotImplementedError

    def row(self, fx: Fixture, seed: int) -> dict:
        """Who-what-where of a run, recorded beside its metrics."""
        timed = fx.labels[self.timed]
        trained = fx.labels[self.trained]
        n = fx.lengths[self.timed]
        return {
            "workload": self.name,
            "seed": seed,
            "n": n,
            "train_n": fx.lengths[self.trained],
            "m": M,
            "exclusion_zone": EXCLUSION_ZONE,
            "class_features": {c: list(f) for c, f in self.classes.items()},
            "bags_per_class": {
                c: len(timed.class_regions(c)) for c in ("sine", "flat", "surge", "hum")
            },
            "train_bags_per_class": {
                c: len(trained.class_regions(c)) for c in ("sine", "flat", "surge", "hum")
            },
            "medoid_candidates_per_class": {
                c: prototype_candidates(trained, c, M)
                for c, f in self.classes.items()
                if "shape" in f
            },
            "mass_fft_length": fft_length(n),
        }


def _eval_recalls(report: Path) -> Dict[str, float]:
    with open(report, newline="") as fh:
        return {row["class"]: float(row["recall"]) for row in csv.DictReader(fh)}


def check_output(cmd: Command, classes) -> Optional[str]:
    """Parse a command's output; return what is wrong with it, or None."""
    try:
        if cmd.metric == "train_s":
            models = dataio.load_model(str(cmd.out))
            ids = [mo.class_id for mo in models]
            if ids != list(classes):
                return f"model classes {ids}, expected {list(classes)}"
        elif "classify" in cmd.metric:
            track = dataio.load_predictions(str(cmd.out))
            if track.series_length != cmd.points:
                return f"predictions cover {track.series_length} points, expected {cmd.points}"
            if not track.detections():
                return "no detections"
        else:
            with open(cmd.out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            expected = 3 * len(classes) if cmd.metric == "compare_s" else len(ROC_WEIGHTS.split(","))
            if len(rows) != expected:
                return f"{len(rows)} report rows, expected {expected}"
            for row in rows:
                for key in ("precision", "recall"):
                    if not 0.0 <= float(row[key]) <= 1.0:
                        return f"{key} {row[key]} outside [0, 1]"
    except (OSError, ValueError, KeyError, ShapefeatError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _classify(fx: Fixture, model: Path, series: str, stride: int, out: Path, metric: str) -> Command:
    return Command(
        metric,
        (
            "classify", "--model", str(model),
            "--series", str(fx.files[series]),
            "--config", str(fx.files["config"]),
            "--stride", str(stride), "--out", str(out),
        ),
        out,
        fx.lengths[series],
    )


def _eval(fx: Fixture, predictions: Path, series: str, classes) -> Command:
    out = predictions.with_suffix(".eval.csv")
    argv = ["eval", "--predictions", str(predictions), "--labels", str(fx.files[f"{series}_labels"])]
    for name in classes:
        argv += ["--class", name]
    return Command("eval", (*argv, "--out", str(out)), out, 0)


class Detect(Workload):
    name = "detect"
    classes = TWO_CLASS
    timed = "test"
    trained = "train"

    def setup(self, workdir: Path, seed: int) -> Fixture:
        fx = Fixture(workdir)
        fx.write_config(self.classes)
        fx.write_series("train", DETECT_TRAIN, 3 * seed)
        fx.write_series("test", DETECT_TEST, 3 * seed + 1)
        fx.train_model("train")
        return fx

    def commands(self, fx: Fixture, round_: int) -> List[Command]:
        return [
            _classify(fx, fx.files["model"], "test", 1, fx.workdir / f"pred-s1-{round_}.csv", "classify_s"),
            _classify(fx, fx.files["model"], "test", 4, fx.workdir / f"pred-s4-{round_}.csv", "classify_stride4_s"),
        ]

    def check_commands(self, fx: Fixture, first: List[Command]) -> List[Command]:
        return [_eval(fx, cmd.out, "test", self.classes) for cmd in first]

    def recalls(self, first: List[Command], checks: List[Command]) -> Tuple[float, Optional[str]]:
        stride1, stride4 = (_eval_recalls(cmd.out) for cmd in checks)
        problem = None
        if stride1 != stride4:
            problem = f"stride-1 bag recalls {stride1} differ from stride-4 {stride4}"
        return sum(stride1.values()) / len(stride1), problem


class Fit(Workload):
    name = "fit"
    classes = TWO_CLASS
    timed = "train"
    trained = "train"

    def setup(self, workdir: Path, seed: int) -> Fixture:
        fx = Fixture(workdir)
        fx.write_config(self.classes)
        fx.write_series("train", FIT_TRAIN, 3 * seed)
        fx.write_series("check", FIT_CHECK, 3 * seed + 2)
        return fx

    def commands(self, fx: Fixture, round_: int) -> List[Command]:
        out = fx.workdir / f"model-{round_}.sfcm"
        argv = (
            "train", "--config", str(fx.files["config"]),
            "--series", str(fx.files["train"]),
            "--labels", str(fx.files["train_labels"]), "--out", str(out),
        )
        return [Command("train_s", argv, out, fx.lengths["train"])]

    def check_commands(self, fx: Fixture, first: List[Command]) -> List[Command]:
        pred = fx.workdir / "check-pred.csv"
        return [
            _classify(fx, first[0].out, "check", 1, pred, "check_classify"),
            _eval(fx, pred, "check", self.classes),
        ]

    def recalls(self, first: List[Command], checks: List[Command]) -> Tuple[float, Optional[str]]:
        recalls = _eval_recalls(checks[1].out)
        return sum(recalls.values()) / len(recalls), None


class Rescore(Workload):
    name = "rescore"
    classes = FOUR_CLASS
    timed = "test"
    trained = "train"

    def setup(self, workdir: Path, seed: int) -> Fixture:
        fx = Fixture(workdir)
        fx.write_config(self.classes)
        fx.write_series("train", RESCORE_TRAIN, 3 * seed)
        fx.write_series("test", RESCORE_TEST, 3 * seed + 1)
        fx.train_model("train")
        return fx

    def commands(self, fx: Fixture, round_: int) -> List[Command]:
        common = (
            "--model", str(fx.files["model"]),
            "--series", str(fx.files["test"]),
            "--labels", str(fx.files["test_labels"]),
            "--config", str(fx.files["config"]),
        )
        grid = fx.workdir / f"grid-{round_}.csv"
        roc = fx.workdir / f"roc-{round_}.csv"
        n = fx.lengths["test"]
        return [
            Command("compare_s", ("compare", *common, "--out", str(grid)), grid, n),
            Command(
                "roc_s",
                ("roc", *common, "--class", "sine", "--weights", ROC_WEIGHTS, "--out", str(roc)),
                roc,
                n,
            ),
        ]

    def recalls(self, first: List[Command], checks: List[Command]) -> Tuple[float, Optional[str]]:
        with open(first[0].out, newline="") as fh:
            recalls = [float(r["recall"]) for r in csv.DictReader(fh) if r["variant"] == "combined"]
        return sum(recalls) / len(recalls), None


WORKLOADS = {w.name: w for w in (Detect(), Fit(), Rescore())}
