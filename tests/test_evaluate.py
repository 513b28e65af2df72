import importlib
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from shapefeat import cli, evaluate, model, profiles
from shapefeat.core import (
    COMPLEXITY,
    SHAPE,
    SLIDING_MEAN,
    SLIDING_STD,
    ClassifierConfig,
    ConfusionMatrix,
    DataError,
    FeatureSpec,
    LabelTrack,
    ModelError,
    Region,
    TimeSeries,
)
from shapefeat.data import (
    TwoModalityParams,
    gen_random_noise,
    gen_two_modality_dataset,
    load_labels,
    load_model,
    load_series,
    noise_walk_instances,
    normals,
    save_labels,
    save_model,
    save_series,
    uniforms,
)
from shapefeat.evaluate import (
    COMPLEXITY_DIFF,
    ZNORM_ED,
    RocPoint,
    compare_variants,
    detection_frequency,
    loocv_1nn,
    metrics,
    mil_confusion,
    nearest_neighbor_predictions,
    oracle_confusion,
    roc_sweep,
)
from shapefeat.model import (
    ClassSpec,
    PredictionTrack,
    class_probabilities,
    classify,
    sweep,
    train,
)
from shapefeat.profiles import znormalize


def track_from(labels_by_position, class_ids, m=4):
    codes = np.full(len(labels_by_position), -1, dtype=np.int32)
    for i, cls in enumerate(labels_by_position):
        if cls is not None:
            codes[i] = class_ids.index(cls)
    return sparse_track(codes, class_ids, m)


def sparse_track(codes, class_ids, m):
    """The PredictionTrack holding the detections of dense `codes` (-1 = Other)."""
    positions = np.flatnonzero(codes >= 0)
    return PredictionTrack(
        class_ids=tuple(class_ids),
        positions=positions,
        label_codes=codes[positions],
        scores=np.zeros(positions.size),
        m=m,
        series_length=len(codes) + m - 1,
    )


def bags_from(regions, length):
    return LabelTrack(series_length=length, regions=tuple(regions))


class TestMilConfusion:
    def test_multiple_hits_count_once(self):
        track = track_from([None, "a", "a", "a", None, None, None], ["a"])
        bags = bags_from([Region(0, 6, "a")], track.series_length)
        cm = mil_confusion(track, bags, "a")
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (1, 0, 0, 0)

    def test_empty_bag_is_false_negative(self):
        track = track_from([None] * 7, ["a"])
        bags = bags_from([Region(0, 6, "a")], track.series_length)
        cm = mil_confusion(track, bags, "a")
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 0, 1, 0)

    def test_stray_hit_in_other_bag(self):
        track = track_from([None, None, "a", None, None, None, None], ["a"])
        bags = bags_from([Region(0, 6, "b")], track.series_length)
        assert mil_confusion(track, bags, "a").fp == 1
        clean = track_from([None] * 7, ["a"])
        assert mil_confusion(clean, bags, "a").tn == 1

    def test_gap_detections_ignored(self):
        track = track_from(["a", None, None, "a", None, None, None], ["a"])
        bags = bags_from([Region(1, 3, "b")], track.series_length)
        cm = mil_confusion(track, bags, "a")
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (0, 0, 0, 1)

    def test_length_mismatch(self):
        track = track_from([None] * 7, ["a"])
        bags = bags_from([Region(0, 6, "a")], 999)
        with pytest.raises(DataError, match="labels one of length 999"):
            mil_confusion(track, bags, "a")

    def test_matches_brute_force_on_random_fixtures(self):
        for trial in range(300):
            u = uniforms(trial + 1, 40)
            length = 10 + int(u[0] * 40)
            m = 3
            n_classes = 2
            class_ids = ["a", "b"]
            codes = np.full(length, -1, dtype=np.int32)
            for i in range(length):
                r = u[(i % 30) + 5]
                if r < 0.25:
                    codes[i] = 0
                elif r < 0.4:
                    codes[i] = 1
            track = sparse_track(codes, class_ids, m)
            regions = []
            pos = 0
            bag_idx = 0
            while pos < length + m - 1 and bag_idx < 10:
                width = 1 + int(u[bag_idx] * 8)
                end = min(pos + width, length + m - 1)
                if end <= pos:
                    break
                cls = class_ids[int(u[bag_idx + 10] * 2) % 2]
                regions.append(Region(pos, end, cls))
                pos = end + 1 + int(u[bag_idx + 20] * 4)
                bag_idx += 1
            bags = bags_from(regions, length + m - 1)
            for cls in class_ids:
                cm = mil_confusion(track, bags, cls)
                # Brute-force oracle: scan every bag and every position.
                tp = fp = fn = tn = 0
                for r in regions:
                    hit = any(
                        0 <= p < length and codes[p] == class_ids.index(cls)
                        for p in range(r.start, r.end)
                    )
                    if r.class_id == cls:
                        tp, fn = tp + hit, fn + (not hit)
                    else:
                        fp, tn = fp + hit, tn + (not hit)
                assert (cm.tp, cm.fp, cm.fn, cm.tn) == (tp, fp, fn, tn)


class TestMetrics:
    def test_walking_row(self):
        precision, recall, accuracy = metrics(ConfusionMatrix(tp=2, fp=1, fn=0, tn=2))
        assert precision == pytest.approx(2 / 3)
        assert recall == 1.0
        assert accuracy == pytest.approx(0.8)

    def test_perfect_row(self):
        assert metrics(ConfusionMatrix(tp=3, fp=0, fn=0, tn=73)) == (1.0, 1.0, 1.0)

    def test_zero_over_zero_conventions(self):
        precision, recall, accuracy = metrics(ConfusionMatrix(tp=0, fp=0, fn=5, tn=0))
        assert precision == 1.0
        assert recall == 0.0
        assert accuracy == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(DataError, match="confusion matrix holds no bags"):
            metrics(ConfusionMatrix())


class TestRocSweep:
    def setup_models(self):
        bundle = gen_two_modality_dataset(
            TwoModalityParams(n_sine=6, n_flat=6, n_surge=3, n_hum=3), 2
        )
        models = train(
            bundle.series,
            bundle.labels,
            [
                ClassSpec("sine", 64, 64,
                          (FeatureSpec(kind="shape"), FeatureSpec(kind="sliding_std")),
                          prior=0.5),
                ClassSpec("flat", 64, 64,
                          (FeatureSpec(kind="shape"), FeatureSpec(kind="sliding_std")),
                          prior=0.5),
            ],
        )
        return bundle, models

    def test_single_weight_matches_direct_call(self):
        bundle, models = self.setup_models()
        cfg = ClassifierConfig()
        (point,) = roc_sweep(models, bundle.series, bundle.labels, cfg, "sine", [1.0])
        track = classify(models, bundle.series, cfg.replace_threshold("sine", 1.0))
        cm = mil_confusion(track, bundle.labels, "sine")
        assert (point.tp, point.fp, point.fn, point.tn) == (cm.tp, cm.fp, cm.fn, cm.tn)

    def test_one_point_per_weight(self):
        bundle, models = self.setup_models()
        weights = [0.25, 0.5, 1.0, 2.0, 4.0]
        points = roc_sweep(
            models, bundle.series, bundle.labels, ClassifierConfig(), "sine", weights
        )
        assert [p.threshold_weight for p in points] == weights

    def test_weights_validated(self):
        bundle, models = self.setup_models()
        with pytest.raises(DataError, match="weights must be sorted ascending"):
            roc_sweep(models, bundle.series, bundle.labels, ClassifierConfig(), "sine", [2.0, 1.0])
        with pytest.raises(DataError, match="weights must be positive, got -1.0"):
            roc_sweep(models, bundle.series, bundle.labels, ClassifierConfig(), "sine", [-1.0])

    def test_class_without_a_model(self, monkeypatch):
        bundle, models = self.setup_models()
        # Rejected before the scoring pass, where 0/0 would read as 1.0.
        monkeypatch.setattr(evaluate, "score_blocks", None)
        with pytest.raises(ModelError, match="no model for class 'nosuch'"):
            roc_sweep(models, bundle.series, bundle.labels, ClassifierConfig(), "nosuch",
                      [1.0, 2.0])

    def test_sweep_extremes_and_best_f1(self):
        from shapefeat.data import TwoModalityParams, gen_two_modality_dataset
        from shapefeat.model import ClassSpec, train as fit

        params = TwoModalityParams(n_sine=8, n_flat=8, n_surge=4, n_hum=4)
        train_b = gen_two_modality_dataset(params, 8)
        test_b = gen_two_modality_dataset(params, 10_008)
        specs = [
            ClassSpec("sine", 64, 64,
                      (FeatureSpec(kind="shape"), FeatureSpec(kind="sliding_std")),
                      prior=0.5),
            ClassSpec("flat", 64, 64,
                      (FeatureSpec(kind="shape"), FeatureSpec(kind="sliding_std")),
                      prior=0.5),
        ]
        models = fit(train_b.series, train_b.labels, specs)
        points = roc_sweep(
            models, test_b.series, test_b.labels, ClassifierConfig(), "sine",
            [0.05, 0.25, 0.5, 1.0, 2.0, 4.0],
        )
        # Vanishing weight pushes every score under the decision floor.
        assert points[0].tp == 0
        f1 = [
            (2 * p.precision * p.recall / (p.precision + p.recall)
             if p.precision + p.recall else 0.0)
            for p in points
        ]
        best = points[int(np.argmax(f1))]
        assert best.recall == 1.0


FOUR_CLASS = {
    "sine": (SHAPE, COMPLEXITY, SLIDING_STD),
    "flat": (SHAPE, SLIDING_MEAN, SLIDING_STD),
    "surge": (SHAPE, SLIDING_STD),
    "hum": (COMPLEXITY, SLIDING_STD),
}
class TestCompareVariants:
    def test_each_variant_reads_intact_scores(self):
        # The three tables of one pass equal three passes of one table each:
        # a table that wrote over the block's local probabilities would leave
        # the next variant other values.
        _, models = TestRocSweep().setup_models()
        test = gen_two_modality_dataset(TwoModalityParams(n_sine=6, n_flat=6, n_surge=3, n_hum=3), 7)
        cfg = ClassifierConfig()
        rows = compare_variants(models, test.series, test.labels, cfg)
        for variant, keep in [("shape", lambda f: f.kind == SHAPE),
                              ("feature", lambda f: f.kind != SHAPE), ("combined", None)]:
            track = sweep(models, test.series, *class_probabilities(models, test.series, cfg, keep), cfg)
            expected = [mil_confusion(track, test.labels, mo.class_id) for mo in models]
            assert [cm for name, _, cm, *_ in rows if name == variant] == expected


COUNTED = (
    "model.score_blocks",
    "profiles.profile_blocks",
    "profiles.profile_table",
    "profiles.feature_profiles",
    "profiles.sliding_stats",
    "profiles.series_spectrum",
    "profiles.distance_profile_mass",
    "model.compute_probability",
    "model.compute_distributions",
    "model._check_models",
)


class TestScoreOnce:
    """classify, compare and roc score the series once, however many variants
    or weights; train builds one profile pass over every class."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("score-once")
        params = TwoModalityParams(m=48, n_sine=6, n_flat=6, n_surge=4, n_hum=4)
        train_b = gen_two_modality_dataset(params, 5)
        test_b = gen_two_modality_dataset(params, 10_005)
        specs = [
            ClassSpec(name, 48, 47, tuple(FeatureSpec(kind=k) for k in kinds), prior=0.5)
            for name, kinds in FOUR_CLASS.items()
        ]
        save_model(train(train_b.series, train_b.labels, specs), str(root / "model.sfcm"))
        save_series(train_b.series, str(root / "train.txt"))
        save_labels(train_b.labels, str(root / "train.csv"))
        save_series(test_b.series, str(root / "test.txt"))
        # The test series repeated past two profile_table blocks.
        reps = -(-(2 * profiles.BLOCK + 1) // len(test_b.series))
        save_series(TimeSeries(values=np.tile(test_b.series.values, reps)), str(root / "long.txt"))
        length = len(test_b.series)
        save_labels(LabelTrack(reps * length, [
            Region(r.start + k * length, r.end + k * length, r.class_id)
            for k in range(reps) for r in test_b.labels.regions
        ]), str(root / "long.csv"))
        save_labels(test_b.labels, str(root / "test.csv"))
        feature_specs = [replace(spec, features=tuple(f for f in spec.features if f.kind != SHAPE))
                         for spec in specs]
        save_model(train(train_b.series, train_b.labels, feature_specs),
                   str(root / "features.sfcm"))
        (root / "config.yaml").write_text("classes:\n" + "".join(
            f"  - {{name: {name}, m: 48, exclusion_zone: 47, prior: 0.5, features: [{', '.join(kinds)}]}}\n"
            for name, kinds in FOUR_CLASS.items()
        ))
        return root

    @staticmethod
    def count_calls(monkeypatch):
        """Wrap each counted function at every shapefeat module attribute bound to it."""
        counts = Counter()
        for name in COUNTED:
            module, attr = name.split(".")
            original = getattr(importlib.import_module(f"shapefeat.{module}"), attr)

            def wrapper(*args, _name=name, _fn=original, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            for mod in (profiles, model, evaluate, cli):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapper)
        return counts

    @staticmethod
    def pass_cuts(series):
        """(blocks, runs of LOOKUP positions in them) of a pass over the
        series file at m = 48."""
        windows = len(load_series(series)) - 48 + 1
        step = profiles.BLOCK - 48 + 1
        starts = range(0, windows, step)
        return len(starts), sum(-(-min(step, windows - lo) // model.LOOKUP) for lo in starts)

    @pytest.mark.parametrize(
        "command",
        [
            ["compare", "--model", "@model.sfcm", "--series", "@test.txt", "--labels", "@test.csv"],
            ["roc", "--class", "sine", "--weights", "0.5,1,2,4,8", "--model", "@model.sfcm",
             "--series", "@test.txt", "--labels", "@test.csv"],
            ["roc", "--class", "hum", "--weights", "0.5,2", "--model", "@model.sfcm",
             "--series", "@test.txt", "--labels", "@test.csv"],
            ["classify", "--model", "@model.sfcm", "--series", "@test.txt"],
            ["train", "--config", "@config.yaml", "--series", "@train.txt", "--labels", "@train.csv"],
            ["classify", "--model", "@model.sfcm", "--series", "@long.txt"],
        ],
    )
    def test_one_scoring_pass(self, files, monkeypatch, tmp_path, command):
        counts = self.count_calls(monkeypatch)
        argv = [str(files / a[1:]) if a.startswith("@") else a for a in command]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
        # One pass, whose blocks of BLOCK samples (m = 48) each build one
        # set of profiles.
        blocks, runs = self.pass_cuts(argv[argv.index("--series") + 1])
        assert (blocks > 1) == (command[-1] == "@long.txt")
        one_pass = {
            "model._check_models": 1,
            "profiles.profile_blocks": 1,
            "profiles.feature_profiles": blocks,
            "profiles.sliding_stats": blocks,
            "profiles.series_spectrum": blocks,
            "profiles.distance_profile_mass": 3 * blocks,
        }
        if command[0] == "train":
            # One table of all 10 locals of the 4 classes, not one per class.
            assert counts == {**one_pass, "profiles.profile_table": 1,
                              "model.compute_distributions": 1}
        else:
            # One lookup per local and run of a block.
            assert counts == {**one_pass, "model.score_blocks": 1,
                              "model.compute_probability": 10 * runs}

    @pytest.mark.parametrize("series", ["test.txt", "long.txt"])
    def test_no_spectrum_without_shape_features(self, files, monkeypatch, tmp_path, series):
        counts = self.count_calls(monkeypatch)
        argv = ["classify", "--model", str(files / "features.sfcm"),
                "--series", str(files / series), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        blocks, runs = self.pass_cuts(str(files / series))
        # The 7 non-shape locals of the 4 classes share each block's stats.
        assert counts == {"model._check_models": 1, "profiles.profile_blocks": 1,
                          "profiles.feature_profiles": blocks, "profiles.sliding_stats": blocks,
                          "model.score_blocks": 1, "model.compute_probability": 7 * runs}

    @pytest.mark.parametrize("cfg", [
        ClassifierConfig(),
        ClassifierConfig(thresholds={"sine": 1.3, "hum": 0.8}, stride=7),
    ])
    def test_blocks_sweep_as_one_whole_table(self, files, cfg):
        # Each sweep of compare and roc, fed the blocks of one pass, finds
        # what one whole-table block gives.
        models = load_model(str(files / "model.sfcm"))
        series = load_series(str(files / "long.txt"))
        bags = load_labels(str(files / "long.csv"), len(series))
        expected = []
        for name, keep in [("shape", lambda f: f.kind == SHAPE),
                           ("feature", lambda f: f.kind != SHAPE), ("combined", None)]:
            track = sweep(models, series, *class_probabilities(models, series, cfg, keep), cfg)
            for mo in models:
                cm = mil_confusion(track, bags, mo.class_id)
                expected.append((name, mo.class_id, cm, *metrics(cm)))
        assert any(row[2].tp for row in expected)
        assert compare_variants(models, series, bags, cfg) == expected
        weights = [0.5, 1.0, 2.0, 8.0]
        ids, table = class_probabilities(models, series, cfg.replace_threshold("hum", 1.0))
        base = table[ids.index("hum")].copy()
        expected = []
        for w in weights:
            table[ids.index("hum")] = base * w
            cm = mil_confusion(sweep(models, series, ids, table, cfg), bags, "hum")
            expected.append(RocPoint(w, *metrics(cm)[:2], cm.tp, cm.fp, cm.fn, cm.tn))
        assert roc_sweep(models, series, bags, cfg, "hum", weights) == expected
        assert len({p.tp for p in expected}) > 1


class TestLoocv:
    def test_separated_blobs_in_complexity(self):
        instances = []
        for i in range(20):
            instances.append((gen_random_noise(150, i).values, "noisy"))
        for i in range(20):
            smooth = np.sin(np.linspace(0, 4 * np.pi, 150)) + 0.05 * normals(i + 900, 150)
            instances.append((smooth, "smooth"))
        cm = loocv_1nn(instances, COMPLEXITY_DIFF)
        assert cm.cell("noisy", "noisy") == 20
        assert cm.cell("smooth", "smooth") == 20
        assert cm.error_rate() == 0.0

    def test_permutation_invariance(self):
        instances = [
            (normals(i + 1, 80), "a" if i % 2 else "b") for i in range(30)
        ]
        cm = loocv_1nn(instances, ZNORM_ED)
        shuffled = [instances[(i * 7) % 30] for i in range(30)]
        cm2 = loocv_1nn(shuffled, ZNORM_ED)
        for actual in ("a", "b"):
            for predicted in ("a", "b"):
                assert cm.cell(actual, predicted) == cm2.cell(actual, predicted)

    def test_too_few(self):
        with pytest.raises(DataError, match="need at least two instances"):
            loocv_1nn([(np.ones(10), "a")])

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="instances must share one length"):
            loocv_1nn([(np.ones(10), "a"), (np.ones(12), "b")])

    @staticmethod
    def brute_force_predictions(instances, metric):
        """Nearest other instance by direct pairwise distance, ties to the lower index."""
        z = [znormalize(np.asarray(values, dtype=np.float64)) for values, _ in instances]
        ce = [float(np.linalg.norm(np.diff(row))) for row in z]
        preds = []
        for i in range(len(instances)):
            best, best_j = np.inf, None
            for j in range(len(instances)):
                if j == i:
                    continue
                if metric == ZNORM_ED:
                    d = float(np.linalg.norm(z[i] - z[j]))
                else:
                    d = abs(ce[i] - ce[j])
                if d < best:
                    best, best_j = d, j
            preds.append(instances[best_j][1])
        return preds

    @pytest.mark.parametrize("metric", [ZNORM_ED, COMPLEXITY_DIFF])
    def test_matches_brute_force_on_noise_walk_sets(self, metric):
        for seed in range(100):
            instances = noise_walk_instances(seed=seed)
            assert nearest_neighbor_predictions(instances, metric) == (
                self.brute_force_predictions(instances, metric)
            ), f"seed {seed}"


class TestOracle:
    def test_perfect_first_predictor(self):
        truth = ["a", "b", "a"]
        assert oracle_confusion(truth, ["b", "a", "b"], truth) == 0.0

    def test_complementary_errors(self):
        truth = ["a", "b"]
        pred_a = ["a", "x"]
        pred_b = ["x", "b"]
        assert oracle_confusion(pred_a, pred_b, truth) == 0.0

    def test_counts_joint_errors_only(self):
        truth = ["a", "b", "c", "d"]
        pred_a = ["x", "b", "x", "x"]
        pred_b = ["x", "x", "c", "x"]
        assert oracle_confusion(pred_a, pred_b, truth) == pytest.approx(0.5)

    def test_never_worse_than_either(self):
        for seed in range(20):
            u = uniforms(seed, 120)
            truth = ["a" if v < 0.5 else "b" for v in u[:40]]
            pa = ["a" if v < 0.5 else "b" for v in u[40:80]]
            pb = ["a" if v < 0.5 else "b" for v in u[80:]]
            err_a = sum(x != t for x, t in zip(pa, truth)) / 40
            err_b = sum(x != t for x, t in zip(pb, truth)) / 40
            assert oracle_confusion(pa, pb, truth) <= min(err_a, err_b)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="prediction and truth lengths differ"):
            oracle_confusion(["a"], ["a", "b"], ["a", "b"])


class TestDetectionFrequency:
    def test_no_detections(self):
        track = track_from([None] * 20, ["a"])
        series = detection_frequency(track, "a", window=5, step=5)
        assert all(count == 0 for _, count in series)

    def test_single_detection_covered_windows(self):
        positions = [None] * 20
        positions[7] = "a"
        track = track_from(positions, ["a"])
        series = detection_frequency(track, "a", window=5, step=1)
        for start, count in series:
            assert count == (1 if start <= 7 < start + 5 else 0)

    def test_partition_sums_to_total(self):
        positions = [None] * 50
        for p in (3, 9, 22, 22 + 1, 41):
            positions[p] = "a"
        track = track_from(positions, ["a"])
        series = detection_frequency(track, "a", window=7, step=7)
        assert sum(count for _, count in series) == 5

    def test_matches_per_window_count_on_random_tracks(self):
        for trial in range(300):
            u = uniforms(trial + 7000, 200)
            length = 1 + int(u[0] * 150)
            draws = u[10 : 10 + length]
            labels = ["a" if v < 0.2 else ("b" if v < 0.3 else None) for v in draws]
            track = track_from(labels, ["a", "b"])
            window = 1 + int(u[1] * 1.5 * length)
            step = 1 + int(u[2] * 1.5 * length)
            for cls in ("a", "b", "c"):
                # Reference: count the class's positions in every window directly.
                expected = [
                    (start, sum(lab == cls for lab in labels[start : start + window]))
                    for start in range(0, length, step)
                ]
                assert list(detection_frequency(track, cls, window, step)) == expected
        track = track_from(["a", None, "a"], ["a"])
        assert list(detection_frequency(track, "a", 10**30, 10**30)) == [(0, 2)]

    def test_bad_params(self):
        track = track_from([None] * 5, ["a"])
        with pytest.raises(DataError, match="window and step must be >= 1"):
            detection_frequency(track, "a", window=0, step=1)
