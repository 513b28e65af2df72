import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from shapefeat import data, model
from shapefeat.cli import main
from shapefeat.data import load_predictions, load_series

CONFIG = """\
stride: 1
decision_floor: 0.5
nb_denominator: standard
thresholds:
  sine: 1.0
  flat: 1.0
classes:
  - name: sine
    m: 64
    exclusion_zone: 64
    prior: 0.5
    features: [shape, sliding_std]
  - name: flat
    m: 64
    exclusion_zone: 64
    prior: 0.5
    features: [shape, sliding_std]
"""

SHAPE_ONLY_CONFIG = """\
thresholds:
  sine: 1.0
classes:
  - name: sine
    m: 64
    exclusion_zone: 64
    prior: 0.5
    features: [shape]
"""

SYNTH_ARGS = ["--m", "64", "--sine-bags", "8", "--flat-bags", "8",
              "--surge-bags", "4", "--hum-bags", "4"]


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "shapefeat", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synth fixture (seed 8 train, seed 10008 test) plus a trained model."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.yaml"
    config.write_text(CONFIG)
    code, _, err = run_cli(
        "synth", "two-modality", "--seed", "8", *SYNTH_ARGS,
        "--out-series", str(root / "train.txt"),
        "--out-labels", str(root / "train-labels.csv"),
    )
    assert code == 0, err
    code, _, err = run_cli(
        "synth", "two-modality", "--seed", "10008", *SYNTH_ARGS,
        "--out-series", str(root / "test.txt"),
        "--out-labels", str(root / "test-labels.csv"),
    )
    assert code == 0, err
    code, out, err = run_cli(
        "train", "--config", str(config),
        "--series", str(root / "train.txt"),
        "--labels", str(root / "train-labels.csv"),
        "--out", str(root / "model.sfcm"),
    )
    assert code == 0, err
    assert "prior" in out and "medoid prototype" in out
    return root


class TestHelp:
    @pytest.mark.parametrize(
        "args",
        [
            ["--help"],
            ["synth", "--help"],
            ["synth", "two-modality", "--help"],
            ["train", "--help"],
            ["classify", "--help"],
            ["eval", "--help"],
            ["compare", "--help"],
            ["roc", "--help"],
            ["freq", "--help"],
        ],
    )
    def test_help_exits_zero(self, args):
        code, out, _ = run_cli(*args)
        assert code == 0
        assert "usage" in out.lower()


class TestSynth:
    def test_noise_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run_cli("synth", "noise", "--n", "500", "--seed", "7", "--out", str(a))[0] == 0
        assert run_cli("synth", "noise", "--n", "500", "--seed", "7", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_walk_matches_library(self, tmp_path):
        out = tmp_path / "walk.txt"
        assert run_cli("synth", "walk", "--n", "200", "--seed", "3", "--out", str(out))[0] == 0
        from shapefeat.data import gen_random_walk

        assert np.allclose(load_series(str(out)).values, gen_random_walk(200, 3).values)

    def test_gun_experiment_bundle(self, tmp_path):
        from shapefeat.data import normals

        source = tmp_path / "source.tsv"
        lines = []
        for i in range(25):
            lines.append("1\t" + "\t".join(repr(float(v)) for v in normals(i + 1, 150)))
            lines.append("2\t" + "\t".join(repr(float(v)) for v in normals(i + 500, 150)))
        source.write_text("\n".join(lines) + "\n")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.csv"
            code, stdout, err = run_cli(
                "synth", "gun-experiment", "--source", str(source),
                "--seed", "7", "--out", str(out),
            )
            assert code == 0, err
            assert "80 instances" in stdout
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rows = (tmp_path / "a.csv").read_text().splitlines()
        assert len(rows) == 80
        assert all(len(r.split(",")) == 151 for r in rows)

    def test_two_modality_deterministic(self, tmp_path):
        files = []
        for tag in ("x", "y"):
            s, l = tmp_path / f"{tag}.txt", tmp_path / f"{tag}.csv"
            code, out, _ = run_cli(
                "synth", "two-modality", "--seed", "1",
                "--out-series", str(s), "--out-labels", str(l),
            )
            assert code == 0
            assert "gen_two_modality_dataset(seed=1" in out
            files.append((s.read_bytes(), l.read_bytes()))
        assert files[0] == files[1]


class TestTrain:
    def test_retrain_is_byte_identical(self, workspace, tmp_path):
        out = tmp_path / "model2.sfcm"
        code, _, _ = run_cli(
            "train", "--config", str(workspace / "config.yaml"),
            "--series", str(workspace / "train.txt"),
            "--labels", str(workspace / "train-labels.csv"),
            "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == (workspace / "model.sfcm").read_bytes()

    def test_empty_labels_name_the_class(self, workspace, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run_cli(
            "train", "--config", str(workspace / "config.yaml"),
            "--series", str(workspace / "train.txt"),
            "--labels", str(empty),
            "--out", str(tmp_path / "model.sfcm"),
        )
        assert code == 3
        assert "sine" in err

    def test_whole_float_config_values(self, workspace, tmp_path):
        # 64.0 is a whole number: the model is the one `m: 64` trains.
        config = tmp_path / "config.yaml"
        config.write_text("seed: 3.0\n" + CONFIG.replace("m: 64", "m: 64.0").replace(
            "exclusion_zone: 64", "exclusion_zone: 64.0").replace("stride: 1", "stride: 1.0"))
        out = tmp_path / "model.sfcm"
        code, _, err = run_cli(
            "train", "--config", str(config), "--series", str(workspace / "train.txt"),
            "--labels", str(workspace / "train-labels.csv"), "--out", str(out),
        )
        assert code == 0, err
        assert out.read_bytes() == (workspace / "model.sfcm").read_bytes()

    def test_class_values_in_a_tiny_range(self, tmp_path):
        # Two values one step apart: too narrow for 13 equal-width bins.
        series = tmp_path / "series.txt"
        series.write_text("0.1\n" * 150 + "0.10000000000000003\n" * 50)
        labels = tmp_path / "labels.csv"
        labels.write_text("10,40,a\n")
        config = tmp_path / "config.yaml"
        config.write_text(
            "classes:\n  - name: a\n    m: 8\n    exclusion_zone: 7\n"
            "    features: [sliding_mean]\n"
        )
        out = tmp_path / "model.sfcm"
        code, _, err = run_cli(
            "train", "--config", str(config), "--series", str(series),
            "--labels", str(labels), "--out", str(out),
        )
        assert code == 0, err
        assert out.exists()

    def test_prototype_origin_follows_feature_order(self, workspace, tmp_path):
        # Both shape features are called "shape": only the second has a prototype.
        proto = tmp_path / "p.txt"
        values = load_series(str(workspace / "train.txt")).values[:64].tolist()
        proto.write_text("".join(f"{v!r}\n" for v in values))
        config = tmp_path / "config.yaml"
        config.write_text(SHAPE_ONLY_CONFIG.replace(
            "features: [shape]", f"features: [shape, {{kind: shape, prototype: '{proto}'}}]"))
        code, out, err = run_cli(
            "train", "--config", str(config), "--series", str(workspace / "train.txt"),
            "--labels", str(workspace / "train-labels.csv"), "--out", str(tmp_path / "m.sfcm"),
        )
        assert code == 0, err
        line = next(text for text in out.splitlines() if text.startswith("class sine:"))
        assert re.findall(r"\((\w+) prototype\)", line) == ["medoid", "explicit"]

    def test_a_pipe_trains_the_model_of_its_file(self, workspace, tmp_path):
        # A pipe cannot be read twice: `train` parses it once into an
        # anonymous snapshot, which every pass reads.
        fifo = tmp_path / "train.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes,
                                  args=((workspace / "train.txt").read_bytes(),), daemon=True)
        writer.start()
        out = tmp_path / "model.sfcm"
        code, _, err = run_cli(
            "train", "--config", str(workspace / "config.yaml"), "--series", str(fifo),
            "--labels", str(workspace / "train-labels.csv"), "--out", str(out),
        )
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert code == 0, err
        assert out.read_bytes() == (workspace / "model.sfcm").read_bytes()

    def test_one_text_key_per_train(self, workspace, tmp_path, capsys):
        # The first `train` parses the text and leaves its sidecar; the
        # second hashes the text once, to check that sidecar at the open,
        # and every pass reads the sidecar it holds.
        series = tmp_path / "train.txt"
        series.write_bytes((workspace / "train.txt").read_bytes())
        argv = ["train", "--config", str(workspace / "config.yaml"), "--series", str(series),
                "--labels", str(workspace / "train-labels.csv"), "--out", str(tmp_path / "m.sfcm")]
        assert main(argv) == 0
        with mock.patch.object(data, "_text_key", wraps=data._text_key) as key:
            assert main(argv) == 0, capsys.readouterr().err
        assert key.call_args_list == [mock.call(str(series))]
        assert (tmp_path / "m.sfcm").read_bytes() == (workspace / "model.sfcm").read_bytes()

    @pytest.mark.parametrize("before", ["select_prototype", "compute_distributions"])
    @pytest.mark.parametrize("change", ["one value more", "one digit"])
    @pytest.mark.parametrize("reread", [False, True], ids=["parsed", "sidecar"])
    def test_a_text_rewritten_between_passes(self, workspace, tmp_path, monkeypatch, capsys,
                                             before, change, reread):
        # `train` reads the text once, to open its snapshot; each medoid
        # pass and both profile passes read that snapshot. So a text
        # rewritten between passes, or a sidecar that another read of the
        # new text leaves, trains the model of the text as it was opened.
        series = tmp_path / "train.txt"
        text = (workspace / "train.txt").read_text()
        series.write_text(text)
        rewritten = text + "0.5\n" if change == "one value more" else \
            text[:-2] + ("1" if text[-2] != "1" else "2") + "\n"
        original = getattr(model, before)

        def rewrite_then(*args):
            series.write_text(rewritten)
            if reread:
                load_series(str(series))
            return original(*args)

        monkeypatch.setattr(model, before, rewrite_then)
        out = tmp_path / "model.sfcm"
        code = main(["train", "--config", str(workspace / "config.yaml"), "--series", str(series),
                     "--labels", str(workspace / "train-labels.csv"), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert out.read_bytes() == (workspace / "model.sfcm").read_bytes()


class TestClassify:
    def classify(self, workspace, out, *extra):
        return run_cli(
            "classify", "--model", str(workspace / "model.sfcm"),
            "--series", str(workspace / "test.txt"),
            "--config", str(workspace / "config.yaml"),
            "--out", str(out), *extra,
        )

    def test_detections_inside_every_planted_bag(self, workspace, tmp_path):
        out = tmp_path / "pred.csv"
        code, _, err = self.classify(workspace, out)
        assert code == 0, err
        track = load_predictions(str(out))
        from shapefeat.data import load_labels

        bags = load_labels(str(workspace / "test-labels.csv"), track.series_length)
        hits = {}
        for pos, cls, _ in track.detections():
            for r in bags.regions:
                if r.start <= pos < r.end:
                    hits.setdefault((r.start, r.class_id), set()).add(cls)
        for r in bags.regions:
            got = hits.get((r.start, r.class_id), set())
            if r.class_id in ("sine", "flat"):
                assert r.class_id in got, f"missed {r.class_id} bag at {r.start}"
                assert got == {r.class_id}, f"cross-class hit in {r.class_id} bag"
            else:
                assert got == set(), f"detections inside confuser bag at {r.start}"

    def test_zero_threshold_rejected(self, workspace, tmp_path):
        code, _, err = self.classify(
            workspace, tmp_path / "pred.csv", "--threshold", "sine=0"
        )
        assert code == 2
        assert "must be > 0" in err

    def test_deterministic(self, workspace, tmp_path):
        # The first run parses a fresh copy of the series and leaves its
        # sidecar; the second reads the sidecar.
        series = tmp_path / "test.txt"
        series.write_bytes((workspace / "test.txt").read_bytes())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert self.classify(workspace, a, "--series", str(series))[0] == 0
        assert (tmp_path / ".test.txt.sfsc").exists()
        assert self.classify(workspace, b, "--series", str(series))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_short_series_is_model_error(self, workspace, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("\n".join(str(float(i)) for i in range(10)) + "\n")
        code, _, err = run_cli(
            "classify", "--model", str(workspace / "model.sfcm"),
            "--series", str(short), "--out", str(tmp_path / "pred.csv"),
        )
        # Opening the series reads it to its end, before the length check,
        # so its sidecar stays; no temp file and no output file.
        assert code == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == [".short.txt.sfsc", "short.txt"]


class TestStreamedSeries:
    """classify, compare and roc read the series one block at a time, from
    the snapshot that opening it takes. A fault in its last block, or
    labels that leave it, exit 2 with the fault's line, and leave no
    output file."""

    COMMANDS = {
        "classify": ["classify"],
        "compare": ["compare", "--labels", "@labels"],
        "roc": ["roc", "--labels", "@labels", "--class", "sine", "--weights", "1,2"],
    }

    @staticmethod
    def run(workspace, tmp_path, command, series, labels):
        argv = [str(labels) if a == "@labels" else a for a in TestStreamedSeries.COMMANDS[command]]
        out = tmp_path / "out.csv"
        code, _, err = run_cli(*argv, "--model", str(workspace / "model.sfcm"),
                               "--series", str(series), "--config", str(workspace / "config.yaml"),
                               "--out", str(out))
        assert "Traceback" not in err
        assert not out.exists()
        return code, err

    @pytest.fixture(scope="class")
    def long_series(self, workspace):
        """The test series eight times over: several read blocks."""
        text = (workspace / "test.txt").read_text()
        values = [line for line in text.splitlines() if not line.startswith("#")]
        text += "\n".join(values * 7) + "\n"
        assert len(text) > 3 * (1 << 18)
        return text

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_bad_value_in_the_last_block(self, workspace, tmp_path, long_series, command):
        series = tmp_path / "series.txt"
        series.write_text(long_series + "1.0\nabc\n")
        line = long_series.count("\n") + 2
        code, err = self.run(workspace, tmp_path, command, series, workspace / "test-labels.csv")
        assert code == 2, err
        assert f"line {line}: not a number: 'abc'" in err
        assert [p.name for p in tmp_path.iterdir()] == ["series.txt"]

    @pytest.mark.parametrize("command", ["compare", "roc"])
    def test_labels_past_the_series_end(self, workspace, tmp_path, command):
        n = len(load_series(str(workspace / "test.txt")))
        labels = tmp_path / "labels.csv"
        labels.write_text(f"0,10,sine\n{n - 5},{n + 1},flat\n")
        code, err = self.run(workspace, tmp_path, command, workspace / "test.txt", labels)
        assert code == 2, err
        assert f"line 2: region [{n - 5},{n + 1}) outside [0,{n})" in err

    @pytest.mark.parametrize("command", ["compare", "roc"])
    def test_labels_before_a_series_shorter_than_m(self, workspace, tmp_path, command):
        # The series' length is known once it is open, so the labels are
        # checked before scoring, which refuses a series shorter than m.
        series = tmp_path / "series.txt"
        series.write_text("1.0\n" * 40)
        labels = tmp_path / "labels.csv"
        labels.write_text("0,50,sine\n")
        code, err = self.run(workspace, tmp_path, command, series, labels)
        assert code == 2, err
        assert "line 1: region [0,50) outside [0,40)" in err

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_snapshot_that_cannot_be_written(self, workspace, tmp_path, monkeypatch, capsys,
                                               command):
        # Neither the series' directory nor the temp directory takes the
        # snapshot of a text without a sidecar: a data error, where the
        # values were once held in memory.
        series = tmp_path / "in" / "test.txt"
        series.parent.mkdir()
        series.write_bytes((workspace / "test.txt").read_bytes())
        monkeypatch.setattr(data.tempfile, "mkstemp", mock.Mock(side_effect=PermissionError(13, "no")))
        monkeypatch.setattr(data.tempfile, "TemporaryFile", mock.Mock(side_effect=OSError(28, "full")))
        argv = [str(workspace / "test-labels.csv") if a == "@labels" else a
                for a in self.COMMANDS[command]]
        code = main([*argv, "--model", str(workspace / "model.sfcm"),
                     "--series", str(series),
                     "--config", str(workspace / "config.yaml"), "--out", str(tmp_path / "out.csv")])
        assert code == 2
        assert f"cannot write the snapshot of {series}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.rglob("*")] == ["in", "test.txt"]

    def test_a_late_rate_that_changes(self, workspace, tmp_path):
        series = tmp_path / "series.txt"
        series.write_text((workspace / "test.txt").read_text() + "# sample_rate_hz: 7\n")
        code, err = self.run(workspace, tmp_path, "classify", series, None)
        assert code == 2, err
        assert "after the first value changes the rate in effect, 100.0" in err


class TestScoringConfig:
    """classify, compare and roc take only the config's classifier settings:
    the classes come from the model, so the config's class entries are not
    read. A moved prototype, or a zone in seconds over a series with no
    rate, changes nothing, and no prototype is opened."""

    COMMANDS = {
        "classify": ["classify"],
        "classify-stride-3": ["classify", "--stride", "3"],
        "compare": ["compare", "--labels", "@labels"],
        "roc": ["roc", "--labels", "@labels", "--class", "sine", "--weights", "0.5,1,2"],
    }

    @pytest.fixture(scope="class")
    def configs(self, workspace, tmp_path_factory):
        """settings.yaml (CONFIG without its classes), stale.yaml (those
        settings, one prototype that exists and one that is gone, zones in
        seconds) and no-rate.txt (the test series without its rate)."""
        root = tmp_path_factory.mktemp("scoring-config")
        settings = CONFIG[: CONFIG.index("classes:")]
        (root / "settings.yaml").write_text(settings)
        values = load_series(str(workspace / "train.txt")).values[:64].tolist()
        (root / "proto.txt").write_text("".join(f"{v!r}\n" for v in values))
        (root / "stale.yaml").write_text(settings + "classes:\n" + "".join(
            f"  - {{name: {name}, m: 64, exclusion_zone: '0.5s',"
            f" features: [{{kind: shape, prototype: '{root / proto}'}}, sliding_std]}}\n"
            for name, proto in (("sine", "proto.txt"), ("flat", "gone.txt"))))
        lines = (workspace / "test.txt").read_text().splitlines(keepends=True)
        kept = [line for line in lines if not line.startswith("# sample_rate_hz:")]
        assert len(kept) == len(lines) - 1
        (root / "no-rate.txt").write_text("".join(kept))
        return root

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_outputs_do_not_depend_on_the_classes(self, workspace, configs, tmp_path, capsys,
                                                  command):
        argv = [str(workspace / "test-labels.csv") if a == "@labels" else a
                for a in self.COMMANDS[command]]

        def run(config, series):
            out = tmp_path / f"{config.stem}-{series.stem}.csv"
            code = main([*argv, "--model", str(workspace / "model.sfcm"), "--series", str(series),
                         "--config", str(config), "--out", str(out)])
            assert code == 0, capsys.readouterr().err
            return out.read_bytes()

        test, no_rate = workspace / "test.txt", configs / "no-rate.txt"
        assert run(workspace / "config.yaml", test) == run(configs / "settings.yaml", test)
        assert run(configs / "stale.yaml", no_rate) == run(configs / "settings.yaml", no_rate)
        assert not (configs / ".proto.txt.sfsc").exists()


class TestEval:
    def test_hand_built_fixture(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "# series_length: 103\n# m: 4\n# stride: 1\n# classes: a,b\n"
            "position,class,score\n"
            "5,a,0.9\n"          # inside first a-bag
            "30,a,0.8\n"         # stray inside the b-bag
            "31,a,0.7\n"         # second stray in the same bag counts once
            "95,b,0.6\n"         # gap detection, ignored
        )
        labels = tmp_path / "bags.csv"
        labels.write_text("0,10,a\n20,40,b\n50,60,a\n70,80,b\n")
        out = tmp_path / "report.csv"
        code, stdout, _ = run_cli(
            "eval", "--predictions", str(pred), "--labels", str(labels),
            "--class", "a", "--out", str(out),
        )
        assert code == 0
        # Hand count: a-bags -> tp=1 (pos 5), fn=1 (bag 50); b-bags -> fp=1, tn=1.
        lines = out.read_text().splitlines()
        assert lines[0] == "class,tp,fp,fn,tn,precision,recall,accuracy"
        assert lines[1].startswith("a,1,1,1,1,")
        assert "tp=1 fp=1 fn=1 tn=1" in stdout

    def test_class_the_predictions_do_not_name(self, tmp_path):
        # Zero hits would read as precision, recall and accuracy 1.0 (0/0),
        # so a class outside the `# classes:` header exits 3 before the
        # classes named ahead of it print a line.
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "# series_length: 103\n# m: 4\n# stride: 1\n# classes: a,b\n"
            "position,class,score\n5,a,0.9\n"
        )
        labels = tmp_path / "bags.csv"
        labels.write_text("0,10,a\n20,40,b\n")
        out = tmp_path / "report.csv"
        code, stdout, err = run_cli(
            "eval", "--predictions", str(pred), "--labels", str(labels),
            "--class", "a", "--class", "nosuch", "--out", str(out),
        )
        assert code == 3
        assert "no class 'nosuch' in the predictions' classes 'a,b'" in err
        assert stdout == ""
        assert not out.exists()

    def test_empty_predictions_all_false_negatives(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "# series_length: 103\n# m: 4\n# stride: 1\n# classes: a\n"
            "position,class,score\n"
        )
        labels = tmp_path / "bags.csv"
        labels.write_text("0,10,a\n20,30,a\n40,50,a\n")
        out = tmp_path / "report.csv"
        code, _, _ = run_cli(
            "eval", "--predictions", str(pred), "--labels", str(labels),
            "--class", "a", "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("a,0,0,3,0,")

    def test_rerun_identical_bytes(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "# series_length: 53\n# m: 4\n# stride: 1\n# classes: a\n"
            "position,class,score\n10,a,0.75\n"
        )
        labels = tmp_path / "bags.csv"
        labels.write_text("5,15,a\n")
        outs = []
        for tag in ("r1", "r2"):
            out = tmp_path / f"{tag}.csv"
            assert run_cli(
                "eval", "--predictions", str(pred), "--labels", str(labels),
                "--class", "a", "--out", str(out),
            )[0] == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_huge_series_length_header(self, tmp_path):
        # Predictions hold detections only, so the header's length costs nothing.
        n = 10**14
        pred = tmp_path / "pred.csv"
        pred.write_text(
            f"# series_length: {n}\n# m: 4\n# stride: 1\n# classes: a,b\n"
            "position,class,score\n"
            "5,a,0.9\n"
            f"{n - 50},b,0.8\n"
            f"{n - 4},a,0.7\n"  # the last window start
        )
        labels = tmp_path / "bags.csv"
        labels.write_text(f"0,10,a\n20,30,b\n{n - 60},{n - 40},b\n{n - 10},{n},a\n")
        out = tmp_path / "report.csv"
        code, _, err = run_cli(
            "eval", "--predictions", str(pred), "--labels", str(labels),
            "--class", "a", "--class", "b", "--out", str(out),
        )
        assert code == 0, err
        rows = out.read_text().splitlines()
        assert rows[1].startswith("a,2,0,0,2,")
        assert rows[2].startswith("b,1,0,1,2,")

    def test_failure_leaves_no_output(self, tmp_path):
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "# series_length: 53\n# m: 4\n# stride: 1\n# classes: a\n"
            "position,class,score\n"
        )
        bad = tmp_path / "bags.csv"
        bad.write_text("0,20,a\n10,30,b\n")  # overlap
        out = tmp_path / "report.csv"
        code, _, _ = run_cli(
            "eval", "--predictions", str(pred), "--labels", str(bad),
            "--class", "a", "--out", str(out),
        )
        assert code == 2
        assert not out.exists()


class TestCompare:
    def test_grid_shape_and_dominance(self, workspace, tmp_path):
        out = tmp_path / "grid.csv"
        code, _, err = run_cli(
            "compare", "--model", str(workspace / "model.sfcm"),
            "--series", str(workspace / "test.txt"),
            "--labels", str(workspace / "test-labels.csv"),
            "--config", str(workspace / "config.yaml"),
            "--out", str(out),
        )
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert lines[0] == "variant,class,tp,fp,fn,tn,precision,recall,accuracy"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6  # 3 variants x 2 classes
        acc = {(r[0], r[1]): float(r[8]) for r in rows}
        for cls in ("sine", "flat"):
            assert acc[("combined", cls)] >= max(acc[("shape", cls)], acc[("feature", cls)])

    def test_shape_only_model_degenerates(self, workspace, tmp_path):
        config = tmp_path / "shape-only.yaml"
        config.write_text(SHAPE_ONLY_CONFIG)
        model = tmp_path / "model.sfcm"
        code, _, err = run_cli(
            "train", "--config", str(config),
            "--series", str(workspace / "train.txt"),
            "--labels", str(workspace / "train-labels.csv"),
            "--out", str(model),
        )
        assert code == 0, err
        out = tmp_path / "grid.csv"
        code, _, err = run_cli(
            "compare", "--model", str(model),
            "--series", str(workspace / "test.txt"),
            "--labels", str(workspace / "test-labels.csv"),
            "--config", str(config), "--out", str(out),
        )
        assert code == 0, err
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        by_variant = {r[0]: r[2:] for r in rows if r[1] == "sine"}
        assert by_variant["shape"] == by_variant["combined"]


class TestRoc:
    def test_rows_and_columns(self, workspace, tmp_path):
        out = tmp_path / "roc.csv"
        weights = ",".join(str(w) for w in (0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0, 3.0, 4.0))
        code, _, err = run_cli(
            "roc", "--model", str(workspace / "model.sfcm"),
            "--series", str(workspace / "test.txt"),
            "--labels", str(workspace / "test-labels.csv"),
            "--class", "sine", "--weights", weights,
            "--config", str(workspace / "config.yaml"),
            "--out", str(out),
        )
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert lines[0] == "weight,precision,recall,tp,fp,fn,tn"
        assert len(lines) == 11

    def test_needs_two_weights(self, workspace, tmp_path):
        code, _, _ = run_cli(
            "roc", "--model", str(workspace / "model.sfcm"),
            "--series", str(workspace / "test.txt"),
            "--labels", str(workspace / "test-labels.csv"),
            "--class", "sine", "--weights", "1.0",
            "--out", str(tmp_path / "roc.csv"),
        )
        assert code == 2


class TestFreq:
    def write_predictions(self, path, positions, rate=None):
        lines = ["# series_length: 1003", "# m: 4", "# stride: 1", "# classes: a"]
        if rate is not None:
            lines.append(f"# sample_rate_hz: {rate}")
        lines.append("position,class,score")
        lines.extend(f"{p},a,0.9" for p in positions)
        Path(path).write_text("\n".join(lines) + "\n")

    def test_partition_sums(self, tmp_path):
        pred = tmp_path / "pred.csv"
        self.write_predictions(pred, [5, 100, 101, 700])
        out = tmp_path / "freq.csv"
        code, _, _ = run_cli(
            "freq", "--predictions", str(pred), "--class", "a",
            "--window", "100", "--step", "100", "--out", str(out),
        )
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert sum(int(c) for _, c in rows) == 4

    def test_time_units_resolve_with_sample_rate(self, tmp_path):
        pred = tmp_path / "pred.csv"
        self.write_predictions(pred, [10], rate=100.0)
        out = tmp_path / "freq.csv"
        code, stdout, _ = run_cli(
            "freq", "--predictions", str(pred), "--class", "a",
            "--window", "15min", "--step", "15min", "--out", str(out),
        )
        assert code == 0
        assert "windows of 90000 samples" in stdout
        rows = out.read_text().splitlines()[1:]
        assert rows == ["0,1"]

    def test_rows_stream_in_bounded_memory(self, tmp_path, capsys):
        # 200,000 windows. Rows stream out per block of 65,536 windows;
        # one list entry per window peaked at about 40 MB.
        pred = tmp_path / "pred.csv"
        pred.write_text(
            "# series_length: 1000000000003\n# m: 4\n# stride: 1\n# classes: a\n"
            "position,class,score\n5,a,0.9\n999999999999,a,0.8\n"
        )
        out = tmp_path / "freq.csv"
        tracemalloc.start()
        try:
            code = main([
                "freq", "--predictions", str(pred), "--class", "a",
                "--window", "5000000", "--step", "5000000", "--out", str(out),
            ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "200000 windows of 5000000 samples" in capsys.readouterr().out
        rows = out.read_text().splitlines()
        assert len(rows) == 200_001
        assert rows[:3] == ["window_start,count", "0,1", "5000000,0"]
        assert rows[-1] == "999995000000,1"
        assert sum(int(row.split(",")[1]) for row in rows[1:]) == 2
        assert peak < 16 * 2**20

    def test_time_units_without_rate_rejected(self, tmp_path):
        pred = tmp_path / "pred.csv"
        self.write_predictions(pred, [10])
        code, _, err = run_cli(
            "freq", "--predictions", str(pred), "--class", "a",
            "--window", "15min", "--step", "15min",
            "--out", str(tmp_path / "freq.csv"),
        )
        assert code == 2
        assert "sample_rate_hz" in err


class TestErrorPaths:
    def test_unknown_flag_is_usage_error(self):
        code, _, _ = run_cli("classify", "--bogus")
        assert code == 1

    def test_missing_subcommand_is_usage_error(self):
        code, _, _ = run_cli()
        assert code == 1

    def test_missing_file_is_data_error(self, workspace, tmp_path):
        code, _, err = run_cli(
            "classify", "--model", str(workspace / "model.sfcm"),
            "--series", str(tmp_path / "absent.txt"),
            "--out", str(tmp_path / "pred.csv"),
        )
        assert code == 2
        assert "error:" in err

    def test_unknown_config_key_rejected(self, workspace, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text("classes: []\nbogus_key: 1\n")
        code, _, err = run_cli(
            "train", "--config", str(config),
            "--series", str(workspace / "train.txt"),
            "--labels", str(workspace / "train-labels.csv"),
            "--out", str(tmp_path / "m.sfcm"),
        )
        assert code == 2
        assert "bogus_key" in err


def _prediction_file(series_length, m, stride, rate=""):
    rate_line = f"# sample_rate_hz: {rate}\n" if rate else ""
    return (
        f"# series_length: {series_length}\n# m: {m}\n# stride: {stride}\n# classes: a\n"
        f"{rate_line}position,class,score\n"
    )


# Malformed inputs written into the workspace; "@name" in an argv is the
# workspace file of that name.
BAD_INPUT_FILES = {
    "floor.yaml": "decision_floor: abc\n",
    "thresholds.yaml": "thresholds: {sine: abc}\n",
    "classes.yaml": "classes: 5\n",
    "m.yaml": CONFIG.replace("m: 64", "m: sixty", 1),
    "features.yaml": CONFIG.replace("features: [shape, sliding_std]", "features: shape", 1),
    "sliding_sd.yaml": CONFIG.replace("sliding_std", "sliding_sd", 1),
    "m-over-length.csv": _prediction_file(10, 20, 1),
    "m-zero.csv": _prediction_file(10, 0, 1),
    "length-10**30.csv": _prediction_file(10**30, 4, 1),
    "stride-zero.csv": _prediction_file(1003, 4, 0),
    "bad-rate.csv": _prediction_file(1003, 4, 1, rate="abc"),
    "rate-10.csv": _prediction_file(1003, 4, 1, rate="10"),
    "descending.csv": _prediction_file(1003, 4, 1) + "50,a,0.9\n5,a,0.8\n50,a,0.7\n",
    "non-utf8.csv": b"start,end,class\n0,10,a\n\xff\n",
    "repeated-class.csv": _prediction_file(1003, 4, 1).replace("classes: a", "classes: a,a")
    + "5,a,0.9\n",
    "bag.csv": "0,10,a\n",
    "comma-class.yaml": CONFIG.replace("name: sine", "name: 'sine,x'", 1),
    "inf-label.csv": "1,0.5,0.25\ninf,1,2\n",
    "negative-rate.txt": "# name: x\n# sample_rate_hz: -5\n1.0\n2.0\n",
    "nan-label.csv": "1,0.5,0.25\nnan,1,2\n",
    "gun.csv": "1,0.5,0.25\n2,0.5,0.25\n",
    "stride-inf.yaml": CONFIG.replace("stride: 1", "stride: .inf", 1),
    "m-inf.yaml": CONFIG.replace("m: 64", "m: .inf", 1),
    "m-fraction.yaml": CONFIG.replace("m: 64", "m: 64.9", 1),
    **{f"m{m}.yaml": CONFIG.replace("m: 64", f"m: {m}") for m in (0, -5, -10**12)},
    "stride-fraction.yaml": CONFIG.replace("stride: 1", "stride: 1.9", 1),
    "seed-fraction.yaml": "seed: 2.5\n" + CONFIG,
    "zone-bool.yaml": CONFIG.replace("exclusion_zone: 64", "exclusion_zone: true", 1),
    "zone-negative.yaml": CONFIG.replace("exclusion_zone: 64", "exclusion_zone: -5", 1),
    "proto-3.txt": "1.0\n2.0\n3.0\n",
    "mixed-m.yaml": "m: 48".join(CONFIG.rsplit("m: 64", 1)),
    "duplicate-class.yaml": CONFIG.replace("name: flat", "name: sine", 1),
    "shape-only.yaml": SHAPE_ONLY_CONFIG,
    "short.txt": "".join(f"{np.sin(i / 3):.6f}\n" for i in range(40)),
    "short-labels.csv": "0,40,sine\n",
    "length-7-labels.csv": "# series_length: 7\n0,5,sine\n",
    "sien-threshold.yaml": "thresholds: {sine: 1.0, sien: 2.0}\n",
    "inf-threshold.yaml": "thresholds: {sine: .inf}\n",
    "1e999-threshold.yaml": "thresholds: {sine: 1e999}\n",
}

_CLASSIFY = ["classify", "--model", "@model.sfcm", "--series", "@test.txt"]
_TRAIN = ["train", "--series", "@train.txt", "--labels", "@train-labels.csv"]
_FREQ = ["freq", "--class", "a", "--window", "5", "--step", "5", "--predictions"]
_GUN = ["synth", "gun-experiment", "--source"]

# (argv, expected exit code, stderr fragment); every argv gets "--out".
BAD_INPUT_CASES = {
    "threshold-flag": (
        [*_CLASSIFY, "--threshold", "sine=abc"], 2, "--threshold sine must be a number"
    ),
    "threshold-flag-inf": (
        [*_CLASSIFY, "--threshold", "sine=1e999"], 2,
        "threshold for 'sine' must be > 0 and finite, got inf",
    ),
    **{f"threshold-config-{name}": (
        [*_CLASSIFY, "--config", f"@{name}-threshold.yaml"], 2,
        "threshold for 'sine' must be > 0 and finite, got inf",
    ) for name in ("inf", "1e999")},
    "threshold-flag-without-model": (
        [*_CLASSIFY, "--threshold", "sien=5"], 3, "no model for class 'sien'"
    ),
    # Checked with the config, so before the labels' own fault.
    "threshold-config-without-model": (
        ["compare", "--model", "@model.sfcm", "--series", "@test.txt",
         "--labels", "@length-7-labels.csv", "--config", "@sien-threshold.yaml"],
        3, "no model for class 'sien'",
    ),
    **{f"labels-length-{command}": (
        [*argv, "--labels", "@length-7-labels.csv"], 2,
        "length-7-labels.csv: the labels' series_length '7' is not the series length",
    ) for command, argv in (
        ("train", [*_TRAIN[:3], "--config", "@config.yaml"]),
        ("compare", ["compare", "--model", "@model.sfcm", "--series", "@test.txt"]),
        ("eval", ["eval", "--class", "a", "--predictions", "@rate-10.csv"]),
    )},
    "roc-weights": (
        ["roc", "--model", "@model.sfcm", "--series", "@test.txt",
         "--labels", "@test-labels.csv", "--class", "sine", "--weights", "1,abc"],
        2, "--weights entry must be a number, got 'abc'",
    ),
    "roc-weights-inf": (
        ["roc", "--model", "@model.sfcm", "--series", "@test.txt",
         "--labels", "@test-labels.csv", "--class", "sine", "--weights", "1,inf"],
        2, "weights must be finite, got inf",
    ),
    "roc-class-without-model": (
        ["roc", "--model", "@model.sfcm", "--series", "@test.txt",
         "--labels", "@test-labels.csv", "--class", "nosuch", "--weights", "1,2"],
        3, "no model for class 'nosuch'",
    ),
    "eval-class-not-predicted": (
        ["eval", "--class", "a", "--class", "nosuch", "--predictions", "@rate-10.csv",
         "--labels", "@bag.csv"],
        3, "no class 'nosuch' in the predictions' classes 'a'",
    ),
    "freq-class-not-predicted": (
        ["freq", "--class", "nosuch", "--window", "5", "--step", "5",
         "--predictions", "@rate-10.csv"],
        3, "no class 'nosuch' in the predictions' classes 'a'",
    ),
    "decision-floor": (
        [*_CLASSIFY, "--config", "@floor.yaml"], 2, "decision_floor must be a number"
    ),
    "thresholds": (
        [*_CLASSIFY, "--config", "@thresholds.yaml"], 2,
        "threshold for 'sine' must be a number",
    ),
    "m": ([*_TRAIN, "--config", "@m.yaml"], 2, "m of class 'sine' must be an integer"),
    "classes": ([*_TRAIN, "--config", "@classes.yaml"], 2, "classes must be a list"),
    "features": (
        [*_TRAIN, "--config", "@features.yaml"], 2, "features of class 'sine' must be a list"
    ),
    "config-feature-kind": (
        [*_TRAIN, "--config", "@sliding_sd.yaml"], 2, "unknown feature kind 'sliding_sd'"
    ),
    "model-feature-kind": (
        ["classify", "--model", "@bogus.sfcm", "--series", "@test.txt"], 2,
        "unknown feature kind 'bogus'",
    ),
    "predictions-m-over-length": (
        [*_FREQ, "@m-over-length.csv"], 2, "got series_length=10, m=20, stride=1"
    ),
    "predictions-m-zero": ([*_FREQ, "@m-zero.csv"], 2, "m=0"),
    "predictions-length-10**30": (
        ["eval", "--class", "a", "--predictions", "@length-10**30.csv", "--labels", "@bag.csv"],
        2, "needs 1 <= m <= series_length < 2**63 and stride >= 1, got series_length=10000",
    ),
    "predictions-length-10**30-freq": ([*_FREQ, "@length-10**30.csv"], 2, "m=4, stride=1"),
    **{f"config-m{m}": ([*_TRAIN, "--config", f"@m{m}.yaml"], 2,
                        f"m of class 'sine' must be >= 1, got {m}") for m in (0, -5, -10**12)},
    **{f"model-m{m}": (["classify", "--model", f"@m{m}.sfcm", "--series", "@test.txt"], 2,
                       f"m of class 'sine' must be >= 1, got {m}") for m in (0, -5, -10**12)},
    "predictions-stride-zero": ([*_FREQ, "@stride-zero.csv"], 2, "stride=0"),
    "predictions-rate": ([*_FREQ, "@bad-rate.csv"], 2, "bad-rate.csv has missing or bad"),
    "predictions-descending": (
        [*_FREQ, "@descending.csv"], 2, "descending.csv: rows must ascend, position 5 follows 50",
    ),
    "model-zero-counts": (
        ["classify", "--model", "@zero-counts.sfcm", "--series", "@test.txt"], 2,
        "histogram counts must not all be zero",
    ),
    "predictions-repeated-class": (
        ["eval", "--class", "a", "--predictions", "@repeated-class.csv", "--labels", "@bag.csv"],
        2, "classes header 'a,a' names a class twice",
    ),
    "config-class-comma": (
        [*_TRAIN, "--config", "@comma-class.yaml"], 2,
        "class id 'sine,x' must not contain a comma or a line break",
    ),
    "model-query-2d": (
        ["classify", "--model", "@query-2d.sfcm", "--series", "@test.txt"], 2,
        "shape query must be 1-D, got 2 dimensions",
    ),
    "model-class-line-break": (
        ["classify", "--model", "@line-break-class.sfcm", "--series", "@test.txt"], 2,
        "class id 'sine\\nx' must not contain a comma or a line break",
    ),
    "labels-not-utf8": (
        ["eval", "--class", "a", "--predictions", "@rate-10.csv", "--labels", "@non-utf8.csv"],
        2,
        "non-utf8.csv is not UTF-8: byte offset 23",
    ),
    "window-inf-seconds": (
        ["freq", "--class", "a", "--window", "infs", "--step", "5",
         "--predictions", "@rate-10.csv"], 2,
        "window 'infs' is not a finite number of samples",
    ),
    "window-nan-seconds": (
        ["freq", "--class", "a", "--window", "nans", "--step", "5",
         "--predictions", "@rate-10.csv"], 2,
        "window 'nans' is not a finite number of samples",
    ),
    "series-negative-rate": (
        [*_CLASSIFY[:-1], "@negative-rate.txt"], 2,
        "sample_rate_hz must be a finite number > 0, got '-5'",
    ),
    "ucr-inf-label": ([*_GUN, "@inf-label.csv"], 2, "line 2: non-finite label 'inf'"),
    "ucr-nan-label": ([*_GUN, "@nan-label.csv"], 2, "line 2: non-finite label 'nan'"),
    **{f"gun-{flag}{value}": ([*_GUN, "@gun.csv", f"--{flag}", str(value)], 2,
                              f"{flag.replace('-', '_')} must be at least 1, got {value}")
       for flag in ("length", "n-per-class") for value in (0, -1)},
    "config-stride-inf": (
        [*_CLASSIFY, "--config", "@stride-inf.yaml"], 2, "stride must be an integer, got inf"
    ),
    "config-m-inf": (
        [*_TRAIN, "--config", "@m-inf.yaml"], 2, "m of class 'sine' must be an integer, got inf"
    ),
    "model-m-1e999": (
        ["classify", "--model", "@m-1e999.sfcm", "--series", "@test.txt"], 2,
        "is corrupt: cannot convert float infinity to integer",
    ),
    "model-exclusion-zone-1e999": (
        ["classify", "--model", "@zone-1e999.sfcm", "--series", "@test.txt"], 2,
        "is corrupt: cannot convert float infinity to integer",
    ),
    "model-count-2**70": (
        ["classify", "--model", "@count-2**70.sfcm", "--series", "@test.txt"], 2,
        "histogram counts must be whole numbers below 2**63",
    ),
    "model-count-1.5": (
        ["classify", "--model", "@count-1.5.sfcm", "--series", "@test.txt"], 2,
        "histogram counts must be whole numbers below 2**63",
    ),
    "model-edge-nan": (
        ["classify", "--model", "@edge-nan.sfcm", "--series", "@test.txt"], 2,
        "histogram edges must be finite",
    ),
    "model-edge-inf": (
        ["classify", "--model", "@edge-inf.sfcm", "--series", "@test.txt"], 2,
        "histogram edges must be finite",
    ),
    "model-edge-span-overflow": (
        ["classify", "--model", "@edge-span.sfcm", "--series", "@test.txt"], 2,
        "histogram edges must span a finite width",
    ),
    "config-m-fraction": (
        [*_TRAIN, "--config", "@m-fraction.yaml"], 2,
        "m of class 'sine' must be an integer, got 64.9",
    ),
    "config-stride-fraction": (
        [*_CLASSIFY, "--config", "@stride-fraction.yaml"], 2,
        "stride must be an integer, got 1.9",
    ),
    "config-seed-fraction": (
        [*_TRAIN, "--config", "@seed-fraction.yaml"], 2, "seed must be an integer, got 2.5"
    ),
    "config-exclusion-zone-bool": (
        [*_TRAIN, "--config", "@zone-bool.yaml"], 2,
        "exclusion_zone must be an integer, got True",
    ),
    "model-m-fraction": (
        ["classify", "--model", "@m-fraction.sfcm", "--series", "@test.txt"], 2,
        "m-fraction.sfcm is corrupt: 64.7 is not a whole number",
    ),
    "model-exclusion-zone-fraction": (
        ["classify", "--model", "@zone-fraction.sfcm", "--series", "@test.txt"], 2,
        "zone-fraction.sfcm is corrupt: 64.9 is not a whole number",
    ),
    "model-class-other": (
        ["classify", "--model", "@other-class.sfcm", "--series", "@test.txt"], 2,
        "Other is reserved and cannot be trained",
    ),
    "config-exclusion-zone-negative": (
        [*_TRAIN, "--config", "@zone-negative.yaml"], 2, "exclusion_zone must be >= 0"
    ),
    "config-prototype-length": (
        [*_TRAIN, "--config", "@proto-length.yaml"], 2,
        "shape feature 'shape' needs a length-64 query, got length 3",
    ),
    "config-mixed-m": (
        [*_TRAIN, "--config", "@mixed-m.yaml"], 3,
        "all models must share one subsequence length; got 64 and 48",
    ),
    "config-duplicate-class": (
        [*_TRAIN, "--config", "@duplicate-class.yaml"], 3, "duplicate model for class 'sine'"
    ),
    "config-m-exceeds-series-shape": (
        ["train", "--series", "@short.txt", "--labels", "@short-labels.csv",
         "--config", "@shape-only.yaml"], 2, "subsequence length 64 exceeds series length 40",
    ),
    "model-count-sum": (
        ["classify", "--model", "@count-sum.sfcm", "--series", "@test.txt"], 2,
        "histogram counts must sum below 2**63",
    ),
    "model-bin-density": (
        ["classify", "--model", "@bin-density.sfcm", "--series", "@test.txt"], 2,
        "histogram bins must be wide enough for a finite density",
    ),
    "model-union-floor": (
        ["classify", "--model", "@union-floor.sfcm", "--series", "@test.txt"], 2,
        "span too wide a range for their counts",
    ),
}


def _replace_item(blob: bytes, key: bytes, index: int, value: bytes) -> bytes:
    """`blob` with item `index` of the first `"key":[...]` list set to `value`."""
    start = blob.index(b'"' + key + b'":[') + len(key) + 4
    end = blob.index(b"]", start)
    items = blob[start:end].split(b",")
    items[index] = value
    return blob[:start] + b",".join(items) + blob[end:]


@pytest.fixture(scope="module")
def bad_inputs(workspace):
    """The workspace plus every malformed input, a config whose prototype
    is too short, a model with a bogus kind, one with a histogram of zero
    counts, one whose class id holds a line break, one whose shape query is
    nested, and models with out-of-range numbers."""
    for name, text in BAD_INPUT_FILES.items():
        (workspace / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    (workspace / "proto-length.yaml").write_text(CONFIG.replace(
        "features: [shape, sliding_std]",
        f"features: [{{kind: shape, prototype: '{workspace / 'proto-3.txt'}'}}]", 1))
    model = (workspace / "model.sfcm").read_bytes()
    assert b'"kind":"sliding_std"' in model
    (workspace / "bogus.sfcm").write_bytes(
        model.replace(b'"kind":"sliding_std"', b'"kind":"bogus"')
    )
    # The first histogram's counts, all set to zero.
    start = model.index(b'"counts":[') + len(b'"counts":[')
    end = model.index(b"]", start)
    zeros = b",".join(b"0" for _ in model[start:end].split(b","))
    (workspace / "zero-counts.sfcm").write_bytes(model[:start] + zeros + model[end:])
    assert b'"class_id":"sine"' in model
    (workspace / "line-break-class.sfcm").write_bytes(
        model.replace(b'"class_id":"sine"', b'"class_id":"sine\\nx"')
    )
    (workspace / "other-class.sfcm").write_bytes(
        model.replace(b'"class_id":"sine"', b'"class_id":"Other"')
    )
    assert b'"m":64' in model and b'"exclusion_zone":64' in model
    query = model.index(b'"query":[') + len(b'"query":')
    query_end = model.index(b"]", query) + 1
    bad_models = {
        "m-1e999.sfcm": model.replace(b'"m":64', b'"m":1e999'),
        "zone-1e999.sfcm": model.replace(b'"exclusion_zone":64', b'"exclusion_zone":1e999'),
        "m-fraction.sfcm": model.replace(b'"m":64', b'"m":64.7'),
        **{f"m{m}.sfcm": model.replace(b'"m":64', b'"m":%d' % m) for m in (0, -5, -10**12)},
        "zone-fraction.sfcm": model.replace(b'"exclusion_zone":64', b'"exclusion_zone":64.9'),
        "count-2**70.sfcm": _replace_item(model, b"counts", 0, str(2**70).encode()),
        "count-1.5.sfcm": _replace_item(model, b"counts", 0, b"1.5"),
        "edge-nan.sfcm": _replace_item(model, b"edges", 1, b"NaN"),
        "edge-inf.sfcm": _replace_item(model, b"edges", 0, b"-Infinity"),
        "edge-span.sfcm": _replace_item(
            _replace_item(model, b"edges", 0, b"-1e308"), b"edges", -1, b"1e308"
        ),
        # The first "counts" and "edges" lists are those of one histogram.
        "count-sum.sfcm": _replace_item(
            _replace_item(model, b"counts", 0, str(2**62).encode()), b"counts", 1,
            str(2**62).encode(),
        ),
        # One count in a bin 5e-324 wide: its density overflows to inf.
        "bin-density.sfcm": _replace_item(
            _replace_item(_replace_item(model, b"edges", 0, b"0"), b"edges", 1, b"5e-324"),
            b"counts", 0, b"1",
        ),
        # The histogram spans ~1e308 on its own; times its pair's counts, inf.
        "union-floor.sfcm": _replace_item(model, b"edges", 0, b"-1e308"),
        # The first shape query, nested in a list: its size is still m.
        "query-2d.sfcm": model[:query] + b"[" + model[query:query_end] + b"]"
        + model[query_end:],
    }
    for name, blob in bad_models.items():
        (workspace / name).write_bytes(blob)
    return workspace


class TestBadInputExitCodes:
    """Bad values in flags, configs, model files and prediction headers exit
    with the documented code and a message, never with a traceback."""

    @pytest.mark.parametrize("case", sorted(BAD_INPUT_CASES))
    def test_exit_code_and_message(self, case, bad_inputs, tmp_path):
        argv, expected, fragment = BAD_INPUT_CASES[case]
        out = tmp_path / "out"
        argv = [str(bad_inputs / a[1:]) if a.startswith("@") else a for a in argv]
        code, _, err = run_cli(*argv, "--out", str(out))
        assert code == expected, err
        assert fragment in err
        assert "Traceback" not in err
        assert not out.exists()
