"""Golden output digests: refactors must keep every output byte.

`cli.main` runs in-process on small seeded two-modality fixtures, and the
sha256 of each output file is compared with a digest recorded once from a
known-good build. The fixtures cover every feature kind (four classes, as
in the benchmark's rescore layout), stride-1 and stride-3 predictions, the
compare grid under the default config and under `nb_denominator:
paper-literal` with `small_value_mode: own`, a roc sweep of one class while
another carries a threshold weight other than 1, and a compare on a
shape-only model (whose feature-only variant is empty). The shape-only
model (zone 47, so every jump is 48) also classifies and compares at
stride 4, so its passes score every fourth position (visit step 4); the
other runs score every position.

The digests were recorded with numpy 2.4.6. Another numpy may round the
FFT differently and change score bits; a mismatch there is not, by itself,
a regression.
"""
import hashlib

import numpy as np
import pytest

from shapefeat import cli

NUMPY_RECORDED = "2.4.6"

SYNTH_ARGS = ["--m", "48", "--sine-bags", "8", "--flat-bags", "8",
              "--surge-bags", "6", "--hum-bags", "6",
              "--noise-level", "0.01"]

CLASSES = """\
classes:
  - name: sine
    m: 48
    exclusion_zone: 47
    prior: 0.5
    features: [shape, complexity, sliding_std]
  - name: flat
    m: 48
    exclusion_zone: 40
    prior: 0.5
    features: [shape, sliding_mean, sliding_std]
  - name: surge
    m: 48
    exclusion_zone: 47
    prior: 0.4
    features: [shape, sliding_std]
  - name: hum
    m: 48
    exclusion_zone: 30
    prior: 0.3
    features: [complexity, sliding_std]
"""

CONFIG = """\
decision_floor: 0.5
thresholds:
  flat: 1.3
""" + CLASSES

LITERAL_CONFIG = """\
decision_floor: 0.4
nb_denominator: paper-literal
small_value_mode: own
""" + CLASSES

SHAPE_ONLY_CONFIG = """\
classes:
  - name: sine
    m: 48
    exclusion_zone: 47
    features: [shape]
"""

GOLDEN = {
    "compare": "02b3746101dbccdb24ef18ced972a1e01cf690a80ddcf9ca5d78c35538b12ead",
    "compare_literal_own": "63f8f4344de13a358ab1abd3cf5ca8dacf03b745fbe9e28f84c73d5909d23179",
    "compare_shape_only": "f2c73e8270d6a4580a7c1d91cc0ba44e12a5da9f712c1b4ff60559ff8b96d36d",
    "compare_shape_only_stride4": "dc7646a3114c941971ccafeb80c6b5fc282ff936cefd47fea8688a2e0a8cca12",
    "model": "c32c32d0ef9cfceef9f27d7c6404fedcda7859624864e984690953b86b50123c",
    "model_shape_only": "12d7a607f81bbbcb617f11eebde603b4fa860ff867d7ebaf5698fefbe98c6c62",
    "predictions_stride1": "3265d6bfaef9f5695883184976c845995afec038340daed67658bd30550e3365",
    "predictions_shape_only_stride4": "c2fd3405397d77fcf368ffc8d25ccecd28c4b361d9f2de95529801ecddd8ad6c",
    "predictions_stride3": "fd99c1bfde5f8fcd8d72ac28ee86fe6df5ca7df988462bbda746424f8e3ba71d",
    "roc": "544d950c528ecaee55a70f45e5d1811db69c9661856b11a4ac405dd99c59868a",
}


def _run(*args):
    assert cli.main([str(a) for a in args]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    for name, text in (("config", CONFIG), ("literal", LITERAL_CONFIG),
                       ("shape_only", SHAPE_ONLY_CONFIG)):
        (root / f"{name}.yaml").write_text(text)
    for tag, seed in (("train", 33), ("test", 10_033)):
        _run("synth", "two-modality", "--seed", seed, *SYNTH_ARGS,
             "--out-series", root / f"{tag}.txt", "--out-labels", root / f"{tag}.csv")
    train = ("--series", root / "train.txt", "--labels", root / "train.csv")
    test = ("--series", root / "test.txt", "--labels", root / "test.csv")
    files = {
        "model": root / "model.sfcm",
        "model_shape_only": root / "shape-only.sfcm",
        "predictions_stride1": root / "pred-1.csv",
        "predictions_stride3": root / "pred-3.csv",
        "predictions_shape_only_stride4": root / "pred-shape-only-4.csv",
        "compare": root / "grid.csv",
        "compare_literal_own": root / "grid-literal.csv",
        "compare_shape_only": root / "grid-shape-only.csv",
        "compare_shape_only_stride4": root / "grid-shape-only-4.csv",
        "roc": root / "roc.csv",
    }
    _run("train", "--config", root / "config.yaml", *train, "--out", files["model"])
    _run("train", "--config", root / "shape_only.yaml", *train,
         "--out", files["model_shape_only"])
    for stride in (1, 3):
        _run("classify", "--model", files["model"], "--series", root / "test.txt",
             "--config", root / "config.yaml", "--stride", stride,
             "--out", files[f"predictions_stride{stride}"])
    _run("compare", "--model", files["model"], *test,
         "--config", root / "config.yaml", "--out", files["compare"])
    _run("compare", "--model", files["model"], *test,
         "--config", root / "literal.yaml", "--out", files["compare_literal_own"])
    _run("compare", "--model", files["model_shape_only"], *test,
         "--config", root / "shape_only.yaml", "--out", files["compare_shape_only"])
    _run("classify", "--model", files["model_shape_only"], "--series", root / "test.txt",
         "--stride", 4, "--out", files["predictions_shape_only_stride4"])
    _run("compare", "--model", files["model_shape_only"], *test, "--stride", 4,
         "--out", files["compare_shape_only_stride4"])
    _run("roc", "--model", files["model"], *test, "--config", root / "config.yaml",
         "--class", "sine", "--weights", "0.25,0.5,1,1.5,2,4", "--out", files["roc"])
    return {key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in files.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(outputs, name):
    assert outputs[name] == GOLDEN[name], (
        f"{name} changed (digests recorded with numpy {NUMPY_RECORDED}, "
        f"running numpy {np.__version__})"
    )
