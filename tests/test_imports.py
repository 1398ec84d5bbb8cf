"""What importing the package and running each command loads, and the
package's public names."""

import dataclasses
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import deteval

SRC = Path(deteval.__file__).resolve().parent.parent

# Runs `deteval.cli.main(argv)` in a fresh interpreter, then fails unless
# it loaded numpy exactly when expected and exactly the deteval modules
# expected, and left the process with one thread: numpy's BLAS started no
# worker threads. Importing the CLI sets no environment variable.
_RUN_COMMAND = """
import os
import sys
from deteval.cli import main

assert "OPENBLAS_NUM_THREADS" not in os.environ
expected, *argv = sys.argv[1:]
try:
    code = main(argv)
except SystemExit as exc:  # --version exits from argparse
    code = exc.code
assert code == 0, f"exit {code}"
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("deteval."))
assert ",".join(loaded) == expected, f"loaded {loaded}"
if os.path.isdir("/proc/self/task"):
    threads = os.listdir("/proc/self/task")
    assert len(threads) == 1, f"threads {threads}"
"""

# The modules every command loads: the CLI and what it imports at top level.
_BASE = ("deteval.annotations", "deteval.cli", "deteval.config")


# Variables that set the thread count of numpy's BLAS; the child runs
# without them unless a test sets one.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")


def _child(code, *argv, **variables):
    path = [str(SRC), os.environ.get("PYTHONPATH")]
    env = {name: value for name, value in os.environ.items() if name not in _THREAD_VARIABLES}
    env.update(variables, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_import_deteval_loads_no_module():
    _child(
        "import sys, deteval\n"
        "loaded = [m for m in sys.modules if m == 'numpy' or m.startswith('deteval.')]\n"
        "assert not loaded, loaded\n"
    )


@pytest.mark.parametrize(
    "command, modules",
    [
        ("version", ()),
        ("tile", ("deteval.prep",)),
        ("split", ("deteval.prep",)),
        ("desirability", ("deteval.desirability",)),
        ("report", ()),
        ("augment", ("deteval.prep",)),
        ("evaluate", ("deteval.metrics", "numpy")),
        ("stats", ("deteval.stats",)),
    ],
)
def test_command_loads_only_what_it_runs(fixtures_dir, tmp_path, command, modules):
    out = tmp_path / "out"
    detection, desirability = fixtures_dir / "detection", fixtures_dir / "desirability"
    ids = tmp_path / "ids.txt"
    ids.write_text("".join(f"img{i}\n" for i in range(20)))
    argv = {
        "version": ["--version"],
        "tile": ["tile", "--ground-truth-dir", fixtures_dir / "tiling",
                 "--image-sizes-csv", fixtures_dir / "tiling" / "image_sizes.csv"],
        "split": ["split", "--ids-file", ids],
        "desirability": ["desirability", "--profile", desirability / "profile.json",
                         "--candidates", desirability / "candidates.csv"],
        "report": ["report"],
        "augment": ["augment", "--ground-truth-dir", detection / "truth", "--samples", "2"],
        "evaluate": ["evaluate", "--ground-truth-dir", detection / "truth",
                     "--predictions-dir", detection / "preds", "--class-registry", detection / "classes.txt"],
        "stats": ["stats", "--inputs", fixtures_dir / "stats" / "height_accuracy.csv"],
    }[command]
    out.mkdir()
    _child(_RUN_COMMAND, ",".join(sorted(_BASE + modules)), "--output-dir", out, *argv)


def test_blas_thread_count_already_set_is_kept(fixtures_dir, tmp_path):
    detection = fixtures_dir / "detection"
    _child(
        "import os, sys\n"
        "from deteval.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '2', os.environ['OPENBLAS_NUM_THREADS']\n",
        "--output-dir", tmp_path / "out", "evaluate", "--ground-truth-dir", detection / "truth",
        "--predictions-dir", detection / "preds", "--class-registry", detection / "classes.txt",
        OPENBLAS_NUM_THREADS="2",
    )


# The package's public names; a name leaves or joins this list only by a
# declared change to the public API.
PUBLIC_NAMES = [
    "AnnotationError", "AnovaResult", "AugmentOp", "AugmentPipeline", "BoundingBox",
    "Candidate", "CellPrediction", "CellTarget", "ClassLabel", "ClassRegistry", "ConfusionMatrix",
    "DesirabilityProfile", "Detection", "EvalSample", "EvaluationReport", "GroundTruthObject",
    "HeightRecord", "LossConfig", "MetricValue", "ObservationTable", "PRCurve",
    "RankedCandidate", "RegistryError", "ResponseGoal", "SWResult", "SampleStats", "SplitRatio",
    "SplitResult", "TTestResult", "TileRect", "TileSpec", "annotations", "anova_oneway", "augment",
    "average_precision", "bag_based_accuracy", "classification_loss", "describe",
    "desirability", "desirability_of", "evaluate_detections", "f_sf",
    "format_yolo_annotation", "format_yolo_prediction", "format_yolo_rows", "giou", "giou_loss", "hard_swish", "iou",
    "load_height_records", "losses", "mean_average_precision", "metrics", "objectness_loss",
    "overall_desirability", "parse_yolo_annotation", "parse_yolo_prediction", "plan_tiles", "pr_curve",
    "prep", "reg_inc_beta", "retile_annotations", "sample_ids", "select_best",
    "shapiro_wilk", "split_dataset", "stats", "swish", "t_test_pairwise", "yolo_rows",
]


# The names that left `deteval.metrics` with the object-shaped matcher;
# evaluation goes through `evaluate_detections` and `pr_curve`.
REMOVED_METRICS_NAMES = [
    "MatchReport", "MatchedPair", "PRPoint", "_sum_tallies", "confusion_matrix", "detection_accuracy", "f1",
    "match", "precision", "recall",
]


class TestPublicApi:
    def test_all_is_the_public_set(self):
        assert deteval.__all__ == PUBLIC_NAMES

    def test_every_name_resolves_to_its_module_object(self):
        for name in deteval.__all__:
            value = getattr(deteval, name)
            if isinstance(value, types.ModuleType):
                assert value is sys.modules[f"deteval.{name}"]
            else:
                assert getattr(sys.modules[value.__module__], name) is value, name

    def test_dir_lists_every_public_name(self):
        assert set(deteval.__all__) <= set(dir(deteval))

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from deteval import *", namespace)
        assert {name: namespace.get(name) for name in deteval.__all__} == {
            name: getattr(deteval, name) for name in deteval.__all__
        }

    @pytest.mark.parametrize("name", REMOVED_METRICS_NAMES)
    def test_removed_evaluation_name_is_gone(self, name):
        from deteval import metrics

        assert not hasattr(metrics, name)
        assert name not in dir(deteval)
        with pytest.raises(AttributeError, match=re.escape(repr(name))):
            getattr(deteval, name)

    def test_a_curve_is_read_through_its_columns(self):
        from deteval import metrics

        assert [f.name for f in dataclasses.fields(metrics.PRCurve)] == [
            "class_id", "npos", "threshold", "precision", "recall"]
        assert not hasattr(metrics.PRCurve, "points")

    def test_unknown_attribute_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            deteval.no_such_name
