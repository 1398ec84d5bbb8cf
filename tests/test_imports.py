"""What only a fresh interpreter shows: what importing the package and
running each command through the installed script's entry loads, a refusal
through that entry, and the package's public names."""

import dataclasses
import json
import re
import sys
import types
from pathlib import Path

import pytest

import deteval

# Runs `deteval.cli.run()`, the installed script's entry, with `sys.argv` set
# to `deteval` and argv, in a fresh interpreter, then fails unless
# it loaded numpy exactly when expected and exactly the deteval modules
# expected, loaded neither test extra (scipy, hypothesis), and left the
# process with one thread: numpy's BLAS started no worker threads.
# Importing the CLI sets no environment variable.
_RUN_COMMAND = """
import os
import sys
from deteval.cli import run

assert "OPENBLAS_NUM_THREADS" not in os.environ
expected, *argv = sys.argv[1:]
sys.argv = ["deteval", *argv]
try:
    code = run()
except SystemExit as exc:  # --version exits from argparse
    code = exc.code
assert code == 0, f"exit {code}"
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("deteval."))
assert ",".join(loaded) == expected, f"loaded {loaded}"
extras = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "hypothesis"))
assert not extras, f"loaded test extras {extras}"
if os.path.isdir("/proc/self/task"):
    threads = os.listdir("/proc/self/task")
    assert len(threads) == 1, f"threads {threads}"
"""

# The modules every command loads: the CLI and what it imports at top level.
_BASE = ("deteval.annotations", "deteval.cli", "deteval.config")


def _succeeds(proc):
    assert proc.returncode == 0, proc.stderr


def test_import_deteval_loads_no_module(child):
    _succeeds(child(
        "import sys, deteval\n"
        "loaded = [m for m in sys.modules if m == 'numpy' or m.startswith('deteval.')]\n"
        "assert not loaded, loaded\n"
    ))


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
def test_command_loads_only_what_it_runs(child, fixtures_dir, tmp_path, command, modules):
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
    _succeeds(child(_RUN_COMMAND, ",".join(sorted(_BASE + modules)), "--output-dir", out, *argv))


def test_blas_thread_count_already_set_is_kept(child, fixtures_dir, tmp_path):
    detection = fixtures_dir / "detection"
    _succeeds(child(
        "import os, sys\n"
        "from deteval.cli import run\n"
        "sys.argv = ['deteval', *sys.argv[1:]]\n"
        "assert run() == 0\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '2', os.environ['OPENBLAS_NUM_THREADS']\n",
        "--output-dir", tmp_path / "out", "evaluate", "--ground-truth-dir", detection / "truth",
        "--predictions-dir", detection / "preds", "--class-registry", detection / "classes.txt",
        OPENBLAS_NUM_THREADS="2",
    ))


def test_refusal_through_the_script_is_one_record(child, tmp_path):
    # 3 ids leave a partition empty at 15:3:2
    (tmp_path / "ids.txt").write_text("a\nb\nc\n")
    proc = child("import sys; from deteval.cli import run; sys.argv[0] = 'deteval'; sys.exit(run())",
                 "--output-dir", tmp_path / "out", "split", "--ids-file", tmp_path / "ids.txt")
    assert proc.returncode == 2, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "CliError"
    assert not (tmp_path / "out").exists()


# The package's public names; a name leaves or joins this list only by a
# declared change to the public API.
PUBLIC_NAMES = [
    "AnnotationError", "AnovaResult", "AugmentOp", "AugmentPipeline", "BoundingBox",
    "Candidate", "CellPrediction", "CellTarget", "ClassLabel", "ClassRegistry", "ConfusionMatrix",
    "DesirabilityProfile", "EvalSample", "EvaluationReport",
    "HeightRecord", "LossConfig", "MetricValue", "ObservationTable", "PRCurve",
    "RankedCandidate", "RegistryError", "ResponseGoal", "SWResult", "SampleStats", "SplitRatio",
    "SplitResult", "TTestResult", "TileRect", "TileSpec", "annotations", "anova_oneway", "augment",
    "average_precision", "bag_based_accuracy", "classification_loss", "describe",
    "desirability", "desirability_of", "evaluate_detections", "f_sf",
    "format_yolo_rows", "giou", "giou_loss", "hard_swish", "iou",
    "load_height_records", "losses", "mean_average_precision", "metrics", "objectness_loss",
    "overall_desirability", "plan_tiles", "pr_curve",
    "prep", "reg_inc_beta", "retile_annotations", "sample_ids", "select_best",
    "shapiro_wilk", "split_dataset", "stats", "swish", "t_test_pairwise", "yolo_rows",
]


# The names that left `deteval.metrics` with the object-shaped matcher;
# evaluation goes through `evaluate_detections` and `pr_curve`.
REMOVED_METRICS_NAMES = [
    "MatchReport", "MatchedPair", "PRPoint", "_sum_tallies", "confusion_matrix", "detection_accuracy", "f1",
    "match", "precision", "recall",
]


# The object-shaped YOLO wrappers and box objects that left
# `deteval.annotations`; YOLO text is read with `yolo_rows` or `read_yolo` and
# written with `format_yolo_rows`, and an `EvalSample` holds `yolo_rows` rows.
REMOVED_YOLO_NAMES = [
    "format_yolo_annotation", "format_yolo_prediction", "parse_yolo_annotation", "parse_yolo_prediction",
    "Detection", "GroundTruthObject",
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

    @pytest.mark.parametrize("name", REMOVED_YOLO_NAMES)
    def test_removed_yolo_name_is_gone(self, name):
        from deteval import annotations

        assert not hasattr(annotations, name)
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


def test_the_readme_library_example_runs(monkeypatch):
    # README's first python block, run from the repository root as its paths expect
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = re.search(r"^```python\n(.*?)^```$", readme.read_text(encoding="utf-8"), re.S | re.M).group(1)
    monkeypatch.chdir(readme.parent)
    exec(compile(block, str(readme), "exec"), {})
