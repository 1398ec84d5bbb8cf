import builtins
import csv
import hashlib
import io
import json
import os
import shutil
from pathlib import Path

import pytest

from deteval import cli
from deteval.cli import main
from deteval.config import DEFAULTS, write_json


def run_cli(*argv):
    return main([str(a) for a in argv])


def oracle_digest_inputs(paths):
    """Reference input digests: every input read a second time, after the
    command, by an independent walk of each tree."""

    def sha256_file(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def sha256_tree(path):
        digest = hashlib.sha256()
        for child in sorted(p for p in Path(path).rglob("*") if p.is_file()):
            digest.update(str(child.relative_to(path)).encode("utf-8"))
            digest.update(b"\x00")
            digest.update(bytes.fromhex(sha256_file(child)))
        return digest.hexdigest()

    return {
        name: f"sha256:{sha256_tree(path) if Path(path).is_dir() else sha256_file(path)}"
        for name, path in sorted(paths.items())
    }


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestTile:
    def test_field_fixture(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "tile",
            "--ground-truth-dir", fixtures_dir / "tiling",
            "--image-sizes-csv", fixtures_dir / "tiling" / "image_sizes.csv",
        )
        assert code == 0
        rows = _read_csv(out / "tiles_manifest.csv")
        assert rows[0] == ["tile_id", "src_image", "x0", "y0", "w", "h"]
        assert len(rows) - 1 == 16
        xs = {int(r[2]) for r in rows[1:]}
        ys = {int(r[3]) for r in rows[1:]}
        assert xs == {0, 416, 832, 1184} and ys == {0, 416, 832, 884}
        discarded = (out / "discarded_tiles.txt").read_text().splitlines()
        kept = sorted(p.stem for p in (out / "tiles").glob("*.txt"))
        assert len(discarded) == 14 and len(kept) == 2
        assert (out / "run_manifest.json").is_file()

    def test_tile_equal_to_image_is_passthrough(self, fixtures_dir, tmp_path):
        src = tmp_path / "annot"
        src.mkdir()
        (src / "a.txt").write_text("0 0.500000 0.500000 0.200000 0.200000\n")
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "tile",
            "--ground-truth-dir", src,
            "--tile-size", "416x416",
            "--image-size", "416x416",
        )
        assert code == 0
        rows = _read_csv(out / "tiles_manifest.csv")
        assert len(rows) - 1 == 1
        tile_file = next((out / "tiles").glob("*.txt"))
        assert tile_file.read_text() == "0 0.500000 0.500000 0.200000 0.200000\n"

    def test_empty_annotation_dir_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = run_cli(
            "--output-dir", tmp_path / "out", "tile",
            "--ground-truth-dir", empty,
            "--image-size", "416x416",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"] == "CliError"

    def test_missing_dimension_source_exits_2(self, fixtures_dir, tmp_path):
        assert run_cli(
            "--output-dir", tmp_path / "out", "tile",
            "--ground-truth-dir", fixtures_dir / "tiling",
        ) == 2

    @pytest.mark.parametrize(
        "row, problem",
        [
            ("a,nan,100", "width and height must be integers"),
            ("a,100", "expected 3 fields, got 2"),
            ("a,0,100", "width and height must be positive"),
            ("a,1600,-1300", "width and height must be positive"),
        ],
    )
    def test_bad_image_size_row_names_file_and_line(self, tmp_path, capsys, row, problem):
        annots = tmp_path / "annots"
        annots.mkdir()
        (annots / "a.txt").write_text("0 0.500000 0.500000 0.200000 0.200000\n")
        sizes = tmp_path / "sizes.csv"
        sizes.write_text(f"image_id,width_px,height_px\n\n{row}\n")
        code = run_cli(
            "--output-dir", tmp_path / "out", "tile",
            "--ground-truth-dir", annots,
            "--image-sizes-csv", sizes,
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CliError"
        assert record["message"].startswith(f"{sizes}: line 3: {problem}")

    def test_raster_adapter_reads_sizes_and_writes_crops(self, tmp_path):
        Image = pytest.importorskip("PIL.Image")
        images = tmp_path / "images"
        annots = tmp_path / "annots"
        images.mkdir(), annots.mkdir()
        Image.new("RGB", (832, 832), (30, 120, 30)).save(images / "plot.png")
        (annots / "plot.txt").write_text("0 0.250000 0.250000 0.100000 0.100000\n")
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "tile",
            "--ground-truth-dir", annots,
            "--images-dir", images,
            "--tile-size", "416x416",
        )
        assert code == 0
        rows = _read_csv(out / "tiles_manifest.csv")
        assert len(rows) - 1 == 4  # sizes came from the raster itself
        crops = sorted((out / "tiles").glob("*.png"))
        assert len(crops) == 1  # only the populated tile is cropped
        with Image.open(crops[0]) as crop:
            assert crop.size == (416, 416)


class TestAugment:
    def test_deterministic_outputs(self, fixtures_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = run_cli(
                "--output-dir", out, "--seed", "11", "augment",
                "--ground-truth-dir", fixtures_dir / "detection" / "truth",
                "--samples", "4",
            )
            assert code == 0
        files_a = sorted(p.name for p in (out_a / "augmented").glob("*.txt"))
        files_b = sorted(p.name for p in (out_b / "augmented").glob("*.txt"))
        assert files_a == files_b and len(files_a) == 8
        for name in files_a:
            assert (out_a / "augmented" / name).read_bytes() == (
                out_b / "augmented" / name
            ).read_bytes()

    def test_seed_changes_outputs(self, fixtures_dir, tmp_path):
        outs = {}
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            run_cli(
                "--output-dir", out, "--seed", str(seed), "augment",
                "--ground-truth-dir", fixtures_dir / "detection" / "truth",
                "--samples", "6",
            )
            outs[seed] = b"".join(
                p.read_bytes() for p in sorted((out / "augmented").glob("*.txt"))
            )
        assert outs[1] != outs[2]


class TestSplit:
    def test_allocation_and_manifest(self, tmp_path):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("".join(f"img{k:04d}\n" for k in range(141)))
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "--seed", "5", "split",
            "--ids-file", ids_file, "--ratio", "15:3:2",
        )
        assert code == 0
        rows = _read_csv(out / "split_manifest.csv")[1:]
        counts = {}
        for _, partition in rows:
            counts[partition] = counts.get(partition, 0) + 1
        assert counts == {"train": 106, "val": 21, "test": 14}

    def test_sampling_before_split(self, tmp_path):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("".join(f"img{k:04d}\n" for k in range(1410)))
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "--seed", "3", "split",
            "--ids-file", ids_file, "--ratio", "15:3:2", "--sample-count", "141",
        )
        assert code == 0
        rows = _read_csv(out / "split_manifest.csv")[1:]
        assert len(rows) == 141

    def test_too_few_ids_exits_2(self, tmp_path):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_text("a\nb\n")
        assert run_cli("--output-dir", tmp_path / "o", "split", "--ids-file", ids_file) == 2


class TestEvaluate:
    def _run(self, fixtures_dir, out, *extra):
        return run_cli(
            "--output-dir", out, "evaluate",
            "--ground-truth-dir", fixtures_dir / "detection" / "truth",
            "--predictions-dir", fixtures_dir / "detection" / "preds",
            "--class-registry", fixtures_dir / "detection" / "classes.txt",
            *extra,
        )

    def test_fixture_report(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        assert self._run(fixtures_dir, out) == 0
        doc = json.loads((out / "evaluation.json").read_text())
        assert doc["map50"] == pytest.approx(17 / 24, abs=1e-12)
        assert doc["per_class"]["wb"]["ap"]["value"] == pytest.approx(11 / 12, abs=1e-12)
        assert doc["per_class"]["bb"]["accuracy"]["value"] == pytest.approx(1 / 3, abs=1e-12)
        assert "true negatives" in doc["conventions"]["true_negatives"]
        assert (out / "pr_curve_wb.csv").is_file()
        assert (out / "pr_curve_bb.csv").is_file()
        curve = _read_csv(out / "pr_curve_wb.csv")
        assert curve[0] == ["threshold", "precision", "recall"]
        assert len(curve) - 1 == 4

    def test_parse_error_names_file_and_line(self, fixtures_dir, tmp_path, capsys):
        truth = tmp_path / "truth"
        truth.mkdir()
        (truth / "img1.txt").write_text("0 0.5 0.5 0.1 0.2\n0 0.5 0.5 1.9 0.2\n")
        code = run_cli(
            "--output-dir", tmp_path / "out", "evaluate",
            "--ground-truth-dir", truth,
            "--predictions-dir", truth,
            "--class-registry", fixtures_dir / "detection" / "classes.txt",
        )
        assert code == 2
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert "img1.txt" in message and "line 2" in message

    @pytest.mark.parametrize(
        "bad, named",
        [
            (("preds/img1.txt", "truth/img2.txt"), "preds/img1.txt"),
            (("preds/img2.txt", "truth/img2.txt"), "truth/img2.txt"),
            (("preds/img2.txt",), "preds/img2.txt"),
        ],
    )
    def test_error_names_the_first_bad_file_in_image_order(
        self, fixtures_dir, tmp_path, capsys, bad, named
    ):
        for side in ("truth", "preds"):
            shutil.copytree(fixtures_dir / "detection" / side, tmp_path / side)
        for rel in bad:
            (tmp_path / rel).write_text("0 0.5 0.5 0.1\n")
        code = run_cli(
            "--output-dir", tmp_path / "out", "evaluate",
            "--ground-truth-dir", tmp_path / "truth",
            "--predictions-dir", tmp_path / "preds",
            "--class-registry", fixtures_dir / "detection" / "classes.txt",
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        fields = 5 if named.startswith("truth") else 6
        assert record == {
            "error": "CliError",
            "message": f"{tmp_path / named}: line 1: expected {fields} fields, got 4",
        }

    def test_undecodable_file_is_named_in_image_order(self, fixtures_dir, tmp_path, capsys):
        for side in ("truth", "preds"):
            shutil.copytree(fixtures_dir / "detection" / side, tmp_path / side)
        (tmp_path / "preds" / "img1.txt").write_bytes(b"\xff\n")
        (tmp_path / "truth" / "img2.txt").write_text("0 0.5 0.5 0.1\n")
        code = run_cli(
            "--output-dir", tmp_path / "out", "evaluate",
            "--ground-truth-dir", tmp_path / "truth",
            "--predictions-dir", tmp_path / "preds",
            "--class-registry", fixtures_dir / "detection" / "classes.txt",
        )
        assert code == 2
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert message == (
            f"{tmp_path / 'preds' / 'img1.txt'}: "
            "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        )

    def test_id_mismatch_without_flag_exits_2(self, fixtures_dir, tmp_path, capsys):
        preds = tmp_path / "preds"
        preds.mkdir()
        shutil.copy(
            fixtures_dir / "detection" / "preds" / "img1.txt", preds / "img1.txt"
        )
        code = run_cli(
            "--output-dir", tmp_path / "out", "evaluate",
            "--ground-truth-dir", fixtures_dir / "detection" / "truth",
            "--predictions-dir", preds,
            "--class-registry", fixtures_dir / "detection" / "classes.txt",
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["context"]["missing_predictions"] == ["img2"]

    def test_allow_partial_treats_missing_as_empty(self, fixtures_dir, tmp_path):
        preds = tmp_path / "preds"
        preds.mkdir()
        shutil.copy(
            fixtures_dir / "detection" / "preds" / "img1.txt", preds / "img1.txt"
        )
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "--allow-partial", "evaluate",
            "--ground-truth-dir", fixtures_dir / "detection" / "truth",
            "--predictions-dir", preds,
            "--class-registry", fixtures_dir / "detection" / "classes.txt",
        )
        assert code == 0
        doc = json.loads((out / "evaluation.json").read_text())
        assert doc["missing_predictions"] == ["img2"]
        assert doc["image_count"] == 2

    def test_empty_predictions_all_fn(self, fixtures_dir, tmp_path):
        preds = tmp_path / "preds"
        preds.mkdir()
        for name in ("img1.txt", "img2.txt"):
            (preds / name).write_text("")
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "evaluate",
            "--ground-truth-dir", fixtures_dir / "detection" / "truth",
            "--predictions-dir", preds,
            "--class-registry", fixtures_dir / "detection" / "classes.txt",
        )
        assert code == 0
        doc = json.loads((out / "evaluation.json").read_text())
        assert doc["map50"] == 0.0
        for row in doc["per_class"].values():
            assert row["tp"] == 0 and row["fp"] == 0 and row["fn"] > 0
            assert row["ap"]["value"] == 0.0

    def test_predictions_equal_truths_all_ones(self, fixtures_dir, tmp_path):
        preds = tmp_path / "preds"
        preds.mkdir()
        for src in (fixtures_dir / "detection" / "truth").glob("*.txt"):
            lines = src.read_text().splitlines()
            (preds / src.name).write_text(
                "".join(f"{line} 1.000000\n" for line in lines if line.strip())
            )
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "evaluate",
            "--ground-truth-dir", fixtures_dir / "detection" / "truth",
            "--predictions-dir", preds,
            "--class-registry", fixtures_dir / "detection" / "classes.txt",
        )
        assert code == 0
        doc = json.loads((out / "evaluation.json").read_text())
        assert doc["map50"] == 1.0
        for row in doc["per_class"].values():
            for metric in ("ap", "precision", "recall", "f1", "accuracy"):
                assert row[metric]["value"] == 1.0

    def test_jobs_do_not_change_bytes(self, fixtures_dir, tmp_path):
        outputs = {}
        for jobs in (1, 8):
            out = tmp_path / f"j{jobs}"
            code = run_cli(
                "--output-dir", out, "--jobs", str(jobs), "evaluate",
                "--ground-truth-dir", fixtures_dir / "detection" / "truth",
                "--predictions-dir", fixtures_dir / "detection" / "preds",
                "--class-registry", fixtures_dir / "detection" / "classes.txt",
            )
            assert code == 0
            outputs[jobs] = {
                name: (out / name).read_bytes()
                for name in ("evaluation.json", "pr_curve_wb.csv", "pr_curve_bb.csv")
            }
        assert outputs[1] == outputs[8]


class TestStats:
    def test_height_fixture(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "stats",
            "--inputs", fixtures_dir / "stats" / "height_accuracy.csv",
        )
        assert code == 0
        doc = json.loads((out / "stats.json").read_text())
        entry = doc["responses"][0]
        assert entry["response"] == "height_accuracy"
        assert entry["effect"] == "stratum"
        assert entry["anova"]["df"] == [2, 27]
        assert entry["anova"]["f_ratio"] == pytest.approx(23.47, abs=0.01)
        assert entry["anova"]["prob_gt_f"] < 1e-4
        assert len(entry["shapiro_wilk"]) == 3
        assert len(entry["pairwise_t"]) == 3
        rows = _read_csv(out / "stats.csv")
        assert rows[0] == ["response", "effect", "F_ratio", "prob_gt_F"]

    def test_two_identical_groups(self, tmp_path):
        path = tmp_path / "resp.csv"
        path.write_text(
            "group,observation\n" +
            "".join(f"a,{v}\n" for v in (1, 2, 3, 4)) +
            "".join(f"b,{v}\n" for v in (1, 2, 3, 4))
        )
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "stats", "--inputs", path) == 0
        entry = json.loads((out / "stats.json").read_text())["responses"][0]
        assert entry["anova"]["f_ratio"] == pytest.approx(0.0, abs=1e-12)
        assert entry["anova"]["prob_gt_f"] == pytest.approx(1.0, abs=1e-12)

    def test_single_group_reports_error(self, tmp_path, capsys):
        path = tmp_path / "solo.csv"
        path.write_text("group,observation\nonly,1\nonly,2\n")
        out = tmp_path / "out"
        code = run_cli("--output-dir", out, "stats", "--inputs", path)
        assert code == 2
        entry = json.loads((out / "stats.json").read_text())["responses"][0]
        assert ">= 2 groups" in entry["error"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_observation_names_file_and_line(self, tmp_path, capsys, value):
        path = tmp_path / "resp.csv"
        path.write_text(f"group,observation\na,1\na,2\nb,3\nb,{value}\n")
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "stats", "--inputs", path) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CliError"
        assert f"{path}: line 5: not a finite number" in record["message"]
        assert not (out / "stats.json").exists()

    def test_jobs_do_not_change_bytes(self, fixtures_dir, tmp_path):
        extra = tmp_path / "second.csv"
        extra.write_text(
            "group,observation\n" +
            "".join(f"a,{v}\n" for v in (1.0, 2.0, 3.5, 2.2)) +
            "".join(f"b,{v}\n" for v in (4.0, 5.5, 6.1, 5.0))
        )
        outputs = {}
        for jobs in (1, 8):
            out = tmp_path / f"j{jobs}"
            code = run_cli(
                "--output-dir", out, "--jobs", str(jobs), "stats",
                "--inputs", fixtures_dir / "stats" / "height_accuracy.csv", extra,
            )
            assert code == 0
            outputs[jobs] = {
                name: (out / name).read_bytes() for name in ("stats.json", "stats.csv")
            }
        assert outputs[1] == outputs[8]


class TestDesirabilityCommand:
    def test_four_variant_ranking(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "desirability",
            "--profile", fixtures_dir / "desirability" / "profile.json",
            "--candidates", fixtures_dir / "desirability" / "candidates.csv",
        )
        assert code == 0
        rows = _read_csv(out / "desirability_ranking.csv")
        assert rows[0][:3] == ["rank", "label", "D"]
        assert rows[1][1] == "yolov5m"
        assert 0.90 <= float(rows[1][2]) <= 1.0
        assert rows[-1][1] == "yolov5x" and float(rows[-1][2]) == 0.0

    def test_missing_response_names_candidate(self, fixtures_dir, tmp_path, capsys):
        bad = tmp_path / "cands.csv"
        bad.write_text("label,response,value\nonly,map50,0.9\n")
        code = run_cli(
            "--output-dir", tmp_path / "out", "desirability",
            "--profile", fixtures_dir / "desirability" / "profile.json",
            "--candidates", bad,
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert "only" in record["message"] and "accuracy_wb" in record["message"]


    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_candidate_names_file_and_line(self, fixtures_dir, tmp_path, capsys, value):
        bad = tmp_path / "cands.csv"
        bad.write_text(f"label,response,value\nm,map50,0.9\nm,accuracy_wb,{value}\n")
        code = run_cli(
            "--output-dir", tmp_path / "out", "desirability",
            "--profile", fixtures_dir / "desirability" / "profile.json",
            "--candidates", bad,
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CliError"
        assert record["message"] == f"{bad}: line 3: not a finite number: {value!r}"

    def test_malformed_profile_names_file_and_position(self, fixtures_dir, tmp_path, capsys):
        bad = tmp_path / "profile.json"
        bad.write_text('{"goals": [\n  {"name": "map50",}\n]}\n')
        code = run_cli(
            "--output-dir", tmp_path / "out", "desirability",
            "--profile", bad,
            "--candidates", fixtures_dir / "desirability" / "candidates.csv",
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CliError"
        assert record["message"].startswith(f"{bad}: invalid JSON at line 2 column 20: ")


    def test_goal_missing_key_names_profile_goal_and_key(self, fixtures_dir, tmp_path, capsys):
        bad = tmp_path / "profile.json"
        bad.write_text(json.dumps({"goals": [{"name": "map50", "direction": "larger-is-better"}]}))
        code = run_cli(
            "--output-dir", tmp_path / "out", "desirability",
            "--profile", bad,
            "--candidates", fixtures_dir / "desirability" / "candidates.csv",
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CliError"
        assert record["message"] == f"{bad}: goal 0: missing key 'low'"

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('{"goals": ["map50"]}', "goal 0: expected an object"),
            ("7", "expected a list of goals"),
            ('{"goals": 5}', "expected a list of goals"),
        ],
    )
    def test_profile_entry_of_the_wrong_type_names_profile(
        self, fixtures_dir, tmp_path, capsys, text, problem
    ):
        bad = tmp_path / "profile.json"
        bad.write_text(text)
        code = run_cli(
            "--output-dir", tmp_path / "out", "desirability",
            "--profile", bad,
            "--candidates", fixtures_dir / "desirability" / "candidates.csv",
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CliError"
        assert record["message"].startswith(f"{bad}: {problem}")


    @pytest.mark.parametrize(
        "goal, problem",
        [
            ({"low": float("-inf")}, "goal 0: low must be a finite number, got -inf"),
            ({"weight": float("nan")}, "goal 0: weight must be a finite number, got nan"),
            ({"name": ["map50"]}, "goal 0: goal name must be a non-empty string, got ['map50']"),
        ],
    )
    def test_bad_goal_value_names_profile_and_goal(self, tmp_path, capsys, goal, problem):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps([{
            "name": "map50", "direction": "larger-is-better", "low": 0.0, "middle": 0.5, "high": 1.0,
            **goal,
        }]))
        candidates = tmp_path / "cands.csv"
        candidates.write_text("label,response,value\nm1,map50,0.3\nm2,map50,0.4\n")
        code = run_cli(
            "--output-dir", tmp_path / "out", "desirability",
            "--profile", profile, "--candidates", candidates,
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CliError"
        assert record["message"] == f"{profile}: {problem}"
        assert not (tmp_path / "out").exists()


class TestJobs:
    @pytest.mark.parametrize("flag", ["--jobs=0", "--jobs=-3"])
    def test_flag_below_one_rejected(self, fixtures_dir, tmp_path, capsys, flag):
        code = run_cli(
            "--output-dir", tmp_path / "out", flag, "stats",
            "--inputs", fixtures_dir / "stats" / "height_accuracy.csv",
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "jobs must be an integer of at least 1" in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [0, -3, 1.5, "2", True])
    def test_config_below_one_rejected(self, fixtures_dir, tmp_path, capsys, value):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"jobs": value}))
        code = run_cli(
            "--config", config, "--output-dir", tmp_path / "out", "stats",
            "--inputs", fixtures_dir / "stats" / "height_accuracy.csv",
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "jobs must be an integer of at least 1" in record["message"]
        assert not (tmp_path / "out").exists()


def test_write_json_refuses_non_finite_values(tmp_path):
    path = tmp_path / "doc.json"
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            write_json(path, {"W": value})
        assert not path.exists()


class TestReport:
    def _populate(self, fixtures_dir, out):
        run_cli(
            "--output-dir", out, "evaluate",
            "--ground-truth-dir", fixtures_dir / "detection" / "truth",
            "--predictions-dir", fixtures_dir / "detection" / "preds",
            "--class-registry", fixtures_dir / "detection" / "classes.txt",
        )
        run_cli(
            "--output-dir", out, "stats",
            "--inputs", fixtures_dir / "stats" / "height_accuracy.csv",
        )
        run_cli(
            "--output-dir", out, "desirability",
            "--profile", fixtures_dir / "desirability" / "profile.json",
            "--candidates", fixtures_dir / "desirability" / "candidates.csv",
        )

    def test_full_pipeline_sections_present(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        self._populate(fixtures_dir, out)
        assert run_cli("--output-dir", out, "report") == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["sections"]["evaluation"] != "absent"
        assert doc["sections"]["stats"] != "absent"
        assert doc["sections"]["desirability"] != "absent"
        text = (out / "report.txt").read_text()
        assert "mAP@50" in text and "%" in text

    def test_partial_run_marks_absent(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        run_cli(
            "--output-dir", out, "stats",
            "--inputs", fixtures_dir / "stats" / "height_accuracy.csv",
        )
        assert run_cli("--output-dir", out, "report") == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["sections"]["evaluation"] == "absent"
        assert doc["sections"]["stats"] != "absent"

    def test_rerun_is_byte_identical(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        self._populate(fixtures_dir, out)
        run_cli("--output-dir", out, "report")
        first = (out / "report.json").read_bytes()
        run_cli("--output-dir", out, "report")
        assert (out / "report.json").read_bytes() == first


class TestManifest:
    def test_digests_stable_across_reruns(self, fixtures_dir, tmp_path):
        manifests = []
        for run in ("a", "b"):
            out = tmp_path / run
            run_cli(
                "--output-dir", out, "evaluate",
                "--ground-truth-dir", fixtures_dir / "detection" / "truth",
                "--predictions-dir", fixtures_dir / "detection" / "preds",
                "--class-registry", fixtures_dir / "detection" / "classes.txt",
            )
            manifests.append(json.loads((out / "run_manifest.json").read_text()))
        a, b = manifests
        a.pop("created_utc"), b.pop("created_utc")
        # config snapshots differ only in output_dir
        a["config"].pop("output_dir"), b["config"].pop("output_dir")
        assert a == b

    def test_input_digests_equal_a_second_read_of_each_tree(self, fixtures_dir, tmp_path):
        # names whose part order differs from their string order, a
        # subdirectory, a file that is not YOLO text and an empty annotation
        truth, preds = tmp_path / "truth", tmp_path / "preds"
        for root in (truth, preds):
            for rel in ("a/x", "a-b/x", "a/x.txt", "sub/deep/z.txt", "notes.md"):
                (root / rel).parent.mkdir(parents=True, exist_ok=True)
                (root / rel).write_text(f"{root.name} {rel}\n")
        for name in ("img1.txt", "img2.txt"):
            shutil.copy(fixtures_dir / "detection" / "truth" / name, truth / name)
            shutil.copy(fixtures_dir / "detection" / "preds" / name, preds / name)
        for root in (truth, preds):
            (root / "empty.txt").write_text("")
            (root / "a-b.txt").write_text("")
        registry = fixtures_dir / "detection" / "classes.txt"
        runs = {
            "evaluate": (
                ["evaluate", "--ground-truth-dir", truth, "--predictions-dir", preds,
                 "--class-registry", registry],
                {"ground_truth_dir": truth, "predictions_dir": preds, "class_registry": registry},
            ),
            "tile": (
                ["tile", "--ground-truth-dir", truth, "--image-size", "832x832", "--class-registry", registry],
                {"ground_truth_dir": truth, "class_registry": registry},
            ),
            "augment": (
                ["augment", "--ground-truth-dir", truth, "--samples", "2", "--class-registry", registry],
                {"ground_truth_dir": truth},
            ),
        }
        for command, (argv, inputs) in runs.items():
            out = tmp_path / command
            assert run_cli("--output-dir", out, *argv) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["input_digests"] == oracle_digest_inputs(inputs), command

    def test_evaluate_opens_each_input_file_once(self, fixtures_dir, tmp_path, monkeypatch):
        inputs = [tmp_path / "truth", tmp_path / "preds"]
        shutil.copytree(fixtures_dir / "detection" / "truth", inputs[0])
        shutil.copytree(fixtures_dir / "detection" / "preds", inputs[1])
        (inputs[0] / "notes.md").write_text("not parsed, still digested\n")
        registry = tmp_path / "classes.txt"
        shutil.copy(fixtures_dir / "detection" / "classes.txt", registry)
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.path.realpath(file) if isinstance(file, (str, os.PathLike)) else file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        code = run_cli(
            "--output-dir", tmp_path / "out", "evaluate",
            "--ground-truth-dir", inputs[0], "--predictions-dir", inputs[1],
            "--class-registry", registry,
        )
        monkeypatch.undo()
        assert code == 0
        files = [registry] + [p for root in inputs for p in root.rglob("*") if p.is_file()]
        assert len(files) == 6
        assert {str(f): opened.count(os.path.realpath(f)) for f in files} == {str(f): 1 for f in files}

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"no_such_key": 1}')
        code = run_cli("--config", config, "report")
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_removed_with_replacement_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"split": {"with_replacement": true}}')
        code = run_cli("--config", config, "--output-dir", tmp_path / "out", "report")
        assert code == 2
        assert "unknown config key: 'with_replacement'" in capsys.readouterr().err


# Per flag: the values given on the command line and the config values they
# must set, by dotted path. Paths are normalised as pathlib does.
FLAG_VALUES = {
    "--jobs": (["3"], {"jobs": 3}),
    "--seed": (["7"], {"seed": 7}),
    "--allow-partial": ([], {"allow_partial": True}),
    "--ground-truth-dir": (["gt//truth/"], {"ground_truth_dir": "gt/truth"}),
    "--class-registry": (["reg/./classes.txt"], {"class_registry": "reg/classes.txt"}),
    "--tile-size": (["320x240"], {"tile.width": 320, "tile.height": 240}),
    "--image-size": (["1600X1300"], {"tile.image_width": 1600, "tile.image_height": 1300}),
    "--image-sizes-csv": (["sizes//s.csv"], {"tile.image_sizes_csv": "sizes/s.csv"}),
    "--images-dir": (["img/"], {"tile.images_dir": "img"}),
    "--edge-policy": (["pad"], {"tile.edge_policy": "pad"}),
    "--min-visibility": (["0.25"], {"tile.min_visibility": 0.25}),
    "--samples": (["12"], {"augment.samples": 12}),
    "--ids-file": (["ids//list.txt"], {"split.ids_file": "ids/list.txt"}),
    "--ratio": (["7:2:1"], {"split.ratio": [7, 2, 1]}),
    "--sample-count": (["9"], {"split.sample_count": 9}),
    "--predictions-dir": (["pred/./x"], {"predictions_dir": "pred/x"}),
    "--iou-threshold": (["0.75"], {"iou_threshold": 0.75}),
    "--inputs": (["a.csv", "s//b.csv"], {"stats_inputs": ["a.csv", "s/b.csv"]}),
    "--profile": (["p//profile.json"], {"desirability_profile": "p/profile.json"}),
    "--candidates": (["c/./cands.csv"], {"candidates": "c/cands.csv"}),
}


def _paths(row):
    paths = row[2]
    return (paths,) if isinstance(paths, str) else paths


def _lookup(config, path):
    for key in path.split("."):
        config = config[key]
    return config


class TestFlagTable:
    def test_every_table_path_is_a_config_key(self):
        for row in cli._FLAGS:
            for path in _paths(row):
                *parents, key = path.split(".")
                node = DEFAULTS
                for part in parents:
                    node = node[part]
                assert key in node, path

    def test_every_flag_lands_at_its_config_path(self, tmp_path, monkeypatch):
        assert {row[1] for row in cli._FLAGS} == set(FLAG_VALUES) | {"--output-dir"}
        for row in cli._FLAGS:
            if row[1] != "--output-dir":
                assert set(_paths(row)) == set(FLAG_VALUES[row[1]][1])

        def record_config(config):
            cli._write_manifest(tmp_path / config["output_dir"], "probe", config, {})
            return 0

        for name, (_, text) in cli._COMMANDS.items():
            monkeypatch.setitem(cli._COMMANDS, name, (record_config, text))
        for command in cli._COMMANDS:
            rows = [r for r in cli._FLAGS if r[0] is None or command in r[0]]
            argv = ["--output-dir", f"runs//{command}/"]
            for row in rows:
                if row[0] is None and row[1] != "--output-dir":
                    argv += [row[1], *FLAG_VALUES[row[1]][0]]
            argv.append(command)
            for row in rows:
                if row[0] is not None:
                    argv += [row[1], *FLAG_VALUES[row[1]][0]]
            assert run_cli(*argv) == 0
            manifest = json.loads((tmp_path / "runs" / command / "run_manifest.json").read_text())
            config = manifest["config"]
            assert config["output_dir"] == f"runs/{command}"
            for row in rows:
                for path, value in FLAG_VALUES.get(row[1], ([], {}))[1].items():
                    assert _lookup(config, path) == value, (command, row[1], path)

    @pytest.mark.parametrize(
        "argv",
        [["tile", "--tile-size", "416"], ["tile", "--image-size", "axb"], ["split", "--ratio", "15:x:2"]],
    )
    def test_malformed_value_exits_2_with_error_record(self, tmp_path, capsys, argv):
        code = run_cli("--output-dir", tmp_path / "out", *argv)
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CliError"
        assert repr(argv[-1]) in record["message"]
        assert not (tmp_path / "out").exists()

    def test_removed_with_replacement_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("--output-dir", tmp_path / "out", "split", "--with-replacement")
        assert exc.value.code == 2
