import builtins
import csv
import dataclasses
import errno
import gc
import hashlib
import io
import itertools
import json
import os
import re
import shutil
import sys
import tempfile
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deteval import cli, metrics
from deteval.cli import main
from deteval.config import DEFAULTS, EDGE_POLICY, SCHEMA, ConfigError, InputError, json_text, load_config, read_input


def run_cli(*argv):
    return main([str(a) for a in argv])


def oracle_digest_inputs(paths):
    """Reference input digests: every input read a second time, after the
    command, by an independent listing of each directory's `*.txt` files."""

    def sha256_file(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def sha256_tree(path):
        digest = hashlib.sha256()
        for child in sorted(p for p in Path(path).glob("*.txt") if p.is_file()):
            digest.update(child.name.encode("utf-8"))
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

    @pytest.mark.parametrize("size, count", [("4000x2500", 1000), ("4200x4200", 1764)])
    def test_tile_ids_sort_in_tile_order(self, tmp_path, size, count):
        # ids keep 3 digits up to 1,000 tiles and take as many as the last index needs beyond
        src = tmp_path / "annot"
        src.mkdir()
        (src / "big.txt").write_text("0 0.5 0.5 0.1 0.1\n")
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "tile", "--ground-truth-dir", src,
                       "--tile-size", "100x100", "--image-size", size) == 0
        ids = [row[0] for row in _read_csv(out / "tiles_manifest.csv")[1:]]
        digits = max(3, len(str(count - 1)))
        assert ids == [f"big_{k:0{digits}d}" for k in range(count)] == sorted(ids)


class TestAugment:
    def test_samples_past_four_digit_ids_are_refused_before_any_draw(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        from deteval import prep

        monkeypatch.setattr(prep, "augment", lambda *args: pytest.fail("a sample was drawn"))
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "augment", "--ground-truth-dir", fixtures_dir / "detection" / "truth",
                       "--samples", "10001") == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "ConfigError", "message": "config key augment.samples must be an integer in [0, 10000], got 10001"}
        assert not out.exists()
        assert load_config(None, {"augment": {"samples": 10_000}})["augment"]["samples"] == 10_000

    def test_outputs_do_not_depend_on_the_tile_keys(self, fixtures_dir, tmp_path):
        outputs = []
        for k, tile in enumerate([{}, {"image_width": 1600, "image_height": 1300}, {"width": 32, "height": 64}]):
            (tmp_path / f"cfg{k}.json").write_text(json.dumps({"tile": tile}))
            out = tmp_path / f"out{k}"
            assert run_cli("--config", tmp_path / f"cfg{k}.json", "--output-dir", out, "--seed", "5", "augment",
                           "--ground-truth-dir", fixtures_dir / "tiling", "--samples", "6") == 0
            artifacts = (p for p in out.rglob("*.*") if p.name != "run_manifest.json")
            outputs.append({p.relative_to(out): p.read_bytes() for p in artifacts})
        assert outputs[0] == outputs[1] == outputs[2] and len(outputs[0]) == 7

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

    def test_fewest_ids_that_fill_every_partition(self, tmp_path, capsys):
        (tmp_path / "ids.txt").write_text("".join(f"img{k}\n" for k in range(6)))
        assert run_cli("--output-dir", tmp_path / "o", "split", "--ids-file", tmp_path / "ids.txt") == 0
        assert "train=4 val=1 test=1" in capsys.readouterr().out


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

    @staticmethod
    def csv_writer_curve(points) -> bytes:
        """Reference PR-curve CSV: the points as `csv.writer` writes f-string cells."""
        text = io.StringIO(newline="")
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(["threshold", "precision", "recall"])
        writer.writerows((f"{t:.6f}", f"{p:.6f}", f"{r:.6f}") for t, p, r in points)
        return text.getvalue().encode("utf-8")

    def test_pr_curve_csv_equals_csv_writer_rendering(self, fixtures_dir, tmp_path, monkeypatch):
        values = (0.0, -0.0, 5e-7, 0.9999995, 1 / 3, 1.0)
        points = tuple(itertools.product(values, repeat=3))
        evaluate_detections = metrics.evaluate_detections

        def with_points(*args, **kwargs):
            report = evaluate_detections(*args, **kwargs)
            per_class = tuple(
                dataclasses.replace(e, curve=metrics.PRCurve(e.curve.class_id, e.curve.npos, *np.array(points).T))
                for e in report.per_class
            )
            return dataclasses.replace(report, per_class=per_class)

        monkeypatch.setattr(metrics, "evaluate_detections", with_points)
        out = tmp_path / "out"
        assert self._run(fixtures_dir, out) == 0
        expected = self.csv_writer_curve(points)
        assert expected.count(b"\n") == 1 + len(values) ** 3
        for name in ("wb", "bb"):
            assert (out / f"pr_curve_{name}.csv").read_bytes() == expected

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

    @pytest.mark.parametrize("dirs", [("a", "b"), ("a", "a")], ids=["two dirs", "one path twice"])
    def test_two_inputs_of_one_response_exit_2_before_any_read(self, fixtures_dir, tmp_path, capsys, monkeypatch, dirs):
        paths = [tmp_path / d / "x.csv" for d in dirs]
        for path in paths:
            path.parent.mkdir(exist_ok=True)
            shutil.copy(fixtures_dir / "stats" / "height_accuracy.csv", path)
        monkeypatch.setattr(cli, "read_input", lambda path, kind: pytest.fail(f"{path} was read"))
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "stats", "--inputs", *reversed(paths)) == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "CliError",
            "message": f"stats_inputs: response 'x' is named by more than one input: {paths[0]}, {paths[1]}"}
        assert not out.exists()

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

    def test_standard_error_that_underflows_is_a_degenerate_t(self, tmp_path):
        # the pooled variance is subnormal, and its standard error rounds to zero
        path = tmp_path / "tiny_se.csv"
        path.write_text("group,observation\n" + "a,0\n" * 4 + "a,6.309573444801943e-162\n" + "b,1\n" * 5)
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "stats", "--inputs", path) == 0
        (t,) = json.loads((out / "stats.json").read_text())["responses"][0]["pairwise_t"]
        assert t["degenerate"] and t["t"] == "-inf" and t["p_value"] == 0.0

    @pytest.mark.filterwarnings("error")  # an overflow warning would precede the error record
    def test_non_finite_statistic_fails_only_its_response(self, fixtures_dir, tmp_path, capsys):
        fixture = fixtures_dir / "stats" / "height_accuracy.csv"
        huge, tiny = tmp_path / "huge.csv", tmp_path / "tiny.csv"
        # sums of squares overflow in every group and in the ANOVA
        huge.write_text("group,observation\na,1e308\na,-1e308\na,1e308\nb,1e308\nb,-1e308\nb,-1e308\n")
        # group a's squares underflow, so its W is 0/0; the ANOVA is finite
        tiny.write_text("group,observation\na,1e-300\na,2e-300\na,4e-300\nb,1\nb,2\nb,4\n")
        assert run_cli("--output-dir", tmp_path / "alone", "stats", "--inputs", fixture) == 0
        alone = json.loads((tmp_path / "alone" / "stats.json").read_text())["responses"]
        capsys.readouterr()

        assert run_cli("--output-dir", tmp_path / "huge_out", "stats", "--inputs", fixture, huge) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["context"] == {"responses": ["huge"]}
        fixture_entry, entry = json.loads((tmp_path / "huge_out" / "stats.json").read_text())["responses"]
        assert fixture_entry == alone[0]
        assert entry["error"].startswith("a sum of squares is not finite")
        assert [g["error"][:15] for g in entry["shapiro_wilk"]] == ["W is not finite"] * 2

        assert run_cli("--output-dir", tmp_path / "tiny_out", "stats", "--inputs", fixture, tiny) == 0
        fixture_entry, entry = json.loads((tmp_path / "tiny_out" / "stats.json").read_text())["responses"]
        assert fixture_entry == alone[0]
        assert "anova" in entry and "error" not in entry
        assert entry["shapiro_wilk"][0]["error"].startswith("W is not finite")
        assert entry["shapiro_wilk"][1]["W"] > 0

    def test_group_whose_w_rounds_to_1_gets_p_1(self, tmp_path):
        from deteval.stats import _sw_weights

        path = tmp_path / "exact.csv"
        path.write_text("group,observation\n" + "".join(f"a,{v!r}\n" for v in _sw_weights(4)) + "b,1\nb,2\nb,4\n")
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "stats", "--inputs", path) == 0
        group = json.loads((out / "stats.json").read_text())["responses"][0]["shapiro_wilk"][0]
        assert group == {"group": "a", "n": 4, "W": 1.0, "p_value": 1.0}


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


class TestOneShotProcess:
    def test_main_keeps_the_collector_and_run_turns_it_off(self, fixtures_dir, tmp_path, monkeypatch):
        argv = ["--output-dir", str(tmp_path / "out"), "desirability",
                "--profile", str(fixtures_dir / "desirability" / "profile.json"),
                "--candidates", str(fixtures_dir / "desirability" / "candidates.csv")]
        assert gc.isenabled()
        assert main(argv) == 0
        assert gc.isenabled()
        monkeypatch.setattr(sys, "argv", ["deteval", *argv])
        try:
            assert cli.run() == 0
            assert not gc.isenabled() and gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
            gc.enable()


class TestParser:
    def test_main_builds_the_parser_once_and_keeps_no_flag_between_calls(self, tmp_path):
        ids = tmp_path / "ids.txt"
        ids.write_text("".join(f"id{k}\n" for k in range(8)))
        cli._build_parser.cache_clear()
        assert run_cli("--seed", "7", "--allow-partial", "--output-dir", tmp_path / "first", "split",
                       "--ids-file", ids, "--ratio", "1:1:1") == 0
        assert run_cli("--output-dir", tmp_path / "second", "split", "--ids-file", ids) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        configs = [json.loads((tmp_path / run / "run_manifest.json").read_text())["config"]
                   for run in ("first", "second")]
        assert [(c["seed"], c["allow_partial"], c["split"]["ratio"]) for c in configs] == [
            (7, True, [1, 1, 1]), (0, False, [15, 3, 2])]


class TestExitStatus:
    """Status 2 when an input is bad or cannot be read, 3 when an output
    cannot be written."""

    @staticmethod
    def desirability(fixtures_dir, out, profile=None):
        return run_cli(
            "--output-dir", out, "desirability",
            "--profile", profile or fixtures_dir / "desirability" / "profile.json",
            "--candidates", fixtures_dir / "desirability" / "candidates.csv",
        )

    def test_missing_input_file_exits_2_naming_it(self, fixtures_dir, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert self.desirability(fixtures_dir, tmp_path / "out", missing) == 2
        assert str(missing) in json.loads(capsys.readouterr().err.strip())["message"]
        with pytest.raises(InputError) as exc:
            read_input(missing, "file")
        assert str(missing) in str(exc.value)

    def test_unreadable_input_exits_2_naming_it(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        profile = fixtures_dir / "desirability" / "profile.json"
        os_open = os.open

        def denied(path, *args, **kwargs):
            if os.fspath(path) == str(profile):
                raise PermissionError(errno.EACCES, "Permission denied", str(path))
            return os_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", denied)
        assert self.desirability(fixtures_dir, tmp_path / "out") == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InputError"
        assert str(profile) in record["message"]

    def test_failed_write_exits_3(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        def disk_full(path, *args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(Path, "write_bytes", disk_full)
        assert self.desirability(fixtures_dir, tmp_path / "out") == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "OSError"
        assert "No space left on device" in record["message"]

    def test_failed_second_write_leaves_no_manifest(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        written = []
        write_bytes = Path.write_bytes

        def disk_full_on_second(path, data):
            written.append(path.name)
            if len(written) == 2:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", disk_full_on_second)
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "evaluate",
            "--ground-truth-dir", fixtures_dir / "detection" / "truth",
            "--predictions-dir", fixtures_dir / "detection" / "preds",
            "--class-registry", fixtures_dir / "detection" / "classes.txt",
        )
        assert code == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "OSError"
        assert written[0] == "evaluation.json" and written[1].startswith("pr_curve_")
        assert sorted(p.name for p in out.iterdir()) == ["evaluation.json"]


# Values a mutated input token takes: extreme numbers, non-finite words, forms
# that Python's int() and float() accept (an underscore, an Arabic-Indic digit),
# separators that str.split takes for whitespace and csv does not, a
# byte-order mark and an empty field.
_HOSTILE = ("1e-200", "1e308", "9" * 400, "-0", "nan", "inf", "1_0", "\u0663", "\v", "\f", "\ufeff", "")

# Each command's argv, with its input paths relative to a copy of the fixture
# corpus, and the input files in it that a mutation may hit.
_FUZZ_COMMANDS = {
    "evaluate": (
        ["evaluate", "--ground-truth-dir", Path("detection/truth"), "--predictions-dir", Path("detection/preds"),
         "--class-registry", Path("detection/classes.txt")],
        ["detection/truth/img1.txt", "detection/truth/img2.txt", "detection/preds/img1.txt",
         "detection/preds/img2.txt", "detection/classes.txt"],
    ),
    "tile": (
        ["tile", "--ground-truth-dir", Path("tiling"), "--image-sizes-csv", Path("tiling/image_sizes.csv")],
        ["tiling/field01.txt", "tiling/image_sizes.csv"],
    ),
    "augment": (
        ["augment", "--ground-truth-dir", Path("detection/truth"), "--samples", "2"],
        ["detection/truth/img1.txt", "detection/truth/img2.txt"],
    ),
    "stats": (["stats", "--inputs", Path("stats/height_accuracy.csv")], ["stats/height_accuracy.csv"]),
    "desirability": (
        ["desirability", "--profile", Path("desirability/profile.json"),
         "--candidates", Path("desirability/candidates.csv")],
        ["desirability/profile.json", "desirability/candidates.csv"],
    ),
}


class TestMutationFuzz:
    """A command whose fixture input has 1-3 tokens replaced by hostile values
    exits 0 or 2, never 1. Exit 2 writes nothing but `stats`' documents,
    which carry each response's error; exit 0 writes tiles and augmented
    samples that `tile` reads back."""

    @given(
        st.sampled_from(sorted(_FUZZ_COMMANDS)),
        st.integers(0, 4),
        st.lists(st.tuples(st.integers(0, 999), st.sampled_from(_HOSTILE), st.booleans()), min_size=1, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    # a box moved onto the left edge (in tile also made a 1e-200 sliver): tiles and samples are written and read back
    @example("tile", 0, [(1, "-0", False), (4, "1e-200", False)])
    @example("augment", 1, [(1, "-0", False), (3, "\v", True)])
    # a 400-digit image width, and a 400-digit int in the profile that float() cannot hold
    @example("tile", 1, [(4, "9" * 400, False)])
    @example("desirability", 0, [(40, "9" * 400, False)])
    def test_mutated_input_exits_0_or_2(self, fixtures_dir, command, target, mutations):
        argv, targets = _FUZZ_COMMANDS[command]
        target = targets[target % len(targets)]
        with tempfile.TemporaryDirectory() as scratch:
            root, out = Path(scratch) / "in", Path(scratch) / "out"
            shutil.copytree(fixtures_dir, root)
            text = (root / target).read_text(encoding="utf-8")
            # a token is a run of characters other than whitespace and the CSV and JSON punctuation
            tokens = [m.span() for m in re.finditer(r'[^\s,:{}\[\]"]+', text)]
            # token k becomes the value, or the value followed by the token; the last mutation of a token wins
            chosen = {tokens[k % len(tokens)]: (value, keep) for k, value, keep in mutations}
            for (start, end), (value, keep) in sorted(chosen.items(), reverse=True):
                text = text[:start] + value + (text[start:end] if keep else "") + text[end:]
            (root / target).write_text(text, encoding="utf-8")
            code = run_cli("--output-dir", out, *(root / a if isinstance(a, Path) else a for a in argv))
            written = sorted(p.name for p in out.rglob("*") if p.is_file()) if out.exists() else []
            assert code in (0, 2), (target, text)
            if code == 2:
                allowed = ["run_manifest.json", "stats.csv", "stats.json"] if command == "stats" else []
                assert written in ([], allowed), (target, text, written)
            for produced in (out / "tiles", out / "augmented"):
                if code == 0 and any(produced.glob("*.txt")):
                    again = run_cli("--output-dir", Path(scratch) / "again", "tile", "--ground-truth-dir",
                                    produced, "--image-size", "416x416")
                    assert again == 0, (target, text)


class TestInputPaths:
    """Each input path comes from a config value: an unset value, a value
    that is not a path, a missing input or one of the wrong kind exits 2,
    names the config key and writes nothing."""

    @pytest.mark.parametrize("command", ["tile", "evaluate --allow-partial"])
    def test_output_dir_read_as_an_input_dir_exits_2_naming_both_keys(self, fixtures_dir, tmp_path, capsys, command):
        # tile's discarded_tiles.txt and report's report.txt would be read back as images;
        # the second path names the output dir through a symlink, so paths are compared as files
        detection, out = fixtures_dir / "detection", tmp_path / "out"
        if command == "tile":
            shutil.copytree(detection / "truth", out)
            argv, key = ["tile", "--ground-truth-dir", out, "--image-size", "832x832"], "ground_truth_dir"
        else:
            shutil.copytree(detection / "preds", out)
            assert run_cli("--output-dir", out, "report") == 0
            (tmp_path / "link").symlink_to(out)
            argv = ["--allow-partial", "evaluate", "--ground-truth-dir", detection / "truth",
                    "--predictions-dir", tmp_path / "link", "--class-registry", detection / "classes.txt"]
            key = "predictions_dir"
        before = {p: p.read_bytes() for p in out.iterdir()}
        assert run_cli("--output-dir", out, *argv) == 2
        record = json.loads(capsys.readouterr().err.strip())
        value = out if key == "ground_truth_dir" else tmp_path / "link"
        assert record == {"error": "CliError",
                          "message": f"{key} and output_dir are one directory, whose outputs it would read: {value}"}
        assert {p: p.read_bytes() for p in out.iterdir()} == before

    def test_directory_inside_the_output_dir_is_read(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "tile", "--ground-truth-dir", fixtures_dir / "detection" / "truth",
                       "--image-size", "832x832") == 0
        assert run_cli("--output-dir", out, "split", "--ground-truth-dir", out / "tiles", "--ratio", "1:1:1") == 0
        assert json.loads((out / "run_manifest.json").read_text())["command"] == "split"


def test_json_text_refuses_non_finite_values():
    assert json_text({"W": 0.5}) == '{\n  "W": 0.5\n}\n'
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            json_text({"W": value})


class TestReadInput:
    """`read_input` reads each file whole through one unbuffered descriptor."""

    def test_empty_file(self, tmp_path):
        (tmp_path / "empty.txt").write_bytes(b"")
        assert read_input(tmp_path / "empty.txt", "file") == b""
        assert read_input(tmp_path, "directory") == {"empty": b""}

    def test_file_of_several_reads(self, tmp_path, monkeypatch):
        data = bytes(range(256)) * 700  # 175 KiB
        (tmp_path / "big.txt").write_bytes(data)
        sizes = []
        os_read = os.read

        def counting_read(fd, n):
            chunk = os_read(fd, n)
            sizes.append(len(chunk))
            return chunk

        monkeypatch.setattr(os, "read", counting_read)
        assert read_input(tmp_path / "big.txt", "file") == data
        assert len(sizes) > 2 and sizes[-1] == 0 and sum(sizes) == len(data)
        assert read_input(tmp_path, "directory") == {"big": data}

    def test_directory_is_its_txt_files(self, tmp_path):
        # regular `*.txt` files directly inside, by image id, in id order,
        # which is not name order ("a" < "a-b", "a-b.txt" < "a.txt"); not a
        # subdirectory or its files, a directory named like a text file, or
        # other names
        for rel in ("b.txt", "a-b.txt", "a.txt", "notes.md", "big.png", "a.TXT", "sub/c.txt"):
            (tmp_path / rel).parent.mkdir(exist_ok=True)
            (tmp_path / rel).write_text(rel)
        (tmp_path / "dir.txt").mkdir()
        files = read_input(tmp_path, "directory")
        assert list(files) == ["a", "a-b", "b"]
        assert files == {image_id: f"{image_id}.txt".encode() for image_id in files}

    def test_read_error_exits_2_naming_the_path(self, fixtures_dir, tmp_path, capsys, monkeypatch):
        def failing_read(fd, n):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(os, "read", failing_read)
        profile = fixtures_dir / "desirability" / "profile.json"
        truth = fixtures_dir / "detection" / "truth"
        # the first file that `read_input` reads from the directory
        first = truth / min(p.name for p in truth.glob("*.txt"))
        for path, kind, failed in ((profile, "file", profile), (truth, "directory", first)):
            with pytest.raises(InputError, match="Input/output error") as exc:
                read_input(path, kind)
            assert str(path) in str(exc.value) and str(failed) in str(exc.value)
        assert TestExitStatus.desirability(fixtures_dir, tmp_path / "out") == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "InputError"
        assert str(profile) in record["message"] and "Input/output error" in record["message"]


class TestImageIdOrder:
    """Commands take a directory's files by image id, in id order, which
    differs from the name order of the files: "a" < "a-b", but "a-b.txt" <
    "a.txt". The manifest still digests the files in name order."""

    @staticmethod
    def _dir(path, rows):
        path.mkdir()
        for image_id, row in rows.items():
            (path / f"{image_id}.txt").write_text(row + "\n")
        return path

    def test_tile_writes_its_rows_in_id_order(self, tmp_path):
        truth = self._dir(tmp_path / "truth", {"a-b": "0 0.2 0.2 0.1 0.1", "a": "1 0.7 0.7 0.1 0.1"})
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "tile", "--ground-truth-dir", truth, "--image-size", "832x832") == 0
        rows = _read_csv(out / "tiles_manifest.csv")[1:]
        assert [row[0] for row in rows] == [f"{i}_{k:03d}" for i in ("a", "a-b") for k in range(4)]
        assert (out / "discarded_tiles.txt").read_text().split() == ["a_000", "a_001", "a_002", "a-b_001",
                                                                     "a-b_002", "a-b_003"]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["input_digests"] == oracle_digest_inputs({"ground_truth_dir": truth})

    def test_evaluate_reads_both_sides_in_id_order(self, fixtures_dir, tmp_path, capsys):
        registry = fixtures_dir / "detection" / "classes.txt"
        truth = self._dir(tmp_path / "truth", {"a-b": "0 0.2 0.2 0.1 0.1", "a": "1 0.7 0.7 0.1 0.1"})
        preds = self._dir(tmp_path / "preds", {"a-b": "0 0.2 0.2 0.1 0.1 0.9", "a": "1 0.7 0.7 0.1 0.1 0.8"})
        argv = ["evaluate", "--ground-truth-dir", truth, "--predictions-dir", preds, "--class-registry", registry]
        assert run_cli("--output-dir", tmp_path / "out", *argv) == 0
        manifest = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        assert manifest["input_digests"] == oracle_digest_inputs(
            {"class_registry": registry, "ground_truth_dir": truth, "predictions_dir": preds})
        assert json.loads((tmp_path / "out" / "evaluation.json").read_text())["map50"] == 1.0
        # with both prediction files malformed, the first in id order is named
        for image_id in ("a", "a-b"):
            (preds / f"{image_id}.txt").write_text("0 0.5 0.5 0.1\n")
        assert run_cli("--output-dir", tmp_path / "bad", *argv) == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "CliError", "message": f"{preds / 'a.txt'}: line 1: expected 6 fields, got 4"}


def _run_metadata(fixtures_dir, out):
    """A config with run metadata and an output dir of no prior outputs; the global flags it takes."""
    out.mkdir()
    (out.parent / "metadata.json").write_text('{"run_metadata": "bag study, day 3"}')
    return ["--config", out.parent / "metadata.json"]


def _class_without_boxes(fixtures_dir, out):
    """An evaluation whose registry has a class no truth or prediction holds."""
    (out.parent / "classes.txt").write_text("0 wb\n1 bb\n2 xb\n")
    assert run_cli("--output-dir", out, "evaluate", "--ground-truth-dir", fixtures_dir / "detection" / "truth",
                   "--predictions-dir", fixtures_dir / "detection" / "preds",
                   "--class-registry", out.parent / "classes.txt") == 0
    return []


def _failed_response(fixtures_dir, out):
    """Stats whose one response fails: its sums of squares overflow."""
    (out.parent / "overflow.csv").write_text("group,observation\na,1e308\na,-1e308\na,1e308\n"
                                             "b,1e308\nb,-1e308\nb,-1e308\n")
    assert run_cli("--output-dir", out, "stats", "--inputs", out.parent / "overflow.csv") == 2
    return []


class TestReport:
    @pytest.mark.parametrize("prepare, line", [
        (_run_metadata, "metadata: bag study, day 3"),
        (_class_without_boxes, "  degenerate: ap[xb], precision[xb], recall[xb], f1[xb], accuracy[xb]"),
        (_failed_response, "  overflow: error: a sum of squares is not finite: the observations are too large"),
    ], ids=["metadata", "degenerate", "failed-response"])
    def test_report_line(self, fixtures_dir, tmp_path, prepare, line):
        out = tmp_path / "out"
        flags = prepare(fixtures_dir, out)
        assert run_cli(*flags, "--output-dir", out, "report") == 0
        assert line in (out / "report.txt").read_text().splitlines()

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
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert "created_utc" in manifest
        del manifest["created_utc"]
        assert doc["manifest"] == manifest

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

    @pytest.mark.parametrize("filename, field, constant", [
        ("evaluation.json", '"iou_threshold": 0.5', "NaN"),
        ("evaluation.json", '"map50": ', "Infinity"),
        ("stats.json", '"grand_mean": ', "-Infinity"),
    ])
    def test_non_finite_prior_output_exits_2_naming_it(
        self, fixtures_dir, tmp_path, capsys, filename, field, constant
    ):
        out = tmp_path / "out"
        self._populate(fixtures_dir, out)
        text = (out / filename).read_text()
        start = text.index(field) + len(field.split(":")[0]) + 2
        end = min(text.index(stop, start) for stop in (",", "\n") if stop in text[start:])
        (out / filename).write_text(text[:start] + constant + text[end:])
        capsys.readouterr()
        assert run_cli("--output-dir", out, "report") == 2
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert message == f"{out / filename}: not a finite number: {constant!r}"
        assert not (out / "report.json").exists()

    def test_crlf_ranking_reads_as_lf(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        self._populate(fixtures_dir, out)
        run_cli("--output-dir", out, "report")
        lf = (out / "report.txt").read_bytes()
        ranking = out / "desirability_ranking.csv"
        ranking.write_bytes(ranking.read_bytes().replace(b"\n", b"\r\n"))
        run_cli("--output-dir", out, "report")
        assert (out / "report.txt").read_bytes() == lf


def _fixture_chain(fixtures_dir, tmp_path):
    """Every command over the fixtures, each into its own output dir
    tmp_path/<command>: yields (command, its arguments, output dir) once the
    inputs it reads from an earlier command are in place; `report`'s dir
    holds copies of the outputs it reads, and nothing else."""
    tiling, detection, ids = fixtures_dir / "tiling", fixtures_dir / "detection", tmp_path / "ids.txt"
    runs = [
        ("tile", ["--ground-truth-dir", tiling, "--image-sizes-csv", tiling / "image_sizes.csv"]),
        ("augment", ["--ground-truth-dir", tmp_path / "tile" / "tiles", "--samples", "2"]),
        ("split", ["--ids-file", ids]),
        ("evaluate", ["--ground-truth-dir", detection / "truth", "--predictions-dir", detection / "preds",
                      "--class-registry", detection / "classes.txt"]),
        ("stats", ["--inputs", fixtures_dir / "stats" / "height_accuracy.csv"]),
        ("desirability", ["--profile", fixtures_dir / "desirability" / "profile.json",
                          "--candidates", fixtures_dir / "desirability" / "candidates.csv"]),
        ("report", []),
    ]
    for command, argv in runs:
        out = tmp_path / command
        if command == "split":
            ids.write_text("".join(row[0] + "\n" for row in _read_csv(tmp_path / "tile" / "tiles_manifest.csv")[1:]))
        if command == "report":
            out.mkdir()
            for prior in ("evaluate/evaluation.json", "stats/stats.json", "desirability/desirability_ranking.csv"):
                shutil.copy(tmp_path / prior, out)
        yield command, argv, out


class TestOneEnding:
    """`main` alone writes what a command returns, with the run manifest."""

    def _files(self, out):
        return sorted(str(p.relative_to(out)) for p in out.rglob("*")) if out.exists() else []

    def test_each_command_writes_once_after_it_returns(self, fixtures_dir, tmp_path, monkeypatch):
        calls = []
        write_outputs = cli._write_outputs

        def recording(out_dir, artifacts, manifest, owns):
            calls.append((out_dir, manifest["command"], self._files(out_dir), list(artifacts)))
            write_outputs(out_dir, artifacts, manifest, owns)

        monkeypatch.setattr(cli, "_write_outputs", recording)
        for command, argv, out in _fixture_chain(fixtures_dir, tmp_path):
            before = self._files(out)
            del calls[:]
            assert run_cli("--output-dir", out, command, *argv) == 0, command
            assert [call[:3] for call in calls] == [(out, command, before)], command
            written = {*before, "run_manifest.json", *calls[0][3]}
            written |= {str(Path(rel).parent) for rel in written} - {"."}
            assert self._files(out) == sorted(written), command


class TestOwnedEntries:
    """Each command writes only under the top-level entries of the output dir
    that its `_COMMANDS` entry owns, and makes each directory it owns."""

    def test_each_path_a_command_writes_falls_under_one_entry_it_owns(self, fixtures_dir, tmp_path):
        seen, commands = set(), []
        for command, argv, out in _fixture_chain(fixtures_dir, tmp_path):
            commands.append(command)
            before = set(out.rglob("*"))
            assert run_cli("--output-dir", out, command, *argv) == 0, command
            written = {path.relative_to(out).parts[0] for path in set(out.rglob("*")) - before}
            entries = {top + "/" if (out / top).is_dir() else top for top in written} - {"run_manifest.json"}
            owns = cli._COMMANDS[command].owns
            assert entries and all(sum(fnmatchcase(e, own) for own in owns) == 1 for e in entries), (command, entries)
            seen |= entries
        assert commands == list(cli._COMMANDS)
        # the owned directories and the family are among them
        assert {"tiles/", "augmented/"} <= seen and any(e.startswith("pr_curve_") for e in seen), seen

    def test_no_entry_is_owned_by_two_commands(self):
        entries = [entry for command in cli._COMMANDS.values() for entry in command.owns]
        for a, b in itertools.combinations(entries, 2):
            assert not (fnmatchcase(a, b) or fnmatchcase(b, a)), (a, b)
        assert "run_manifest.json" not in entries

    def test_each_report_section_reads_a_file_its_command_owns(self):
        sections = [(name, command.section) for name, command in cli._COMMANDS.items() if command.section]
        assert [(name, section[0]) for name, section in sections] == [
            ("evaluate", "evaluation"), ("stats", "stats"), ("desirability", "desirability")]
        for name, section in sections:
            assert section[1] in cli._COMMANDS[name].owns

    @pytest.mark.parametrize(
        "stray",
        ["stray.csv", "tiles/a.txt", "evaluation.json", "run_manifest.json", "../split.csv", "split_manifest.csv/a"],
    )
    def test_artifact_it_does_not_own_exits_1_writing_nothing(self, tmp_path, capsys, monkeypatch, stray):
        out, ids = tmp_path / "out", tmp_path / "ids.txt"
        out.mkdir()
        (out / "earlier.txt").write_text("kept\n")
        ids.write_text("a\nb\nc\n")
        split = cli._COMMANDS["split"]

        def with_stray(config, inputs):
            artifacts, summary = split.run(config, inputs)
            return {**artifacts, stray: "x\n"}, summary

        monkeypatch.setitem(cli._COMMANDS, "split", split._replace(run=with_stray))
        assert run_cli("--output-dir", out, "split", "--ids-file", ids, "--ratio", "1:1:1") == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "RuntimeError", "message": f"split does not own {stray!r}"}
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
            Path("ids.txt"), Path("out"), Path("out/earlier.txt")]


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
        assert set(a) == set(b) == {
            "schema_version", "toolkit_version", "command", "config", "input_digests", "created_utc"}
        a.pop("created_utc"), b.pop("created_utc")
        # config snapshots differ only in output_dir
        a["config"].pop("output_dir"), b["config"].pop("output_dir")
        assert a == b

    def test_input_digests_equal_a_second_read_of_each_tree(self, fixtures_dir, tmp_path, monkeypatch):
        # names whose id order differs from their string order (a-b.txt,
        # a.txt), subdirectories and a file that is not YOLO text, which are
        # not read, and an empty annotation
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
        sizes, ids = tmp_path / "sizes.csv", tmp_path / "ids.txt"
        sizes.write_text("image_id,width_px,height_px\n" + "".join(
            f"{i},832,832\n" for i in ("a-b", "empty", "img1", "img2")))
        ids.write_text("img1\nimg2\nimg3\n")
        # two stats inputs whose string order differs from the order given
        stats_inputs = [tmp_path / "z" / "b.csv", tmp_path / "a.csv"]
        for path in stats_inputs:
            path.parent.mkdir(exist_ok=True)
            shutil.copy(fixtures_dir / "stats" / "height_accuracy.csv", path)
        profile = fixtures_dir / "desirability" / "profile.json"
        candidates = fixtures_dir / "desirability" / "candidates.csv"
        chain = tmp_path / "chain"  # evaluate, stats and desirability write what report reads
        # command -> (output dir, arguments, the inputs it must digest, by manifest key)
        runs = {
            "evaluate": (chain, ["evaluate", "--ground-truth-dir", truth, "--predictions-dir", preds,
                                 "--class-registry", registry],
                         {"ground_truth_dir": truth, "predictions_dir": preds, "class_registry": registry}),
            "tile": (tmp_path / "tile", ["tile", "--ground-truth-dir", truth, "--image-size", "832x832",
                                         "--class-registry", registry],
                     {"ground_truth_dir": truth, "class_registry": registry}),
            "tile --image-sizes-csv": (
                tmp_path / "tile-sizes", ["tile", "--ground-truth-dir", truth, "--image-sizes-csv", sizes],
                {"ground_truth_dir": truth, "image_sizes_csv": sizes}),
            "augment": (tmp_path / "augment", ["augment", "--ground-truth-dir", truth, "--samples", "2",
                                               "--class-registry", registry],
                        {"ground_truth_dir": truth, "class_registry": registry}),
            # 1:1:1, so that 4 and 3 ids give every partition one
            "split": (tmp_path / "split", ["split", "--ground-truth-dir", truth, "--ratio", "1:1:1"],
                      {"ground_truth_dir": truth}),
            "split --ids-file": (tmp_path / "split-ids", ["split", "--ids-file", ids, "--ratio", "1:1:1"],
                                 {"ids_file": ids}),
            "stats": (chain, ["stats", "--inputs", *stats_inputs],
                      {"input_0": stats_inputs[1], "input_1": stats_inputs[0]}),
            "desirability": (chain, ["desirability", "--profile", profile, "--candidates", candidates],
                             {"desirability_profile": profile, "candidates": candidates}),
            "report": (chain, ["report"], {"evaluation": chain / "evaluation.json", "stats": chain / "stats.json",
                                           "desirability": chain / "desirability_ranking.csv"}),
        }
        # each command's `inputs` after it returns: a digest per input, no bytes
        recorded = []

        def recording(run):
            def command(config, inputs):
                result = run(config, inputs)
                recorded.append(dict(inputs))
                return result
            return command

        for name, command in cli._COMMANDS.items():
            monkeypatch.setitem(cli._COMMANDS, name, command._replace(run=recording(command.run)))
        for command, (out, argv, inputs) in runs.items():
            assert run_cli("--output-dir", out, *argv) == 0, command
            manifest = json.loads((out / "run_manifest.json").read_text())
            assert manifest["input_digests"] == oracle_digest_inputs(inputs), command
            assert recorded.pop() == manifest["input_digests"], command

    def test_evaluate_opens_each_input_file_once(self, fixtures_dir, tmp_path, monkeypatch):
        inputs = [tmp_path / "truth", tmp_path / "preds"]
        shutil.copytree(fixtures_dir / "detection" / "truth", inputs[0])
        shutil.copytree(fixtures_dir / "detection" / "preds", inputs[1])
        # not parsed, so not opened: a note, a file in a subdirectory, a large raster
        unread = [inputs[0] / "notes.md", inputs[0] / "sub" / "img3.txt", inputs[1] / "big.png"]
        unread[1].parent.mkdir()
        for path in unread[:2]:
            path.write_text("0 0.5 0.5 0.2 0.2\n")
        unread[2].write_bytes(bytes(1 << 22))
        registry = tmp_path / "classes.txt"
        shutil.copy(fixtures_dir / "detection" / "classes.txt", registry)
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.path.realpath(file) if isinstance(file, (str, os.PathLike)) else file)
            return real_open(file, *args, **kwargs)

        os_open = os.open

        def counting_os_open(file, *args, **kwargs):
            opened.append(os.path.realpath(file))
            return os_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(os, "open", counting_os_open)
        code = run_cli(
            "--output-dir", tmp_path / "out", "evaluate",
            "--ground-truth-dir", inputs[0], "--predictions-dir", inputs[1],
            "--class-registry", registry,
        )
        monkeypatch.undo()
        assert code == 0
        files = [registry] + [p for root in inputs for p in root.glob("*.txt")]
        assert len(files) == 5
        assert {str(f): opened.count(os.path.realpath(f)) for f in files} == {str(f): 1 for f in files}
        assert {str(f): opened.count(os.path.realpath(f)) for f in unread} == {str(f): 0 for f in unread}

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

        def record_config(config, inputs):
            return {}, ""  # `main` writes the manifest, config included

        monkeypatch.chdir(tmp_path)
        for name, command in cli._COMMANDS.items():
            monkeypatch.setitem(cli._COMMANDS, name, command._replace(run=record_config))
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

    def test_edge_policy_help_names_each_policy(self):
        with pytest.raises(ConfigError) as info:  # the kind's refusal lists its policies
            EDGE_POLICY(None, "edge_policy")
        policies = json.loads("[" + re.fullmatch(r".* one of (.*), got null", str(info.value)).group(1) + "]")
        (commands, _, _, options), = [row for row in cli._FLAGS if row[1] == "--edge-policy"]
        assert commands == ("tile",)
        assert options["help"].split(" or ") == policies


def _nested(key, value):
    """The config document that sets dotted `key` to `value`."""
    for name in reversed(key.split(".")):
        value = {name: value}
    return value


def _deep_merge(base, document):
    merged = dict(base)
    for name, value in document.items():
        both = isinstance(base.get(name), dict) and isinstance(value, dict)
        merged[name] = _deep_merge(base[name], value) if both else value
    return merged


def _schema_leaves(schema, prefix=""):
    for name, node in schema.items():
        if isinstance(node, dict):
            yield from _schema_leaves(node, f"{prefix}{name}.")
        else:
            yield prefix + name


_NOT_A_PATH = ["", 5, 1.5, True, ["a"], {"a": "b"}]
_NOT_AN_INTEGER = ["7", 7.9, 7.0, True, [7], {"n": 7}]
_NOT_A_NUMBER = ["0.5", True, [0.5], {"p": 0.5}, float("nan"), float("inf")]


def _operation(**fields):
    return [{"op": "rotate", "probability": 0.5, **fields}]


# Per config key: values of each kind the key does not take and values out of
# its range. A key whose default is not null is also given null. Each must
# exit 2, name the key and write nothing. `(value, named)` names an item or a
# field under the key.
BAD_CONFIG_VALUES = {
    "ground_truth_dir": _NOT_A_PATH,
    "predictions_dir": _NOT_A_PATH,
    "class_registry": _NOT_A_PATH,
    "output_dir": _NOT_A_PATH,
    "iou_threshold": _NOT_A_NUMBER + ["x", 0, -0.5, 1.5],
    "tile": [5, 1.5, "tile", True, [416]],
    "tile.width": _NOT_AN_INTEGER + [41.6, 0, -416],
    "tile.height": _NOT_AN_INTEGER + [0, -1],
    "tile.edge_policy": [5, 1.5, True, ["pad"], {"p": "pad"}, "Pad", "mirror"],
    "tile.min_visibility": _NOT_A_NUMBER + [-0.1, 1.5, 2],
    "tile.image_width": _NOT_AN_INTEGER + [[832], 0, -832],
    "tile.image_height": _NOT_AN_INTEGER + [0, -832],
    "tile.image_sizes_csv": _NOT_A_PATH,
    "augment": [5, 1.5, "augment", False, []],
    "augment.samples": _NOT_AN_INTEGER + [2.5, -1, 10_001],
    "augment.min_visibility": _NOT_A_NUMBER + [-0.1, 1.01, 2],
    "augment.operations": [
        3, 1.5, "rotate", True, {"op": "rotate", "probability": 0.5},
        ([3], "augment.operations[0]"),
        ([{"op": "rotate"}], "augment.operations[0]"),
        ([{"probability": 0.5}], "augment.operations[0]"),
        (_operation(weight=1), "augment.operations[0]"),
        (_operation(op="spin"), "augment.operations[0].op"),
        (_operation(op=3), "augment.operations[0].op"),
        (_operation(probability=True), "augment.operations[0].probability"),
        (_operation(probability="0.5"), "augment.operations[0].probability"),
        (_operation(probability=None), "augment.operations[0].probability"),
        (_operation(probability=1.5), "augment.operations[0].probability"),
        (_operation(angles=[True, "90"]), "augment.operations[0].angles[0]"),
        (_operation(angles=[90, "90"]), "augment.operations[0].angles[1]"),
        (_operation(angles=90), "augment.operations[0].angles"),
        (_operation(angles=[float("inf")]), "augment.operations[0].angles[0]"),
        (_operation(angles=[]), "augment.operations[0]"),
        (_operation(op="zoom_random"), "augment.operations[0]"),
        (_operation(percentage_area=0), "augment.operations[0].percentage_area"),
        (_operation(percentage_area=1.5), "augment.operations[0].percentage_area"),
        (_operation(percentage_area="0.8"), "augment.operations[0].percentage_area"),
    ],
    "split": [5, 1.5, "split", True, [15, 3, 2]],
    "split.ratio": [
        5, 1.5, "15:3:2", True, {"train": 15}, [15, 3], [15, 3, 2, 1],
        ([1.5, 3, 2], "split.ratio[0]"), ([True, 3, 2], "split.ratio[0]"), ([15, "3", 2], "split.ratio[1]"),
        ([15, 3, None], "split.ratio[2]"), ([0, 3, 2], "split.ratio[0]"), ([15, 3, -2], "split.ratio[2]"),
    ],
    "split.sample_count": _NOT_AN_INTEGER + [[3], 0, -1],
    "split.ids_file": _NOT_A_PATH,
    "stats_inputs": [
        "a.csv", 5, 1.5, True, {"a": "a.csv"},
        ([5], "stats_inputs[0]"), (["a.csv", ""], "stats_inputs[1]"), ([["a.csv"]], "stats_inputs[0]"),
    ],
    "ap_interpolation": [5, 1.5, True, ["all-point"], {"a": 1}, "all_point", "11"],
    "desirability_profile": _NOT_A_PATH,
    "candidates": _NOT_A_PATH,
    "run_metadata": [5, 1.5, True, ["run"], {"run": 1}],
    "seed": _NOT_AN_INTEGER + ["x", -1, -3, 2**64],
    "jobs": _NOT_AN_INTEGER + [0, -3],
    "allow_partial": ["false", "true", 0, 1, 1.0, [True], {"on": True}],
}


def _bad_config_cases():
    for key, values in BAD_CONFIG_VALUES.items():
        default = _lookup(DEFAULTS, key)
        for case in values + ([] if default is None else [None]):
            value, named = case if isinstance(case, tuple) else (case, key)
            yield pytest.param(key, value, named, id=f"{key}={json.dumps(value)}")


class TestConfigSchema:
    """Every config value, from the file or a flag, is converted and checked
    by its kind in `config.SCHEMA` when the config is loaded."""

    @staticmethod
    def augment(fixtures_dir, tmp_path, document=None):
        """`augment` run from a config that is good but for `document`."""
        base = {
            "output_dir": str(tmp_path / "out"),
            "ground_truth_dir": str(fixtures_dir / "detection" / "truth"),
            "augment": {"samples": 2},
        }
        (tmp_path / "cfg.json").write_text(json.dumps(_deep_merge(base, document or {})))
        return run_cli("--config", tmp_path / "cfg.json", "augment")

    def test_config_with_a_byte_order_mark_reads_as_without(self, tmp_path):
        (tmp_path / "ids.txt").write_text("".join(f"id{k}\n" for k in range(8)))
        document = b'{"seed": 3, "split": {"ratio": [1, 1, 1]}}\r\n'
        outputs = []
        for name, data in (("plain.json", document), ("bom.json", b"\xef\xbb\xbf" + document)):
            (tmp_path / name).write_bytes(data)
            out = tmp_path / name.replace(".json", "_out")
            assert run_cli("--config", tmp_path / name, "--output-dir", out, "split",
                           "--ids-file", tmp_path / "ids.txt") == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            outputs.append(((out / "split_manifest.csv").read_bytes(), manifest["config"]["seed"]))
        assert outputs[0] == outputs[1] and outputs[0][1] == 3

    @pytest.mark.parametrize("key, value, named", _bad_config_cases())
    def test_bad_value_exits_2_naming_the_key(self, fixtures_dir, tmp_path, capsys, key, value, named):
        assert self.augment(fixtures_dir, tmp_path, _nested(key, value)) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert f"config key {named} " in record["message"] or f"config key {named}:" in record["message"]
        assert not (tmp_path / "out").exists()

    def test_every_schema_key_has_bad_values(self):
        leaves = set(_schema_leaves(SCHEMA))
        assert leaves == set(_schema_leaves(DEFAULTS))
        assert leaves <= set(BAD_CONFIG_VALUES)
        assert set(BAD_CONFIG_VALUES) - leaves == {"tile", "augment", "split"}

    @pytest.mark.parametrize("argv, document", [pytest.param(*case, id=" ".join(case[0])) for case in [
        (["--seed", "-3", "augment"], {"seed": -3}),
        (["--seed", str(2**64), "split"], {"seed": 2**64}),
        (["--jobs", "0", "report"], {"jobs": 0}),
        (["evaluate", "--iou-threshold", "1.5"], {"iou_threshold": 1.5}),
        (["evaluate", "--iou-threshold", "0"], {"iou_threshold": 0.0}),
        (["tile", "--tile-size", "0x416"], {"tile": {"width": 0}}),
        (["tile", "--image-size", "832x-1"], {"tile": {"image_height": -1}}),
        (["tile", "--edge-policy", "mirror"], {"tile": {"edge_policy": "mirror"}}),
        (["tile", "--min-visibility", "2"], {"tile": {"min_visibility": 2.0}}),
        (["augment", "--samples", "-1"], {"augment": {"samples": -1}}),
        (["augment", "--samples", "10001"], {"augment": {"samples": 10_001}}),
        (["split", "--sample-count", "0"], {"split": {"sample_count": 0}}),
        (["split", "--ratio", "15:0:2"], {"split": {"ratio": [15, 0, 2]}}),
        (["split", "--ground-truth-dir", ""], {"ground_truth_dir": ""}),
        (["stats", "--inputs", "a.csv", ""], {"stats_inputs": ["a.csv", ""]}),
    ]])
    def test_flag_is_checked_as_its_config_key(self, tmp_path, capsys, argv, document):
        command = next(arg for arg in argv if arg in cli._COMMANDS)
        (tmp_path / "cfg.json").write_text(json.dumps(document))
        records = []
        for run in (["--output-dir", tmp_path / "out", *argv],
                    ["--config", tmp_path / "cfg.json", "--output-dir", tmp_path / "out", command]):
            assert run_cli(*run) == 2
            records.append(json.loads(capsys.readouterr().err.strip()))
            assert not (tmp_path / "out").exists()
        assert records[0] == records[1]
        assert records[0]["error"] == "ConfigError" and records[0]["message"].startswith("config key ")

    def test_manifest_records_the_converted_config(self, fixtures_dir, tmp_path):
        detection = fixtures_dir / "detection"
        (tmp_path / "cfg.json").write_text(json.dumps({"iou_threshold": 1, "tile": {"min_visibility": 0}}))
        assert run_cli(
            "--config", tmp_path / "cfg.json", "--output-dir", tmp_path / "out", "evaluate",
            "--ground-truth-dir", detection / "truth", "--predictions-dir", detection / "preds",
            "--class-registry", detection / "classes.txt",
        ) == 0
        config = json.loads((tmp_path / "out" / "run_manifest.json").read_text())["config"]
        assert (config["iou_threshold"], config["tile"]["min_visibility"]) == (1.0, 0.0)
        assert '"iou_threshold": 1.0,' in (tmp_path / "out" / "evaluation.json").read_text()

    def test_every_default_is_a_value_of_its_kind(self):
        assert load_config(None) == DEFAULTS
        assert load_config(None, DEFAULTS) == DEFAULTS

    def test_each_set_of_names_takes_every_name_the_program_defines(self):
        from deteval.metrics import AP_11_POINT, AP_ALL_POINT
        from deteval.prep import EDGE_ANCHOR, EDGE_PAD, OP_FLIP_LR, OP_FLIP_TB, OP_ROTATE, OP_ZOOM

        for policy in (EDGE_ANCHOR, EDGE_PAD):
            assert load_config(None, {"tile": {"edge_policy": policy}})["tile"]["edge_policy"] == policy
        for interpolation in (AP_ALL_POINT, AP_11_POINT):
            assert load_config(None, {"ap_interpolation": interpolation})["ap_interpolation"] == interpolation
        for name in (OP_ROTATE, OP_FLIP_LR, OP_FLIP_TB, OP_ZOOM):
            operation = {"op": name, "probability": 1, "percentage_area": 0.5}
            assert load_config(None, {"augment": {"operations": [operation]}})["augment"]["operations"] == [
                {"op": name, "probability": 1.0, "percentage_area": 0.5}
            ]
