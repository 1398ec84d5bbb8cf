import builtins
import csv
import dataclasses
import errno
import gc
import hashlib
import io
import itertools
import json
import math
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
from deteval.config import DEFAULTS, SCHEMA, InputError, json_text, load_config, read_input


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


def _good_then_bad(tmp_path):
    """An annotation dir whose second file, b.txt, is malformed, and an empty
    output dir."""
    annots, out = tmp_path / "annots", tmp_path / "out"
    annots.mkdir(), out.mkdir()
    (annots / "a.txt").write_text("0 0.500000 0.500000 0.200000 0.200000\n")
    (annots / "b.txt").write_text("0 0.5 0.5 0.2\n")
    return annots, out


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

    @staticmethod
    def tile_row(tmp_path, row, *flags):
        """`tile` of one 1600x1300 image `a` annotated by `row` into tmp_path/out."""
        src = tmp_path / "annot"
        src.mkdir()
        (src / "a.txt").write_text(row + "\n")
        (tmp_path / "sizes.csv").write_text("image_id,width_px,height_px\na,1600,1300\n")
        return run_cli("--output-dir", tmp_path / "out", "tile", "--ground-truth-dir", src,
                       "--image-sizes-csv", tmp_path / "sizes.csv", *flags)

    def test_box_whose_area_underflows_is_dropped(self, tmp_path):
        assert self.tile_row(tmp_path, "0 1e-200 1e-200 2e-200 2e-200") == 0
        assert list((tmp_path / "out" / "tiles").iterdir()) == []
        assert len((tmp_path / "out" / "discarded_tiles.txt").read_text().splitlines()) == 16

    def test_clipped_sliver_is_dropped_so_tiles_read_back(self, tmp_path):
        # the box crosses x = 416 px by 0.0001 px, a width written as 0.000000
        assert self.tile_row(tmp_path, "0 0.22375003125 0.115385 0.0725000625 0.076923", "--min-visibility", "0") == 0
        tiles = tmp_path / "out" / "tiles"
        assert sorted(p.name for p in tiles.iterdir()) == ["a_000.txt"]
        assert (tiles / "a_000.txt").read_text() == "0 0.860577 0.360578 0.278846 0.240384\n"
        assert run_cli("--output-dir", tmp_path / "again", "tile", "--ground-truth-dir", tiles,
                       "--image-size", "416x416") == 0

    def test_malformed_later_file_writes_nothing(self, tmp_path, capsys):
        annots, out = _good_then_bad(tmp_path)
        code = run_cli("--output-dir", out, "tile", "--ground-truth-dir", annots, "--image-size", "832x832")
        assert code == 2
        assert f"{annots / 'b.txt'}: line 1: " in json.loads(capsys.readouterr().err.strip())["message"]
        assert list(out.iterdir()) == []

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
            ("a,nan,100", "not an integer: 'nan'"),
            ("a,1_0,100", "not an integer: '1_0'"),
            ("a,100,\u0661\u0660", "not an integer: '\u0661\u0660'"),
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

    def test_image_sizes_csv_without_an_image_exits_2_naming_it(self, tmp_path, capsys):
        annots = tmp_path / "annots"
        annots.mkdir()
        for name in ("a.txt", "b.txt"):
            (annots / name).write_text("0 0.500000 0.500000 0.200000 0.200000\n")
        sizes = tmp_path / "sizes.csv"
        sizes.write_text("image_id,width_px,height_px\na,1600,1300\n")
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "tile", "--ground-truth-dir", annots, "--image-sizes-csv", sizes) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["error"], record["message"]) == ("CliError", "image_sizes_csv lacks entries for: ['b']")
        assert not out.exists()

    def test_repeated_image_size_row_names_file_and_line(self, tmp_path, capsys):
        annots = tmp_path / "annots"
        annots.mkdir()
        (annots / "a.txt").write_text("0 0.500000 0.500000 0.200000 0.200000\n")
        sizes = tmp_path / "sizes.csv"
        sizes.write_text("image_id,width_px,height_px\na,1600,1300\na,416,416\n")
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "tile", "--ground-truth-dir", annots, "--image-sizes-csv", sizes) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["error"], record["message"]) == ("CliError", f"{sizes}: line 3: image id 'a' is listed twice")
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["a,1600," + "9" * 400, f"a,{257 * 416},{256 * 416}"],
                             ids=["400 nines", "257x256 tiles"])
    def test_image_past_the_tile_cap_exits_2_writing_nothing(self, tmp_path, capsys, sizes):
        annots, out = tmp_path / "annots", tmp_path / "out"
        annots.mkdir()
        (annots / "a.txt").write_text("0 0.500000 0.500000 0.200000 0.200000\n")
        (tmp_path / "sizes.csv").write_text(f"image_id,width_px,height_px\n{sizes}\n")
        assert run_cli("--output-dir", out, "tile", "--ground-truth-dir", annots,
                       "--image-sizes-csv", tmp_path / "sizes.csv") == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "CliError", "message": "image 'a': image needs more than 65536 tiles of 416x416"}
        assert not out.exists()

    @pytest.mark.parametrize("side", ["9" * 400, str(2**53 + 1)], ids=["400 nines", "2**53 + 1"])
    def test_side_above_2_to_the_53_exits_2_writing_nothing(self, tmp_path, capsys, side):
        annots, out = tmp_path / "annots", tmp_path / "out"
        annots.mkdir()
        (annots / "a.txt").write_text("0 0.500000 0.500000 0.200000 0.200000\n")
        assert run_cli("--output-dir", out, "tile", "--ground-truth-dir", annots,
                       "--tile-size", f"{side}x416", "--image-size", f"{side}x1300") == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "CliError",
            "message": f"image 'a': image or tile side above 2**53: image {side}x1300, tile {side}x416"}
        assert not out.exists()

    @pytest.mark.parametrize("document", [{}, {"tile": {"image_width": 832}}], ids=["no size", "width only"])
    def test_unknown_image_size_exits_2_naming_the_ways_to_set_it(self, tmp_path, capsys, document):
        # an image beside its annotation file is not read for its size
        annots, out, config = tmp_path / "annots", tmp_path / "out", tmp_path / "cfg.json"
        annots.mkdir()
        (annots / "a.txt").write_text("0 0.500000 0.500000 0.200000 0.200000\n")
        (annots / "a.png").write_bytes(b"\x89PNG\r\n\x1a\n")
        config.write_text(json.dumps(document))
        assert run_cli("--config", config, "--output-dir", out, "tile", "--ground-truth-dir", annots) == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "CliError",
            "message": "image dimensions unknown: set tile.image_width/image_height or tile.image_sizes_csv"}
        assert not out.exists()

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

    def test_bad_annotation_is_reported_before_bad_image_sizes(self, tmp_path, capsys):
        annots, out = _good_then_bad(tmp_path)
        sizes = tmp_path / "sizes.csv"
        sizes.write_text("image_id,width_px,height_px\na,0,100\n")
        assert run_cli("--output-dir", out, "tile", "--ground-truth-dir", annots, "--image-sizes-csv", sizes) == 2
        assert json.loads(capsys.readouterr().err.strip())["message"].startswith(f"{annots / 'b.txt'}: line 1: ")


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

    def test_zoomed_box_whose_area_underflows_is_dropped(self, tmp_path):
        src = tmp_path / "annot"
        src.mkdir()
        (src / "a.txt").write_text("0 1e-200 1e-200 2e-200 2e-200\n")
        (tmp_path / "cfg.json").write_text(json.dumps({"augment": {"operations": [
            {"op": "zoom_random", "probability": 1.0, "percentage_area": 1.0}]}}))
        out = tmp_path / "out"
        assert run_cli("--config", tmp_path / "cfg.json", "--output-dir", out, "augment",
                       "--ground-truth-dir", src, "--samples", "2") == 0
        assert [p.read_text() for p in sorted((out / "augmented").iterdir())] == ["", ""]

    # The sizes of the kept 0.2 x 0.1 box show each case's premise: no zoom fires, and in the
    # second case a sample turns 90 or 270 degrees. Seed 13's one sample fires only the two flips.
    @pytest.mark.parametrize("seed, samples, sizes", [
        (13, 1, {("0.200000", "0.100000")}),
        (1, 3, {("0.200000", "0.100000"), ("0.100000", "0.200000")}),
    ], ids=["untouched", "right-angle turn"])
    def test_box_with_a_side_written_as_zero_is_dropped_so_samples_read_back(self, tmp_path, seed, samples, sizes):
        src = tmp_path / "annot"
        src.mkdir()
        (src / "a.txt").write_text("0 0.5 0.5 2e-7 0.1\n1 0.3 0.3 0.2 0.1\n")
        out = tmp_path / "out"
        assert run_cli("--seed", seed, "--output-dir", out, "augment", "--ground-truth-dir", src,
                       "--samples", samples) == 0
        rows = [row.split() for p in sorted((out / "augmented").iterdir()) for row in p.read_text().splitlines()]
        assert len(rows) == samples and all(row[0] == "1" for row in rows)
        assert {(row[3], row[4]) for row in rows} == sizes
        assert run_cli("--output-dir", tmp_path / "again", "tile", "--ground-truth-dir", out / "augmented",
                       "--image-size", "416x416") == 0

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

    def test_malformed_later_file_writes_nothing(self, tmp_path, capsys):
        annots, out = _good_then_bad(tmp_path)
        code = run_cli("--output-dir", out, "augment", "--ground-truth-dir", annots, "--samples", "2")
        assert code == 2
        assert f"{annots / 'b.txt'}: line 1: " in json.loads(capsys.readouterr().err.strip())["message"]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, flags", [("tile", ("--image-size", "832x832")), ("augment", ("--samples", "2"))],
                             ids=["tile", "augment"])
    def test_negative_class_id_exits_2_naming_the_line_writing_nothing(self, tmp_path, capsys, command, flags):
        annots, out = tmp_path / "annots", tmp_path / "out"
        annots.mkdir()
        (annots / "a.txt").write_text("0 0.5 0.5 0.1 0.1\n-1 0.25 0.25 0.1 0.1\n")
        assert run_cli("--output-dir", out, command, "--ground-truth-dir", annots, *flags) == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "CliError", "message": f"{annots / 'a.txt'}: line 2: class id must be non-negative: -1"}
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [("tile", ("--image-size", "832x832")), ("augment", ("--samples", "2"))],
                             ids=["tile", "augment"])
    def test_class_id_of_2_to_the_63_exits_2_naming_the_line_writing_nothing(self, tmp_path, capsys, command, flags):
        # int64 holds the class ids `evaluate` reads; every command keeps to it
        annots, out = tmp_path / "annots", tmp_path / "out"
        annots.mkdir()
        (annots / "a.txt").write_text(f"0 0.5 0.5 0.1 0.1\n{2**63} 0.2 0.2 0.1 0.1\n")
        assert run_cli("--output-dir", out, command, "--ground-truth-dir", annots, *flags) == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "CliError", "message": f"{annots / 'a.txt'}: line 2: class id must be below 2**63: {2**63}"}
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, written", [
        ("tile", ("--image-size", "832x832"), "tiles/a_000.txt"),
        ("augment", ("--samples", "1"), "augmented/a_aug0000.txt"),
    ], ids=["tile", "augment"])
    def test_largest_class_id_passes_without_a_registry(self, tmp_path, command, flags, written):
        annots, out = tmp_path / "annots", tmp_path / "out"
        annots.mkdir()
        (annots / "a.txt").write_text(f"{2**63 - 1} 0.2 0.2 0.1 0.1\n")
        assert run_cli("--output-dir", out, command, "--ground-truth-dir", annots, *flags) == 0
        rows = [line.split() for line in (out / written).read_text().splitlines()]
        assert [row[0] for row in rows] == [str(2**63 - 1)]

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

    @pytest.mark.parametrize("ids, argv, problem", [
        (None, ["--sample-count", "5"], "cannot draw 5 of 2 ids without replacement "
                                        "(split.sample_count is 5, split.ratio is [15, 3, 2], 2 ids in ground_truth_dir)"),
        ("a\nb\n", [], "2 ids leave the val partition empty; each partition needs at least 1 "
                       "(split.sample_count is null, split.ratio is [15, 3, 2], 2 ids in split.ids_file)"),
        ("a\nb\nc\n", ["--sample-count", "2"],
         "2 ids leave the val partition empty; each partition needs at least 1 "
         "(split.sample_count is 2, split.ratio is [15, 3, 2], 3 ids in split.ids_file)"),
    ], ids=["sample over ids", "too few ids", "too small a sample"])
    def test_id_count_error_names_the_key_and_the_source(self, fixtures_dir, tmp_path, capsys, ids, argv, problem):
        source = ["--ground-truth-dir", fixtures_dir / "detection" / "truth"]
        if ids is not None:
            (tmp_path / "ids.txt").write_text(ids)
            source = ["--ids-file", tmp_path / "ids.txt"]
        assert run_cli("--output-dir", tmp_path / "o", "split", *source, *argv) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["error"], record["message"]) == ("CliError", problem)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("n, argv, problem", [
        (3, [], "3 ids leave the test partition empty; each partition needs at least 1 "
                "(split.sample_count is null, split.ratio is [15, 3, 2], 3 ids in split.ids_file)"),
        (4, [], "4 ids leave the test partition empty; each partition needs at least 1 "
                "(split.sample_count is null, split.ratio is [15, 3, 2], 4 ids in split.ids_file)"),
        (10, ["--sample-count", "4"], "4 ids leave the test partition empty; each partition needs at least 1 "
                                      "(split.sample_count is 4, split.ratio is [15, 3, 2], 10 ids in split.ids_file)"),
        (3, ["--ratio", "1:1:5"], "3 ids leave the val partition empty; each partition needs at least 1 "
                                  "(split.sample_count is null, split.ratio is [1, 1, 5], 3 ids in split.ids_file)"),
    ], ids=["3 ids", "4 ids", "sample of 4", "val empty"])
    def test_count_that_leaves_a_partition_empty_exits_2(self, tmp_path, capsys, n, argv, problem):
        (tmp_path / "ids.txt").write_text("".join(f"img{k}\n" for k in range(n)))
        assert run_cli("--output-dir", tmp_path / "o", "split", "--ids-file", tmp_path / "ids.txt", *argv) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["error"], record["message"]) == ("CliError", problem)
        assert not (tmp_path / "o").exists()

    def test_empty_partition_names_the_ground_truth_dir(self, tmp_path, capsys):
        truth = tmp_path / "truth"
        truth.mkdir()
        for image_id in ("a", "b", "c", "d", "e"):
            (truth / f"{image_id}.txt").write_text("")
        assert run_cli("--output-dir", tmp_path / "o", "split", "--ground-truth-dir", truth) == 2
        assert json.loads(capsys.readouterr().err.strip())["message"] == (
            "5 ids leave the test partition empty; each partition needs at least 1 "
            "(split.sample_count is null, split.ratio is [15, 3, 2], 5 ids in ground_truth_dir)")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_id_is_refused_for_every_seed(self, tmp_path, capsys, seed):
        (tmp_path / "ids.txt").write_text("a\nb\na\nc\nd\ne\nf\n")
        argv = ["--seed", seed, "split", "--ids-file", tmp_path / "ids.txt", "--sample-count", "6", "--ratio", "1:1:1"]
        assert run_cli("--output-dir", tmp_path / "o", *argv) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["error"], record["message"]) == ("CliError", (
            "image id 'a' is listed more than once "
            "(split.sample_count is 6, split.ratio is [1, 1, 1], 7 ids in split.ids_file)"))
        assert not (tmp_path / "o").exists()

    def test_fewest_ids_that_fill_every_partition(self, tmp_path, capsys):
        (tmp_path / "ids.txt").write_text("".join(f"img{k}\n" for k in range(6)))
        assert run_cli("--output-dir", tmp_path / "o", "split", "--ids-file", tmp_path / "ids.txt") == 0
        assert "train=4 val=1 test=1" in capsys.readouterr().out

    def test_undecodable_ids_file_exits_2_naming_it(self, tmp_path, capsys):
        ids_file = tmp_path / "ids.txt"
        ids_file.write_bytes(b"img1\nimg\xff2\n")
        assert run_cli("--output-dir", tmp_path / "o", "split", "--ids-file", ids_file) == 2
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert message.startswith(f"{ids_file}: ") and "utf-8" in message
        assert not (tmp_path / "o").exists()


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

    def test_registry_of_no_class_exits_2_naming_it(self, tmp_path, capsys):
        for side in ("truth", "preds"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "a.txt").write_text("")
        (tmp_path / "classes.txt").write_text("")
        assert run_cli("--output-dir", tmp_path / "out", "evaluate", "--ground-truth-dir", tmp_path / "truth",
                       "--predictions-dir", tmp_path / "preds", "--class-registry", tmp_path / "classes.txt") == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "CliError", "message": f"class_registry lists no class: {tmp_path / 'classes.txt'}"}
        assert not (tmp_path / "out").exists()

    # SHA-256 of the fixture run's artifacts as `csv.writer` wrote the curves
    FIXTURE_DIGESTS = {
        "evaluation.json": "1b2e13ff4f2d8c53f782c623140eb63e68a6ce22db40875e163c4db6fe69e312",
        "pr_curve_bb.csv": "b055184cbd2983a8764fdd0567882304028d950f84e18e5860e14a15623c5998",
        "pr_curve_wb.csv": "cdea0856e63b319f5e168ad2f7b4f595855a977f312bd605119cd4f0a91512a2",
    }

    def test_fixture_artifacts_equal_pinned_digests(self, fixtures_dir, tmp_path):
        out = tmp_path / "out"
        assert self._run(fixtures_dir, out) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in self.FIXTURE_DIGESTS}
        assert digests == self.FIXTURE_DIGESTS

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

    @pytest.mark.parametrize("name, problem", [
        *((name, "class name must be") for name in ["a/b", "a\\b", "a\0b", "a/../../x"]),
        ("background", "class name 'background' is reserved for the confusion matrix"),
        # 243 UTF-8 bytes in 122 characters: pr_curve_<name>.csv would be 256 bytes
        ("x" + "é" * 121, "class name must be at most 242 UTF-8 bytes, got 243"),
    ], ids=["a/b", "a\\b", "a\0b", "a/../../x", "background", "243 bytes"])
    def test_class_name_that_is_no_file_name_exits_2_before_writing(
        self, fixtures_dir, tmp_path, capsys, name, problem
    ):
        registry = tmp_path / "classes.txt"
        registry.write_text(f"0 {name}\n1 bb\n")
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "evaluate",
            "--ground-truth-dir", fixtures_dir / "detection" / "truth",
            "--predictions-dir", fixtures_dir / "detection" / "preds",
            "--class-registry", registry,
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CliError"
        assert record["message"].startswith(f"{registry}: line 1: {problem}")
        assert not out.exists()

    def test_class_name_of_242_bytes_names_its_curve(self, fixtures_dir, tmp_path):
        name = "é" * 121  # 242 UTF-8 bytes: pr_curve_<name>.csv is a 255-byte file name
        registry = tmp_path / "classes.txt"
        registry.write_text(f"0 {name}\n1 bb\n", encoding="utf-8")
        out = tmp_path / "out"
        code = run_cli(
            "--output-dir", out, "evaluate",
            "--ground-truth-dir", fixtures_dir / "detection" / "truth",
            "--predictions-dir", fixtures_dir / "detection" / "preds",
            "--class-registry", registry,
        )
        assert code == 0
        assert len(f"pr_curve_{name}.csv".encode()) == 255
        assert (out / f"pr_curve_{name}.csv").is_file()

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

    @pytest.mark.parametrize("row, problem", [
        ("0 0.1_0 0.5 0.1 0.1", "not a number: '0.1_0'"),
        ("1_0 0.5 0.5 0.1 0.1", "class id is not an integer: '1_0'"),
        ("0 0.5 0.5 0.1 \u0660.\u0661", "not a number: '\u0660.\u0661'"),
        ("1.0 0.5 0.5 0.1 0.1", "class id is not an integer: '1.0'"),
        ("1.5 0.5 0.5 0.1 0.1", "class id is not an integer: '1.5'"),
        ("1e0 0.5 0.5 0.1 0.1", "class id is not an integer: '1e0'"),
    ])
    def test_number_outside_the_ascii_forms_exits_2_naming_the_line(self, fixtures_dir, tmp_path, capsys, row, problem):
        truth = tmp_path / "truth"
        shutil.copytree(fixtures_dir / "detection" / "truth", truth)
        text = (truth / "img2.txt").read_text()
        (truth / "img2.txt").write_text(text + row + "\n")
        code = run_cli(
            "--output-dir", tmp_path / "out", "evaluate", "--ground-truth-dir", truth,
            "--predictions-dir", fixtures_dir / "detection" / "preds",
            "--class-registry", fixtures_dir / "detection" / "classes.txt",
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "CliError", "message": f"{truth / 'img2.txt'}: line {len(text.splitlines()) + 1}: {problem}"}
        assert not (tmp_path / "out").exists()

    def test_class_id_of_2_to_the_63_exits_2_naming_the_line(self, fixtures_dir, tmp_path, capsys):
        # refused on its line as `tile` and `augment` refuse it, before the registry is asked
        truth = tmp_path / "truth"
        shutil.copytree(fixtures_dir / "detection" / "truth", truth)
        text = (truth / "img2.txt").read_text()
        (truth / "img2.txt").write_text(f"{text}{2**63} 0.2 0.2 0.1 0.1\n")
        code = run_cli(
            "--output-dir", tmp_path / "out", "evaluate", "--ground-truth-dir", truth,
            "--predictions-dir", fixtures_dir / "detection" / "preds",
            "--class-registry", fixtures_dir / "detection" / "classes.txt",
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "CliError",
            "message": f"{truth / 'img2.txt'}: line {len(text.splitlines()) + 1}: class id must be below 2**63: {2**63}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "bad, named",
        [
            (("preds/img1.txt", "truth/img2.txt"), "preds/img1.txt"),
            (("preds/img2.txt", "truth/img2.txt"), "truth/img2.txt"),
            (("preds/img2.txt",), "preds/img2.txt"),
        ],
    )
    def test_error_names_the_first_bad_file_in_image_order(self, fixtures_dir, tmp_path, capsys, bad, named):
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


    def test_too_deeply_nested_profile_exits_2_naming_it(self, fixtures_dir, tmp_path, capsys):
        bad = tmp_path / "profile.json"
        bad.write_text("[" * 100_000 + "]" * 100_000)
        code = run_cli(
            "--output-dir", tmp_path / "out", "desirability",
            "--profile", bad,
            "--candidates", fixtures_dir / "desirability" / "candidates.csv",
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CliError"
        assert record["message"].startswith(f"{bad}: maximum recursion depth exceeded")
        assert not (tmp_path / "out").exists()

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
            ({"low": float("-inf")}, "goal 0: low must be a finite number, got -Infinity"),
            ({"weight": float("nan")}, "goal 0: weight must be a finite number, got NaN"),
            ({"name": ["map50"]}, "goal 0: goal name must be a non-empty string, got ['map50']"),
            ({"low": 10**400}, f"goal 0: low must be a finite number, got {10**400}"),
            # one number grammar: a string, true or false is not a JSON number
            *(({key: value}, f"goal 0: {key} must be a finite number, got {json.dumps(value)}")
              for key in ("low", "middle", "high", "weight") for value in ("1_0", "\u0663", "0.9", True, False)),
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

    def test_a_goal_whose_span_overflows_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # middle - low overflowed to inf inside the map and wrote "1,a,nan,nan,false"
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"goals": [
            {"name": "m", "direction": "larger-is-better", "low": -1e308, "middle": 1e308, "high": 1.5e308},
        ]}))
        candidates = tmp_path / "cands.csv"
        candidates.write_text("label,response,value\na,m,1e308\nb,m,0\n")
        code = run_cli(
            "--output-dir", tmp_path / "out", "desirability",
            "--profile", profile, "--candidates", candidates,
        )
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CliError"
        assert record["message"] == (
            f"{profile}: goal 0: goal 'm': breakpoints -1e+308, 1e+308, 1.5e+308 span more than the largest float"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("low, middle, high", [
        (0.0, 5e-324, 1.0),
        (-3.666167959379102e-308, 0.0, 0.1),
    ])
    def test_a_response_on_the_middle_breakpoint_scores_one_half(self, tmp_path, low, middle, high):
        # a sits on the middle breakpoint and b one float above it, where the upper segment gives 0.5 exactly;
        # the old map gave a 0.0 for the first goal and 0.5000000000000001 for the second, so no tie
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps([
            {"name": "m", "direction": "larger-is-better", "low": low, "middle": middle, "high": high},
        ]))
        candidates = tmp_path / "cands.csv"
        above = math.nextafter(middle, math.inf)
        candidates.write_text(f"label,response,value\nb,m,{above!r}\na,m,{middle!r}\n")
        out = tmp_path / "out"
        code = run_cli("--output-dir", out, "desirability", "--profile", profile, "--candidates", candidates)
        assert code == 0
        assert _read_csv(out / "desirability_ranking.csv") == [
            ["rank", "label", "D", "d_m", "tied"],
            ["1", "a", "0.500000", "0.500000", "true"],
            ["2", "b", "0.500000", "0.500000", "true"],
        ]


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

    def test_output_dir_that_is_a_file_exits_3(self, fixtures_dir, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert self.desirability(fixtures_dir, out) == 3
        assert json.loads(capsys.readouterr().err.strip())["error"] == "FileExistsError"

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

    @pytest.mark.parametrize("case", [
        "required", "missing dir", "file as dir", "dir as file", "missing stats input", "no stats inputs",
        "no ids", "no annotation files", "no annotation files to split",
    ])
    def test_bad_input_path_exits_2_naming_it(self, fixtures_dir, tmp_path, capsys, case):
        detection = fixtures_dir / "detection"
        empty_dir, empty_file, missing = tmp_path / "empty", tmp_path / "empty.txt", tmp_path / "missing"
        empty_dir.mkdir()
        empty_file.write_text("")
        argv, problem = {
            "required": (["evaluate", "--ground-truth-dir", detection / "truth",
                          "--class-registry", detection / "classes.txt"],
                         "config key 'predictions_dir' is required for this command"),
            "missing dir": (["split", "--ground-truth-dir", missing], f"ground_truth_dir: not a directory: {missing}"),
            "file as dir": (["evaluate", "--ground-truth-dir", detection / "classes.txt",
                             "--predictions-dir", detection / "preds", "--class-registry", detection / "classes.txt"],
                            f"ground_truth_dir: not a directory: {detection / 'classes.txt'}"),
            "dir as file": (["evaluate", "--ground-truth-dir", detection / "truth",
                             "--predictions-dir", detection / "preds", "--class-registry", detection],
                            f"class_registry: not a file: {detection}"),
            "missing stats input": (["stats", "--inputs", fixtures_dir / "stats" / "height_accuracy.csv", missing],
                                    f"stats_inputs: not a file: {missing}"),
            "no stats inputs": (["stats"], "no stats inputs: set stats_inputs in the config or pass --inputs"),
            "no ids": (["split", "--ids-file", empty_file],
                       "0 ids leave the train partition empty; each partition needs at least 1 "
                       "(split.sample_count is null, split.ratio is [15, 3, 2], 0 ids in split.ids_file)"),
            "no annotation files to split": (["split", "--ground-truth-dir", empty_dir],
                                             f"no annotation files (*.txt) under {empty_dir}"),
            "no annotation files": (["evaluate", "--ground-truth-dir", empty_dir,
                                     "--predictions-dir", detection / "preds",
                                     "--class-registry", detection / "classes.txt"],
                                    f"no annotation files (*.txt) under {empty_dir}"),
        }[case]
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, *argv) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["error"], record["message"]) == ("CliError", problem)
        assert not out.exists()

    @pytest.mark.parametrize("command, document, key, shown", [
        ("evaluate", {"ground_truth_dir": 5}, "ground_truth_dir", "5"),
        ("evaluate", {"predictions_dir": ["preds"]}, "predictions_dir", '["preds"]'),
        ("evaluate", {"class_registry": 5}, "class_registry", "5"),
        ("tile", {"class_registry": True}, "class_registry", "true"),
        pytest.param("tile", {"tile": {"image_width": 832, "image_height": 832, "image_sizes_csv": 5}},
                     "tile.image_sizes_csv", "5", id="tile-document4-image_sizes_csv-5"),
        pytest.param("tile", {"tile": {"image_width": 832, "image_height": 832}, "output_dir": 5}, "output_dir", "5",
                     id="tile-document6-output_dir-5"),
        pytest.param("split", {"output_dir": 5}, "output_dir", "5", id="split-document7-output_dir-5"),
        pytest.param("split", {"split": {"ids_file": {"path": "ids.txt"}}}, "split.ids_file", '{"path": "ids.txt"}',
                     id='split-document8-ids_file-{"path": "ids.txt"}'),
        pytest.param("stats", {"stats_inputs": ["STATS", 5]}, "stats_inputs[1]", "5", id="stats-document9-stats_inputs-5"),
        pytest.param("desirability", {"desirability_profile": 1.5}, "desirability_profile", "1.5",
                     id="desirability-document10-desirability_profile-1.5"),
        pytest.param("desirability", {"candidates": [1]}, "candidates", "[1]",
                     id="desirability-document11-candidates-[1]"),
        pytest.param("report", {"output_dir": 5}, "output_dir", "5", id="report-document12-output_dir-5"),
    ])
    def test_path_value_that_is_not_a_string_exits_2(
        self, fixtures_dir, tmp_path, capsys, command, document, key, shown
    ):
        detection = fixtures_dir / "detection"
        stats_input = str(fixtures_dir / "stats" / "height_accuracy.csv")
        # every input path the command reads is good unless `document` sets it
        config = {
            "output_dir": str(tmp_path / "out"),
            "ground_truth_dir": str(detection / "truth"),
            "predictions_dir": str(detection / "preds"),
            "class_registry": str(detection / "classes.txt"),
            "desirability_profile": str(fixtures_dir / "desirability" / "profile.json"),
            "candidates": str(fixtures_dir / "desirability" / "candidates.csv"),
            **document,
        }
        config["stats_inputs"] = [stats_input if v == "STATS" else v for v in config.get("stats_inputs", ["STATS"])]
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        (tmp_path / "out").mkdir()  # report reads it
        assert run_cli("--config", tmp_path / "cfg.json", command) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["error"], record["message"]) == ("ConfigError", f"config key {key} must be a path, got {shown}")
        assert list((tmp_path / "out").iterdir()) == []

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


class TestNumberRule:
    """One number grammar for every input, numpy's ASCII one: a `_` separator
    or a digit outside ASCII, which Python's int() and float() take, is
    refused in a flag too."""

    @pytest.mark.parametrize("argv", [
        ["tile", "--tile-size", "1_0x416"], ["tile", "--tile-size", "416x\u0664\u0661\u0666"],
        ["tile", "--image-size", "1_600x1300"], ["tile", "--image-size", "\u0668\u0663\u0662x832"],
        ["split", "--ratio", "1_5:3:2"], ["split", "--ratio", "\u0661:1:1"],
    ])
    def test_size_or_ratio_flag_exits_2_naming_its_value(self, tmp_path, capsys, argv):
        assert run_cli("--output-dir", tmp_path / "out", *argv) == 2
        # a size names the flag it came from, as the two share one grammar
        expected = f"{argv[1]}: expected WxH (e.g. 416x416)" if argv[1] != "--ratio" else "expected ratio A:B:C"
        assert json.loads(capsys.readouterr().err) == {
            "error": "CliError", "message": f"{expected}, got {argv[2]!r}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, command, kind, value", [
        (flag, command, kind, value)
        for flag, command, kind in [("--seed", None, "integer"), ("--jobs", None, "integer"),
                                    ("--samples", "augment", "integer"), ("--sample-count", "split", "integer"),
                                    ("--iou-threshold", "evaluate", "number"), ("--min-visibility", "tile", "number")]
        for value in ["1_0", "\u0663", *(["nan", "inf"] if kind == "number" else [])]
    ])
    def test_number_flag_is_a_usage_error_naming_the_flag(self, tmp_path, capsys, flag, command, kind, value):
        argv = [flag, value, "split"] if command is None else [command, flag, value]
        with pytest.raises(SystemExit) as exc:
            run_cli("--output-dir", tmp_path / "out", *argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: invalid {kind} value: {value!r}\n")
        assert not (tmp_path / "out").exists()


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

    def test_missing_output_dir_exits_2_naming_it(self, tmp_path, capsys):
        assert run_cli("--output-dir", tmp_path / "missing", "report") == 2
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert message == f"output dir with prior command outputs not found: {tmp_path / 'missing'}"
        assert not (tmp_path / "missing").exists()

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

    @pytest.mark.parametrize("filename, data, problem", [
        ("evaluation.json", b'{"iou_threshold": 0.5, "per_class"', "invalid JSON at line 1 column 35"),
        ("evaluation.json", b"{}", "KeyError: 'iou_threshold'"),
        ("stats.json", b"[1, 2]", "TypeError"),
        ("desirability_ranking.csv", b"rank,label,D\n1,\xff,0.5\n", "utf-8"),
        ("desirability_ranking.csv", b"label\nv5s\n", "KeyError: 'rank'"),
        pytest.param("evaluation.json", b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded",
                     id="evaluation.json-nested-too-deep"),
    ])
    def test_bad_prior_output_exits_2_naming_it(self, fixtures_dir, tmp_path, capsys, filename, data, problem):
        out = tmp_path / "out"
        self._populate(fixtures_dir, out)
        (out / filename).write_bytes(data)
        capsys.readouterr()
        assert run_cli("--output-dir", out, "report") == 2
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert message.startswith(f"{out / filename}: ") and problem in message
        assert not (out / "report.json").exists()

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

    @pytest.mark.parametrize("row, fields", [("1,yolov5m", 2), ("2,yolov5s,0.5,0.5,false,extra", 6)],
                             ids=["short", "long"])
    def test_ranking_row_not_as_wide_as_its_header_exits_2_naming_its_line(self, tmp_path, capsys, row, fields):
        out = tmp_path / "out"
        out.mkdir()
        ranking = out / "desirability_ranking.csv"
        ranking.write_text(f"rank,label,D,d_map50,tied\n{row}\n")
        assert run_cli("--output-dir", out, "report") == 2
        message = json.loads(capsys.readouterr().err.strip())["message"]
        assert message == f"{ranking}: line 2: expected 5 fields, got {fields}"
        assert [path.name for path in out.iterdir()] == ["desirability_ranking.csv"]

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

    def test_owned_directories_exist_when_nothing_is_written_into_them(self, tmp_path):
        src = tmp_path / "annots"
        src.mkdir()
        (src / "a.txt").write_text("")  # an image without boxes keeps no tile
        assert run_cli("--output-dir", tmp_path / "tile", "tile", "--ground-truth-dir", src,
                       "--image-size", "832x832") == 0
        assert list((tmp_path / "tile" / "tiles").iterdir()) == []
        assert run_cli("--output-dir", tmp_path / "augment", "augment", "--ground-truth-dir", src,
                       "--samples", "0") == 0
        assert list((tmp_path / "augment" / "augmented").iterdir()) == []


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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"no_such_key": 1}')
        code = run_cli("--config", config, "report")
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("document, key", [
        ('{"split": {"with_replacement": true}}', "with_replacement"),
        ('{"tile": {"images_dir": "images"}}', "images_dir"),
    ], ids=["split.with_replacement", "tile.images_dir"])
    def test_removed_key_rejected(self, tmp_path, capsys, document, key):
        config = tmp_path / "cfg.json"
        config.write_text(document)
        code = run_cli("--config", config, "--output-dir", tmp_path / "out", "report")
        assert code == 2
        assert f"unknown config key: {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, document, problem", [
        ("tile", {"tile": 5}, "config key tile must be an object, got 5"),
        ("augment", {"tile": 5}, "config key tile must be an object, got 5"),
        ("evaluate", {"iou_threshold": {}}, "config key iou_threshold must be a number in (0, 1], got {}"),
        ("split", {"seed": []}, "config key seed must be an integer in [0, 2**64 - 1], got []"),
        ("augment", {"augment": {"samples": None}},
         "config key augment.samples must be an integer in [0, 10000], got null"),
        ("split", {"split": {"ratio": 5}}, "config key split.ratio must be an array of 3 items, got 5"),
        ("augment", {"augment": {"operations": 3}}, "config key augment.operations must be an array, got 3"),
        ("augment", {"augment": {"operations": [{"op": "rotate"}]}},
         'augment.operations[0] must be an object of "op", "probability" and optionally "angles" and '
         '"percentage_area", got {"op": "rotate"}'),
        ("augment", {"augment": {"operations": [{"op": "flip_left_right", "probability": 0.5}, 3]}},
         'augment.operations[1] must be an object of "op", "probability" and optionally "angles" and '
         '"percentage_area", got 3'),
        ("evaluate", {"allow_partial": "false"}, 'config key allow_partial must be true or false, got "false"'),
        ("evaluate", {"allow_partial": 0}, "config key allow_partial must be true or false, got 0"),
        ("split", {"split": {"ratio": [[], 1, 1]}}, "split.ratio[0] must be an integer of at least 1, got []"),
        ("split", {"split": {"ratio": ["a", 1, 1]}}, 'split.ratio[0] must be an integer of at least 1, got "a"'),
    ])
    def test_value_of_the_wrong_kind_exits_2(self, fixtures_dir, tmp_path, capsys, command, document, problem):
        detection = fixtures_dir / "detection"
        argv = {
            "tile": ["--ground-truth-dir", detection / "truth", "--image-size", "832x832"],
            "augment": ["--ground-truth-dir", detection / "truth", "--samples", "2"],
            "split": ["--ground-truth-dir", detection / "truth"],
            "evaluate": ["--ground-truth-dir", detection / "truth", "--predictions-dir", detection / "preds",
                         "--class-registry", detection / "classes.txt"],
        }[command]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(document))
        assert run_cli("--config", config, "--output-dir", tmp_path / "out", command, *argv) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError" and problem in record["message"]
        assert not (tmp_path / "out").exists()

    def test_number_given_as_a_string_is_refused(self, fixtures_dir, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        for text, key in [('{"seed": "7"}', "seed"), ('{"augment": {"samples": "2"}}', "augment.samples")]:
            config.write_text(text)
            code = run_cli("--config", config, "--output-dir", tmp_path / "out", "augment",
                           "--ground-truth-dir", fixtures_dir / "detection" / "truth")
            assert code == 2
            record = json.loads(capsys.readouterr().err.strip())
            assert record["error"] == "ConfigError" and record["message"].startswith(f"config key {key} must be ")
            assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("argv", [["split", "--with-replacement"], ["tile", "--images-dir", "images"]],
                             ids=["--with-replacement", "--images-dir"])
    def test_removed_flag_is_a_usage_error(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli("--output-dir", tmp_path / "out", *argv)
        assert exc.value.code == 2


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

    def test_good_config_runs(self, fixtures_dir, tmp_path):
        assert self.augment(fixtures_dir, tmp_path) == 0
        assert (tmp_path / "out" / "run_manifest.json").is_file()

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

    @pytest.mark.parametrize("kind", ["missing", "directory", "not UTF-8", "nested too deeply"])
    def test_config_that_cannot_be_read_exits_2(self, tmp_path, capsys, kind):
        config = tmp_path / "cfg.json"
        if kind == "directory":  # holding a file `read_input` would read
            config.mkdir()
            (config / "a.txt").write_text("{}")
        elif kind == "not UTF-8":
            config.write_bytes(b'{"seed": "\xff"}')
        elif kind == "nested too deeply":  # for the JSON decoder's recursion
            config.write_text("[" * 100_000 + "]" * 100_000)
        (tmp_path / "ids.txt").write_text("a\nb\nc\n")
        assert run_cli("--config", config, "--output-dir", tmp_path / "out", "split",
                       "--ids-file", tmp_path / "ids.txt") == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"cannot read config {config}: ")
        assert record["message"].count(str(config)) <= 2  # the prefix and the OS error, once each
        assert not (tmp_path / "out").exists()

    def test_config_that_is_a_directory_or_missing_says_why(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        for problem in (f"[Errno 2] No such file or directory: '{config}'", f"not a file: {config}"):
            assert run_cli("--config", config, "--output-dir", tmp_path / "out", "report") == 2
            assert json.loads(capsys.readouterr().err.strip()) == {
                "error": "ConfigError", "message": f"cannot read config {config}: {problem}"}
            config.mkdir(exist_ok=True)
        assert not (tmp_path / "out").exists()

    def test_config_whose_root_is_not_an_object_exits_2(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("[1]\n")
        assert run_cli("--config", config, "--output-dir", tmp_path / "out", "report") == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "ConfigError", "message": f"config root must be a JSON object: {config}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("operation, problem", [
        ({"op": "zoom_random", "probability": 0.5}, "zoom_random needs percentage_area in (0,1]: None"),
        ({"op": "rotate", "probability": 0.5, "angles": []}, "rotate needs a non-empty angle set"),
    ])
    def test_operation_augment_cannot_run_is_refused_by_every_command(self, tmp_path, capsys, operation, problem):
        (tmp_path / "cfg.json").write_text(json.dumps({"augment": {"operations": [operation]}}))
        (tmp_path / "ids.txt").write_text("a\nb\nc\n")
        assert run_cli("--config", tmp_path / "cfg.json", "--output-dir", tmp_path / "out", "split",
                       "--ids-file", tmp_path / "ids.txt") == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert (record["error"], record["message"]) == ("ConfigError", f"config key augment.operations[0]: {problem}")
        assert not (tmp_path / "out").exists()

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
