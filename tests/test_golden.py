"""Golden digests of every command run in-process on the fixture corpus.

Each case runs one or more commands into its own output dir and is digested
as `bench/checks.artifact_digests` digests a workload: the names and bytes of
the artifacts, without `run_manifest.json` (it carries a timestamp), with the
output dir's path replaced by a token; the exit status and stdout of each
command are digested too. A change that alters any byte fails the test, which
prints the digests it got; `tests/golden_digests.json` is edited by hand."""

import hashlib
import json
from pathlib import Path

from deteval.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
MANIFEST = "run_manifest.json"

TILE = ("tile", "--ground-truth-dir", "fixtures/tiling", "--image-sizes-csv", "fixtures/tiling/image_sizes.csv")
EVALUATE = ("evaluate", "--ground-truth-dir", "fixtures/detection/truth",
            "--predictions-dir", "fixtures/detection/preds", "--class-registry", "fixtures/detection/classes.txt")
STATS = ("stats", "--inputs", "fixtures/stats/height_accuracy.csv")
DESIRABILITY = ("desirability", "--profile", "fixtures/desirability/profile.json",
                "--candidates", "fixtures/desirability/candidates.csv")
AUGMENT = ("--seed", "7", "augment", "--ground-truth-dir", "fixtures/tiling", "--samples", "20")
ROTATE_ZOOM = {"augment": {"operations": [
    {"op": "rotate", "probability": 1.0, "angles": [45]},
    {"op": "zoom_random", "probability": 0.6, "percentage_area": 0.5},
]}}


def _cases(tmp_path: Path) -> dict[str, list[tuple]]:
    """Case name -> the argvs run in order into the case's output dir; a
    dict in an argv is written as a config file and passed with --config."""
    partial_preds = tmp_path / "partial_preds"
    partial_preds.mkdir()
    (partial_preds / "img1.txt").write_bytes(Path("fixtures/detection/preds/img1.txt").read_bytes())
    ids_file = tmp_path / "tile_ids.txt"
    ids_file.write_text("".join(f"field01_{k:03d}\n" for k in range(16)))
    cases = {
        f"tile {policy} {visibility}": [(*TILE, "--edge-policy", policy, "--min-visibility", visibility)]
        for policy in ("anchor-to-edge", "pad")
        for visibility in ("0", "0.3", "1")
    }
    cases["augment default"] = [AUGMENT]
    cases["augment rotate 45 zoom"] = [(ROTATE_ZOOM, *AUGMENT)]
    for ratio in ("15:3:2", "1:1:1"):
        cases[f"split {ratio}"] = [("--seed", "3", "split", "--ids-file", ids_file, "--ratio", ratio)]
    for interpolation in ("all-point", "11-point"):
        cases[f"evaluate {interpolation}"] = [({"ap_interpolation": interpolation}, *EVALUATE)]
    cases["evaluate partial"] = [("--allow-partial", *EVALUATE[:3], "--predictions-dir", partial_preds, *EVALUATE[5:])]
    cases["evaluate stats desirability report"] = [EVALUATE, STATS, DESIRABILITY, ("report",)]
    return cases


def _run_case(argvs, out: Path, config: Path, capsys) -> str:
    digest = hashlib.sha256()
    token = str(out).encode()
    for argv in argvs:
        if isinstance(argv[0], dict):
            config.write_text(json.dumps(argv[0]))
            argv = ("--config", config, *argv[1:])
        argv = [str(a) for a in argv]
        status = main(["--output-dir", str(out), *argv])
        stdout = capsys.readouterr().out.encode().replace(token, b"<output-dir>")
        digest.update(f"exit {status}\n".encode() + stdout + b"\0")
    for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != MANIFEST):
        data = path.read_bytes().replace(token, b"<output-dir>")
        digest.update(path.relative_to(out).as_posix().encode() + b"\0" + data)
    return digest.hexdigest()


def test_fixture_runs_equal_golden_digests(fixtures_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(fixtures_dir.parent)  # inputs by relative path, as report.json records them
    cases = _cases(tmp_path)
    got = {
        name: _run_case(argvs, tmp_path / f"out{k}", tmp_path / f"config{k}.json", capsys)
        for k, (name, argvs) in enumerate(cases.items())
    }
    expected = json.loads(GOLDEN.read_text())
    if got != expected:
        print(json.dumps(got, indent=2, sort_keys=True))
    assert got == expected
