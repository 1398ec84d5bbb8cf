"""Benchmark of the deteval CLI.

    python3 bench/run.py --workload eval-sparse --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed, then repeats the workload's
`deteval` command sequence for --seconds, checking every artifact after each
pass. With --trace 0 each command runs as a subprocess with tracing off and
the end-to-end metrics are reported; with --trace 1 the same commands are
replayed in-process through `deteval.cli.main` with spans around the calls
into each module, and the per-layer metrics are reported. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The lines before it give each metric's quartiles and sample count, the
machine, and the inputs; a fuller record, spans included, is written to
.bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import spans
from workloads import WORKLOADS, Workload, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PER_PASS = 2
MIN_SETUP_SAMPLES = 7
COMMAND_TIMEOUT_S = 60
STARTUP_RUNS = 5
HOST_REF_LOOP = 1_000_000

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "images_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
COMMANDS = ("tile", "augment", "split", "evaluate", "stats", "desirability", "report")
LAYER_TIMES = (
    "annotations.parse", "annotations.format",
    "metrics.evaluate", "metrics.match_same", "metrics.match_cross", "metrics.ap",
    "metrics.confusion",
    "config.load", "config.digest", "config.write_json",
    "prep.plan_tiles", "prep.retile", "prep.augment", "prep.split",
    "stats.shapiro", "stats.anova", "stats.ttest",
    "desirability.select",
)
LAYER_COUNTS = (
    "annotations.objects_parsed", "prep.tiles", "prep.augment_samples", "stats.responses",
)

NOTES = [
    "deteval.rasters is not measured: it needs Pillow, which is not installed.",
    "deteval.losses is not measured: no CLI command reaches it.",
    "split --with-replacement is left out: it fails whenever a draw repeats an id,"
    " a known correctness defect, not a performance path.",
    "ops_failed_ratio = failed / attempted CLI invocations; it is 0 on a correct"
    " build, so it is reported here and in the result's failed count, not as a"
    " gated metric.",
    "A layer a workload never calls reads 0 (metrics.* on study, prep.* on the"
    " eval workloads): --trace 1 reports every per-layer metric.",
    "host.ref_s times a fixed pure-Python loop before each pass; it is not"
    " a metric of the program, but tells host drift from a regression.",
]
_OUTPUT_IDS = itertools.count()


def deteval_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "deteval.cli", *args]


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: list[str], stdout, stderr) -> tuple[int, float, float, float]:
    """Run one process to completion: exit code, wall s, user+sys CPU s and
    peak RSS in MB, the last two from the child's own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), stdout=stdout, stderr=stderr)
    # A hung command is killed, and then fails like any other.
    watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Ledger:
    """Counts CLI invocations attempted and failed across a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, commands, bad: dict[str, str]) -> None:
        self.attempted += len(commands)
        self.failed += len(bad)
        self.reasons += [f"{name}: {why}" for name, why in sorted(bad.items())]


def judge(workload: Workload, exit_codes: dict[str, int], reference: dict | None) -> tuple[dict, dict]:
    """Failed commands of one pass, with reasons, and the pass's artifact
    digests. `reference` is the first pass's digests: artifacts must repeat
    byte for byte within a run."""
    bad = {name: f"exit {code}" for name, code in exit_codes.items() if code != 0}
    for name in checks.failed_commands(workload):
        bad.setdefault(name, "artifact check failed")
    digests = checks.artifact_digests(workload)
    if reference is not None:
        for name, digest in digests.items():
            if digest != reference[name]:
                bad.setdefault(name, "artifacts differ from the run's first pass")
    return bad, digests


def measure_setup(work: Path, ledger: Ledger, runs: int) -> list[float]:
    """Wall time of `deteval --version`: interpreter start, `import deteval`
    and the parser build that every invocation pays."""
    times = []
    out = work / "version.txt"
    for _ in range(runs):
        with open(out, "wb") as fh:
            code, wall, _, _ = spawn(deteval_argv(["--version"]), fh, subprocess.DEVNULL)
        ok = code == 0 and out.read_text().startswith("deteval ")
        ledger.record(["version"], {} if ok else {"version": f"exit {code}"})
        times.append(wall)
    return times


def host_reference() -> float:
    """Wall time of a fixed pure-Python loop, a reading of host speed."""
    start = time.perf_counter()
    total = 0
    for i in range(HOST_REF_LOOP):
        total += i * i
    return time.perf_counter() - start


def fresh_output(workload: Workload, work: Path) -> None:
    """Point the workload at a new, empty output dir under `work`. This and
    `discard_output` run outside the timed part of a pass, so each pass
    creates every file it writes."""
    out = work / f"out{next(_OUTPUT_IDS)}"
    out.mkdir()
    workload.target(out)


def discard_output(workload: Workload) -> None:
    shutil.rmtree(workload.out_dir)


def subprocess_pass(workload: Workload, work: Path, errlog, reference, ledger: Ledger) -> tuple[dict, dict]:
    fresh_output(workload, work)
    host = host_reference()
    codes = {}
    cpu = rss = 0.0
    start = time.perf_counter()
    for command in workload.commands:
        code, _, c, r = spawn(deteval_argv(command.argv), subprocess.DEVNULL, errlog)
        codes[command.name] = code
        cpu += c
        rss = max(rss, r)
    wall = time.perf_counter() - start
    bad, digests = judge(workload, codes, reference)
    ledger.record(workload.commands, bad)
    discard_output(workload)
    sample = {
        "wall_s": wall,
        "images_per_s": workload.images / wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "host.ref_s": host,
    }
    return sample, digests


def run_untraced(workload: Workload, seconds: float, work: Path, ledger: Ledger) -> dict[str, list[float]]:
    """Passes of the command sequence until `seconds` have elapsed. Set-up
    samples are taken between passes, so they see the same machine as the
    passes do."""
    samples: dict[str, list[float]] = {"setup_s": []}
    reference = None
    deadline = time.perf_counter() + seconds
    with open(work / "stderr.txt", "ab") as errlog:
        while reference is None or time.perf_counter() < deadline:
            samples["setup_s"] += measure_setup(work, ledger, SETUP_PER_PASS)
            sample, digests = subprocess_pass(workload, work, errlog, reference, ledger)
            reference = reference or digests
            for key, value in sample.items():
                samples.setdefault(key, []).append(value)
    shortfall = MIN_SETUP_SAMPLES - len(samples["setup_s"])
    samples["setup_s"] += measure_setup(work, ledger, max(shortfall, 0))
    return samples


def _startup_samples() -> dict[str, list[float]]:
    """Interpreter start, `import deteval.cli` beyond it, and numpy's
    cumulative import time as `-X importtime` reports it."""
    interp, imported, numpy_s = [], [], []
    for _ in range(STARTUP_RUNS):
        interp.append(spawn([sys.executable, "-c", "pass"], subprocess.DEVNULL, subprocess.DEVNULL)[1])
        imported.append(
            spawn([sys.executable, "-c", "import deteval.cli"], subprocess.DEVNULL, subprocess.DEVNULL)[1]
        )
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import deteval.cli"],
            env=child_env(), capture_output=True, text=True, check=True,
        )
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                numpy_s.append(int(fields[1]) / 1e6)
    base = statistics.median(interp)
    return {
        "startup.interp_s": interp,
        "startup.import_s": [t - base for t in imported],
        "startup.numpy_import_s": numpy_s or [0.0],
    }


def _replay(workload: Workload, main, tracer: spans.Tracer | None) -> dict[str, int]:
    """Run the command sequence in-process; exit code per command."""
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for command in workload.commands:
            span = tracer.span(f"cli.{command.name}") if tracer else contextlib.nullcontext()
            try:
                with span:
                    codes[command.name] = main(command.argv)
            except SystemExit as exc:
                codes[command.name] = exc.code if isinstance(exc.code, int) else 1
    return codes


def _checked_replay(workload, work, cli, metrics, tracer, reference, ledger: Ledger) -> tuple[float, dict]:
    """One in-process replay, traced when `tracer` is given: its wall time
    and what it wrote. Its artifacts must equal the subprocess run's."""
    fresh_output(workload, work)
    start = time.perf_counter()
    if tracer is None:
        codes = _replay(workload, cli.main, None)
    else:
        with spans.instrument(tracer, cli, metrics):
            codes = _replay(workload, cli.main, tracer)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.finish()
    bad, _ = judge(workload, codes, reference)
    ledger.record(workload.commands, bad)
    files, nbytes = _output_size(workload.out_dir)
    written = {"cli.files_written": files, "cli.bytes_written": nbytes, "metrics.matched_pairs": 0}
    if "evaluate" in workload.expect and "evaluate" not in bad:
        written["metrics.matched_pairs"] = checks.matched_pairs(workload)
    discard_output(workload)
    return elapsed, written


def _output_size(out_dir: Path) -> tuple[int, int]:
    files = [p for p in out_dir.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_traced(workload: Workload, seconds: float, work: Path, seed: int, ledger: Ledger):
    """Per-layer metrics from spans around an in-process replay. Untraced and
    traced replays alternate; their ratio is the tracing overhead."""
    with open(work / "stderr.txt", "ab") as errlog:
        _, reference = subprocess_pass(workload, work, errlog, None, ledger)
    samples = _startup_samples()

    sys.path.insert(0, str(SRC))
    import deteval.cli as cli
    import deteval.metrics as metrics

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"deteval imported from {cli.__file__}, not from {SRC}")

    tracers = []
    deadline = time.perf_counter() + seconds
    while not tracers or time.perf_counter() < deadline:
        tracer = spans.Tracer(f"{workload.name}:{seed}:{len(tracers)}")
        samples.setdefault("host.ref_s", []).append(host_reference())
        # Alternate which replay goes first, so drift does not bias the ratio.
        order = (None, tracer) if len(tracers) % 2 == 0 else (tracer, None)
        replays = {id(t): _checked_replay(workload, work, cli, metrics, t, reference, ledger) for t in order}
        elapsed, written = replays[id(tracer)]
        tracers.append(tracer)

        for layer in LAYER_TIMES:
            samples.setdefault(f"{layer}_s", []).append(tracer.layer_time(layer))
        for command in COMMANDS:
            samples.setdefault(f"cli.{command}_s", []).append(tracer.layer_time(f"cli.{command}"))
        samples.setdefault("cli.self_s", []).append(
            sum(s.self_s for s in tracer.spans if s.name.startswith("cli."))
        )
        samples.setdefault("trace.overhead_ratio", []).append(elapsed / replays[id(None)][0])

    last = tracers[-1]
    counts = {name: last.counts.get(name, 0) for name in LAYER_COUNTS}
    counts.update(written)
    counts["metrics.candidate_pairs"] = workload.candidate_pairs
    for name, value in counts.items():
        samples[name] = [value]
    matched = counts["metrics.matched_pairs"]
    samples["metrics.match_yield"] = [matched / workload.candidate_pairs if workload.candidate_pairs else 0.0]
    return samples, last


def per_layer_units() -> dict[str, str]:
    units = {"startup.interp_s": "s", "startup.import_s": "s", "startup.numpy_import_s": "s"}
    units.update({f"{layer}_s": "s" for layer in LAYER_TIMES})
    units.update({name: "count" for name in LAYER_COUNTS + ("metrics.matched_pairs",)})
    units.update({"metrics.candidate_pairs": "count", "metrics.match_yield": "ratio"})
    units.update({f"cli.{c}_s": "s" for c in COMMANDS})
    units.update({"cli.self_s": "s", "cli.files_written": "count", "cli.bytes_written": "bytes"})
    units["trace.overhead_ratio"] = "ratio"
    return units


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def machine_info() -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "deteval").glob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "src_deteval_lines": src_lines,
    }


def command_accounting(tracer: spans.Tracer) -> list[str]:
    """Per command: its wall time, the shares of the layer spans directly
    under it and its self time, which together account for the command."""
    lines = []
    for top in (s for s in tracer.spans if s.name.startswith("cli.")):
        parts: dict[str, float] = {}
        for s in tracer.spans:
            if s.parent == top.id:
                parts[s.name] = parts.get(s.name, 0.0) + s.share_s
        shown = ", ".join(f"{n} {v:.4f}" for n, v in sorted(parts.items(), key=lambda kv: -kv[1]))
        lines.append(
            f"# {top.name} {top.end - top.start:.4f} s = layers {sum(parts.values()):.4f}"
            f" + self {top.self_s:.4f} [{shown}]"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "deteval" / "cli.py", ROOT / "fixtures" / "desirability") if not p.exists()]
    if missing:
        print(f"bench: program sources not found: {[str(p) for p in missing]}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    tracer = None
    try:
        workload = generate(args.workload, args.seed, work, ROOT)
        if args.trace:
            samples, tracer = run_traced(workload, args.seconds, work, args.seed, ledger)
            units = per_layer_units()
        else:
            samples = run_untraced(workload, args.seconds, work, ledger)
            units = END_TO_END
        stderr_tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    summary = {name: summarize(samples[name]) for name in units}
    inputs = {
        "images": workload.images,
        "files": workload.input_files,
        "bytes": workload.input_bytes,
        "objects": workload.input_objects,
        "candidate_pairs": workload.candidate_pairs,
    }
    machine = machine_info()
    ratio = ledger.failed / ledger.attempted
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# machine {json.dumps(machine, sort_keys=True)}")
    print(f"# inputs {json.dumps(inputs, sort_keys=True)}")
    print(f"# ops attempted {ledger.attempted} failed {ledger.failed} ops_failed_ratio {ratio:.4f}")
    for reason in ledger.reasons[:20]:
        print(f"# FAILED {reason}")
    if ledger.failed and stderr_tail:
        print(f"# program stderr (tail): {stderr_tail!r}")
    for name, s in summary.items():
        print(
            f"# {name:28s} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g}"
            f" n {s['n']} {units[name]}"
        )
    host = samples["host.ref_s"]
    print(f"# host.ref_s per pass (s): {' '.join(f'{v:.4f}' for v in host)}")
    if tracer is not None:
        for line in command_accounting(tracer):
            print(line)
        for name in tracer.unwrapped:
            print(f"# note: {name} is not defined by the program; its layer reads 0")
    for note in NOTES:
        print(f"# note: {note}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "inputs": inputs,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "ops_failed_ratio": ratio,
        "failures": ledger.reasons,
        "metrics": {name: dict(summary[name], unit=units[name]) for name in units},
        "samples": {name: samples[name] for name in units},
        "host_ref_s": host,
        "notes": NOTES,
        "spans": tracer.to_json() if tracer is not None else [],
    }
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": summary[name]["median"], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
