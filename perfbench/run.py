"""Benchmark of the contrascale command line, end to end and layer by layer.

    python3 perfbench/run.py --workload adjust-synth --seed 1 --seconds 20 --trace 0

The package is imported from the ``src`` of the checkout that holds this
file.  The script writes the workload's seeded corpus, times the CLI import
in several fresh interpreters (``setup_s``), then starts four worker
processes in turn, each running jobs one at a time through
``contrascale.cli.main`` on its own slice of the corpus and checking every
output.  With ``--trace 1`` the time is split between one untraced and one
traced worker, and the layer figures are reported instead.

The second-to-last line of stdout is the run record (environment, input
digests, job counts, tail percentile); the last line is the result.  Both are
also kept under ``.perfbench/results``.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
DEFAULT_SEED = 1
LAUNCHES = 9  # fresh interpreters per set-up figure; one launch varies by about 20%
SUBRUNS = 4  # fresh workers per untraced run, each on its own slice of the corpus
# Times the import first, so that nothing the benchmark imports is already loaded.
IMPORT_CLI = (
    "import time; t = time.perf_counter(); import contrascale.cli as cli; cli.build_parser(); "
    "t = time.perf_counter() - t; import sys; sys.path.insert(0, {here!r}); import worker; "
    "print(t, min(worker.gauge() for _ in range(3)))"
).format(here=str(HERE))


def pinned_env() -> dict[str, str]:
    """The worker environment: no inherited Python or contrascale settings."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("PYTHON", "CONTRASCALE_"))
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def environment(env: dict[str, str]) -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except OSError:
        git = []
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "contrascale").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git[1] if len(git) == 2 and Path(git[0]) == ROOT else None,
        "src_sha256": sources.hexdigest(),
        "loadavg_start": os.getloadavg(),
        "pinned": {k: env.get(k) for k in ("PYTHONHASHSEED", "CONTRASCALE_THREADS", "PYTHONOPTIMIZE")},
    }


def write_corpus(workload: str, seed: int, work: Path) -> list[str]:
    """Write the inputs and corpus.json; return the inputs' sha256 digests."""
    items = []
    digests = []
    for i, item in enumerate(corpus.make_corpus(workload, seed)):
        name = f"in{i:03d}.cxt"
        (work / name).write_text(item.cxt, encoding="utf-8")
        files = {"input": name}
        if workload == "adjust-synth":
            files["preprocessed"] = f"pre{i:03d}.cxt"
        items.append({"files": files, "experiment_seed": item.experiment_seed})
        digests.append(item.sha256())
    (work / "corpus.json").write_text(json.dumps({"workload": workload, "inputs": items}))
    return digests


def launch_times(env: dict[str, str]) -> tuple[list[float], list[float], list[float]]:
    """Bare interpreter launches (wall), and CLI imports timed inside fresh interpreters,
    both raw and gauged (see ``worker.gauge``)."""
    bare, raw, gauged = [], [], []
    run = functools.partial(
        subprocess.run, env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True
    )
    run([sys.executable, "-c", IMPORT_CLI])  # compiles the bytecode cache once
    for _ in range(LAUNCHES):
        start = time.perf_counter()
        run([sys.executable, "-c", "pass"])
        bare.append(time.perf_counter() - start)
        seconds, gauge = map(float, run([sys.executable, "-c", IMPORT_CLI]).stdout.split())
        raw.append(seconds)
        gauged.append(worker.gauged(seconds, gauge))
    return bare, raw, gauged


def crashed(reason: str) -> dict:
    """The record of a worker that died or hung: one attempted job, failed."""
    return {
        "attempted": 1, "failed": 1, "jobs": 0, "completed": 0, "job_seconds": [], "busy_seconds": 0.0,
        "raw_job_seconds": [], "loop_seconds": 0.0, "cpu_seconds": 0.0, "bytes_out": 0,
        "peak_rss_kb": 0, "digests": {}, "errors": [reason],
    }


def run_worker(env, work: Path, seconds: float, start: int, trace: bool, expected: Path | None, out: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--work", str(work),
        "--seconds", str(seconds), "--start", str(start), "--out", str(out),
    ]
    if trace:
        cmd.append("--trace")
    if expected is not None:
        cmd += ["--expected", str(expected)]
    try:
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=seconds + 60)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        return crashed(f"worker from input {start}: {exc}")
    return json.loads(out.read_text())


def tail_percentile(times: list[float]) -> dict | None:
    """The highest whole percentile that has at least ten samples above it."""
    n = len(times)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return {"percentile": p, "seconds": sorted(times)[rank - 1], "samples": n}


def jobs_per_s(runs: list[dict]) -> float:
    busy = sum(r["busy_seconds"] for r in runs)
    return sum(r["completed"] for r in runs) / busy if busy else 0.0


def end_to_end(runs: list[dict], setup: list[float]) -> dict[str, float]:
    times = [t for r in runs for t in r["job_seconds"]]
    return {
        "jobs_per_s": jobs_per_s(runs),
        "job_s_p50": statistics.median(times) if times else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in runs) / 1024,
        "setup_s": statistics.median(setup),
    }


def raw_figures(runs: list[dict], setup: list[float]) -> dict[str, float]:
    """The same figures from wall time, without the gauge, for the run record."""
    times = [t for r in runs for t in r["raw_job_seconds"]]
    loop = sum(r["loop_seconds"] for r in runs)
    return {
        "jobs_per_s": sum(r["completed"] for r in runs) / loop if loop else 0.0,
        "job_s_p50": statistics.median(times) if times else 0.0,
        "setup_s": statistics.median(setup),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "contrascale" / "cli.py").is_file():
        print(f"error: no contrascale sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    env = pinned_env()
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(env),
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = STATE / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inputs = write_corpus(args.workload, args.seed, work)
        record["inputs_sha256"] = inputs
        record["corpus_sha256"] = hashlib.sha256("".join(inputs).encode()).hexdigest()
        problems = []
        expected = None
        if args.seed == DEFAULT_SEED:
            recorded = json.loads((HERE / "expected.json").read_text())[args.workload]
            if recorded["inputs"] != inputs:
                problems.append("generated inputs differ from the recorded ones")
            expected = work / "expected.json"
            expected.write_text(json.dumps(recorded["outputs"]))

        bare, raw_setup, setup = launch_times(env)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            plain = run_worker(env, work, args.seconds / 2, 0, False, expected, results / f"{stem}.plain.json")
            traced = run_worker(env, work, args.seconds / 2, 0, True, expected, results / f"{stem}.traced.json")
            runs = [plain, traced]
            common = plain["digests"].keys() & traced["digests"].keys()
            if any(plain["digests"][k] != traced["digests"][k] for k in common):
                problems.append("traced outputs differ from untraced ones")
            # A traced worker that died reports no layers; its run is failed anyway.
            metrics = dict(traced.get("layers") or dict.fromkeys(units, 0.0))
            metrics["cli.bytes_out"] = traced["bytes_out"] / max(1, traced["completed"])
            metrics["process.interpreter_s"] = statistics.median(bare)
            metrics["process.cpu_s_per_job"] = plain["cpu_seconds"] / max(1, plain["completed"])
            metrics["trace.overhead"] = jobs_per_s([traced]) - jobs_per_s([plain])
        else:
            slice_ = len(inputs) // SUBRUNS
            runs = [
                run_worker(env, work, args.seconds / SUBRUNS, i * slice_, False, expected,
                           results / f"{stem}.plain{i}.json")
                for i in range(SUBRUNS)
            ]
            metrics = end_to_end(runs, setup)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        record.update(
            attempted=attempted,
            failed=failed,
            failed_frac=failed / attempted,
            problems=problems + [e for r in runs for e in r["errors"]],
            job_s_tail=tail_percentile([t for r in runs for t in r["job_seconds"]]),
            raw=raw_figures(runs, raw_setup),
            setup_launches_s=setup,
            interpreter_launches_s=bare,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if units.keys() != metrics.keys():
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (results / f"{stem}.record.json").write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
