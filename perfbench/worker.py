"""One timed run of a workload, in a fresh interpreter.

``run.py`` starts this script with the corpus already written to a work
directory.  It imports ``contrascale.cli`` from the checkout's ``src``, runs
one untimed warm-up job, then runs jobs one at a time in a closed loop until
the time is up, checking every job's output.  With ``--trace`` it first
rebinds the layer names (see ``tracer.py``) and also reports per-layer
figures.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import corpus


class Sink:
    """Stands in for stdout during a job: keeps what is written, untouched.

    The program writes each output as one string it already holds, so keeping
    the references adds no memory; encoding, hashing and counting wait until
    the job's clock has stopped.
    """

    def __init__(self) -> None:
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.chunks.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.chunks)

    def data(self) -> bytes:
        return self.text().encode()


REPETITIONS = 250
# Peak RSS is read after this many timed jobs, so that a faster program, which
# gets through more inputs in a run, does not meet larger ones and read worse.
RSS_JOBS = 8


def job_steps(workload: str, files: dict, item: dict) -> list[list[str]]:
    """The CLI argument lists of one job."""
    src = files["input"]
    if workload == "adjust-synth":
        pre = files["preprocessed"]
        return [
            ["preprocess", "--mode", "both", "-o", pre, src],
            ["scales", "--count-only", pre],
            ["adjust", "--delta", "0.5", pre],
        ]
    if workload == "structure-synth":
        return [["experiment", "structure", "--delta", "0.5", src]]
    if workload == "knowledge-diagnosis":
        return [
            ["experiment", "knowledge", "--seed", str(item["experiment_seed"]),
             "--repetitions", str(REPETITIONS), "--method", "both", src]
        ]
    if workload == "stream-synth":
        return [["scales", src]]
    raise ValueError(f"unknown workload {workload!r}")


def _n_attributes(cxt_path: str) -> int:
    with open(cxt_path, encoding="utf-8") as fh:
        return int(fh.read().split("\n")[3])


def check(workload: str, files: dict, sinks: list[Sink], count_only) -> None:
    """Raise AssertionError unless the job's outputs satisfy the workload's invariants."""
    if workload == "adjust-synth":
        count = json.loads(sinks[1].text())
        assert count["total"] == sum(count["histogram"].values()), "histogram does not sum to total"
        chosen = json.loads(sinks[2].text())
        n = _n_attributes(files["preprocessed"])
        assert len(chosen["chosen"]) == math.ceil(0.5 * n), "adjust chose the wrong number of attributes"
        assert len(chosen["chosen"]) + len(chosen["excluded"]) == n, "adjust lost attributes"
    elif workload == "structure-synth":
        out = json.loads(sinks[0].text())
        assert out["concepts_adjusted"] <= out["concepts_original"], "adjusting grew the lattice"
    elif workload == "knowledge-diagnosis":
        arms = json.loads(sinks[0].text())
        assert [a["config"]["method"] for a in arms] == ["adjusted", "sampled"], "missing an arm"
        for arm in arms:
            assert arm["config"]["repetitions"] == REPETITIONS, "wrong repetition count"
            assert len(arm["repetitions"]) == REPETITIONS, "wrong number of repetitions reported"
            accuracies = [r["accuracy"] for r in arm["repetitions"]] + [arm["mean_accuracy"]]
            assert all(0.0 <= a <= 1.0 for a in accuracies), "accuracy outside [0, 1]"
    elif workload == "stream-synth":
        scales = sinks[0].text().count('"dim"')  # one key per streamed scale object
        assert scales == count_only(files["input"]), "streamed scales differ from the count"


# The host's speed drifts by up to 1.6x over tens of seconds (see README.md),
# which no run length averages out.  Every job is therefore preceded by a
# fixed pure-Python task from the benchmark's own code, the gauge, and its
# time is scaled by (GAUGE_SECONDS / gauge time) ** GAUGE_ELASTICITY.  The
# gauge reacts more strongly to the host's state than the jobs do: over forty
# runs of the four workloads, job time moved as gauge time to the power 0.72
# to 0.91, and 0.8 left the smallest spread between runs.
GAUGE_SECONDS = 0.005
GAUGE_ELASTICITY = 0.8
GAUGE_ROUNDS = 5


def gauged(seconds: float, gauge_seconds: float) -> float:
    """``seconds`` as they would read on a host where the gauge takes GAUGE_SECONDS."""
    return seconds * (GAUGE_SECONDS / gauge_seconds) ** GAUGE_ELASTICITY


def gauge() -> float:
    """Wall time of a fixed task that does not touch contrascale."""
    start = time.perf_counter()
    for i in range(GAUGE_ROUNDS):
        corpus.clarify_reduce(corpus.random_context(corpus.SplitMix64(i), 40, 14, 0.7))
    return time.perf_counter() - start


def run_job(main, steps: list[list[str]]) -> tuple[float, list[Sink], list[int]]:
    sinks = []
    codes = []
    start = time.perf_counter()
    for argv in steps:
        sink = Sink()
        with redirect_stdout(sink):
            codes.append(main(argv))
        sinks.append(sink)
    return time.perf_counter() - start, sinks, codes


def output_digest(files: dict, sinks: list[Sink]) -> tuple[str, int]:
    """sha256 over every output of the job (stdout of each step, then written files)."""
    h = hashlib.sha256()
    nbytes = 0
    for sink in sinks:
        data = sink.data()
        h.update(hashlib.sha256(data).digest())
        nbytes += len(data)
    if "preprocessed" in files:
        data = Path(files["preprocessed"]).read_bytes()
        h.update(hashlib.sha256(data).digest())
        nbytes += len(data)
    return h.hexdigest(), nbytes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work", required=True, help="directory holding corpus.json")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--start", type=int, default=0, help="index of the first input")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--expected", help="JSON list of output digests, one per input")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    src = str(Path(__file__).resolve().parent.parent / "src")
    sys.path.insert(0, src)
    import contrascale.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"contrascale imported from {cli.__file__}, not from {src}")
    if sys.flags.optimize:
        raise SystemExit("run without -O: the package's asserts are part of the work measured")

    work = Path(args.work)
    corpus = json.loads((work / "corpus.json").read_text())
    workload = corpus["workload"]
    items = corpus["inputs"]
    expected = json.loads(Path(args.expected).read_text()) if args.expected else None

    main_fn = cli.main
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        main_fn = tracer.call("cli.main", cli.main)

    counts: dict[str, int] = {}

    def count_only(path: str) -> int:
        if path not in counts:
            saved = len(tracer.spans) if tracer is not None else 0
            sink = Sink()
            with redirect_stdout(sink):
                cli.main(["scales", "--count-only", path])
            counts[path] = json.loads(sink.text())["total"]
            if tracer is not None:
                del tracer.spans[saved:]  # a check's own calls are not part of the job
        return counts[path]

    attempted = failed = 0
    times: list[float] = []  # gauged seconds of the passing jobs
    busy = 0.0  # gauged seconds of every timed job
    raw_times: list[float] = []
    gauges: list[float] = []
    digests: dict[int, str] = {}
    bytes_out = 0
    side_wall = side_cpu = 0.0
    errors: list[str] = []

    def one_job(index: int) -> tuple[float, float | None]:
        """Run and check one job: its wall time, and the same again when it passed."""
        nonlocal attempted, failed, bytes_out, side_wall, side_cpu
        slot = index % len(items)
        item = items[slot]
        files = {k: str(work / v) for k, v in item["files"].items()}
        attempted += 1
        if tracer is not None:
            tracer.job = index
        try:
            seconds, sinks, codes = run_job(main_fn, job_steps(workload, files, item))
        except KeyboardInterrupt:
            raise
        except BaseException:  # a crash or exit inside the program fails the job, not the run
            failed += 1
            errors.append(traceback.format_exc())
            return 0.0, None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        passed: float | None = seconds
        try:
            assert codes == [0] * len(codes), f"exit codes {codes}"
            digest, nbytes = output_digest(files, sinks)
            digests.setdefault(slot, digest)
            if expected is not None:
                assert digest == expected[slot], "output differs from the recorded digest"
            check(workload, files, sinks, count_only)
            bytes_out += nbytes
        except (AssertionError, ValueError, KeyError, TypeError, IndexError) as exc:
            failed += 1
            errors.append(f"input {slot}: {exc!r}")
            passed = None
        side_wall += time.perf_counter() - wall0
        side_cpu += time.process_time() - cpu0
        return seconds, passed

    # Warm-up: fills the import and allocator caches; checked, not timed.
    one_job(args.start)
    if tracer is not None:
        tracer.reset()
    bytes_out = 0
    side_wall = side_cpu = 0.0

    index = args.start
    peak_rss_kb = None
    cpu_start = time.process_time()
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < args.seconds:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        gauges.append(gauge())
        side_wall += time.perf_counter() - wall0
        side_cpu += time.process_time() - cpu0
        seconds, passed = one_job(index)
        busy += gauged(seconds, gauges[-1])
        raw_times.append(seconds)
        if passed is not None:
            times.append(gauged(passed, gauges[-1]))
        index += 1
        if index - args.start == RSS_JOBS:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    loop_wall = time.perf_counter() - loop_start - side_wall
    cpu = time.process_time() - cpu_start - side_cpu

    record = {
        "workload": workload,
        "attempted": attempted,
        "failed": failed,
        "jobs": index - args.start,
        "completed": len(times),
        "job_seconds": times,
        "busy_seconds": busy,
        "raw_job_seconds": raw_times,
        "gauge_seconds": gauges,
        "loop_seconds": loop_wall,
        "cpu_seconds": cpu,
        "bytes_out": bytes_out,
        "peak_rss_kb": peak_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "digests": {str(k): v for k, v in sorted(digests.items())},
        "errors": errors[:10],
    }
    if tracer is not None:
        record["layers"] = tracing.layer_metrics(tracer, index - args.start)
        tracer.write(str(Path(args.out).with_suffix(".spans.jsonl")))
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
