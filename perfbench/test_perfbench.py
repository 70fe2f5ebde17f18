"""Tests of the benchmark itself: inputs, correctness gate and tracing."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import run

sys.path.insert(0, str(run.ROOT / "src"))

from contrascale import clarify, count_scales, medical_diagnosis, reduce_context  # noqa: E402
from contrascale.formats import dumps_cxt, loads_cxt  # noqa: E402
from contrascale.rng import SplitMix64, derive_seed  # noqa: E402
from contrascale.scales import iter_scale_families  # noqa: E402


def test_same_seed_same_input_digests():
    for workload in corpus.WORKLOADS:
        first = [i.sha256() for i in corpus.make_corpus(workload, 5)]
        assert first == [i.sha256() for i in corpus.make_corpus(workload, 5)]
        assert first != [i.sha256() for i in corpus.make_corpus(workload, 6)]
        assert len(set(first)) == len(first)


def test_default_seed_inputs_match_the_recorded_ones():
    recorded = json.loads((run.HERE / "expected.json").read_text())
    for workload in corpus.WORKLOADS:
        digests = [i.sha256() for i in corpus.make_corpus(workload, run.DEFAULT_SEED)]
        assert digests == recorded[workload]["inputs"]


def test_generator_copies_agree_with_the_package():
    assert derive_seed(9, 1, 2) == corpus.derive_seed(9, 1, 2)
    ours, theirs = corpus.SplitMix64(3), SplitMix64(3)
    assert [ours.randrange(1000) for _ in range(50)] == [theirs.randrange(1000) for _ in range(50)]
    assert (corpus.DATA_DIR / "diagnosis.cxt").read_text() == dumps_cxt(medical_diagnosis())
    for i in range(20):
        raw = corpus.random_context(corpus.SplitMix64(i), 12 + i % 5, 6 + i % 4, 0.3 + 0.05 * (i % 10))
        clarified, _ = clarify(loads_cxt(raw.to_cxt()))
        reduced, _ = reduce_context(clarified)
        assert corpus.clarify_reduce(raw).to_cxt() == dumps_cxt(reduced)


def test_generator_reproduces_the_recorded_baseline_context():
    ctx = loads_cxt(corpus.clarify_reduce(corpus.random_context(corpus.SplitMix64(7), 60, 20, 0.7)).to_cxt())
    count = count_scales(ctx)
    assert (count.total, count.max_dimension) == (63_881_717, 11)
    assert sum(1 for _ in iter_scale_families(ctx)) == 99_471


def _worker(work: Path, out: Path, *extra: str) -> dict:
    cmd = [sys.executable, str(run.HERE / "worker.py"),
           "--work", str(work), "--seconds", "0.2", "--out", str(out), *extra]
    subprocess.run(cmd, env=run.pinned_env(), check=True, timeout=120)
    return json.loads(out.read_text())


@pytest.fixture
def work(tmp_path):
    def make(workload: str, n: int) -> Path:
        path = tmp_path / workload
        path.mkdir()
        run.write_corpus(workload, run.DEFAULT_SEED, path)
        manifest = json.loads((path / "corpus.json").read_text())
        manifest["inputs"] = manifest["inputs"][:n]
        (path / "corpus.json").write_text(json.dumps(manifest))
        return path

    return make


def test_corrupted_expected_digest_fails_jobs(work, tmp_path):
    path = work("stream-synth", 2)
    outputs = json.loads((run.HERE / "expected.json").read_text())["stream-synth"]["outputs"][:2]
    good = tmp_path / "good.json"
    good.write_text(json.dumps(outputs))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(["0" * 64, outputs[1]]))

    clean = _worker(path, tmp_path / "clean.json", "--expected", str(good))
    assert clean["failed"] == 0 and clean["completed"] >= 1
    broken = _worker(path, tmp_path / "broken.json", "--expected", str(bad))
    assert broken["failed"] / broken["attempted"] > 0
    assert any("recorded digest" in e for e in broken["errors"])


def test_program_exit_fails_the_job_not_the_worker(work, tmp_path, monkeypatch):
    import contrascale.cli as cli
    import worker

    def exits(argv):
        raise SystemExit(3)

    out = tmp_path / "out.json"
    monkeypatch.setattr(cli, "main", exits)
    monkeypatch.setattr(sys, "argv", ["worker.py", "--work", str(work("stream-synth", 2)),
                                      "--seconds", "0.1", "--out", str(out)])
    assert worker.main() == 0
    record = json.loads(out.read_text())
    assert record["failed"] == record["attempted"] > 1 and record["completed"] == 0
    assert "SystemExit: 3" in record["errors"][0]


def test_dead_worker_counts_as_a_failed_job(tmp_path):
    # No corpus.json here, so the worker exits with an error before its first job.
    record = run.run_worker(run.pinned_env(), tmp_path, 0.1, 0, False, None, tmp_path / "out.json")
    assert record["failed"] == record["attempted"] == 1
    assert "worker from input 0" in record["errors"][0]
    assert run.end_to_end([record], [0.05])["jobs_per_s"] == 0.0
    assert run.raw_figures([record], [0.05])["jobs_per_s"] == 0.0


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_outputs_match_untraced(workload, work, tmp_path):
    path = work(workload, 2)
    plain = _worker(path, tmp_path / "plain.json")
    traced = _worker(path, tmp_path / "traced.json", "--trace")
    assert plain["failed"] == traced["failed"] == 0
    assert plain["digests"]["0"] == traced["digests"]["0"]
    layers = traced["layers"]
    assert layers["cli.self_s"] > 0 and layers["formats.load_s"] > 0
    busiest = {
        "adjust-synth": "adjust.influence_s",
        "structure-synth": "lattice.base_s",
        "knowledge-diagnosis": "tree.train_s",
        "stream-synth": "scales.stream_s",
    }[workload]
    assert layers[busiest] > 0
    assert (tmp_path / "traced.spans.jsonl").stat().st_size > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-synth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
