import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contrascale
from contrascale.cli import main
from contrascale.context import FormalContext, make_contranominal
from contrascale.datasets import medical_diagnosis
from contrascale.formats import dumps_csv, dumps_cxt, loads_csv, loads_cxt
from contrascale.scales import enumerate_scales, write_scales_json
from conftest import random_context


@pytest.fixture
def diagnosis_cxt(tmp_path):
    path = tmp_path / "diagnosis.cxt"
    path.write_text(dumps_cxt(medical_diagnosis()))
    return str(path)


@pytest.fixture
def k4_cxt(tmp_path):
    path = tmp_path / "k4.cxt"
    path.write_text(dumps_cxt(make_contranominal(4)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_diagnosis_dimensions(self, capsys, diagnosis_cxt):
        code, out, _ = run(capsys, "stats", diagnosis_cxt)
        assert code == 0
        payload = json.loads(out)
        assert payload["objects"] == 14
        assert payload["attributes"] == 15

    def test_full_stats(self, capsys, diagnosis_cxt):
        code, out, _ = run(capsys, "stats", "--full", diagnosis_cxt)
        payload = json.loads(out)
        assert payload["concepts"] == 88
        assert payload["canonical_base_size"] == 40


class TestConvert:
    def test_cxt_csv_round_trip(self, capsys, diagnosis_cxt, tmp_path):
        csv_path = tmp_path / "d.csv"
        code, _, _ = run(
            capsys, "convert", "--to", "csv", diagnosis_cxt, "-o", str(csv_path)
        )
        assert code == 0
        code, out, _ = run(capsys, "convert", "--to", "cxt", str(csv_path))
        assert code == 0
        assert loads_cxt(out) == medical_diagnosis()

    @pytest.mark.parametrize(
        "argv",
        [
            ["convert", "--to", "cxt"],
            ["preprocess", "--to", "cxt"],
            ["core", "-p", "1", "-q", "1", "--to", "cxt"],
            ["adjust", "--delta", "1", "--to", "cxt"],
        ],
        ids=["convert", "preprocess", "core", "adjust"],
    )
    def test_cxt_label_with_line_break_is_data_error(self, capsys, tmp_path, argv):
        csv_path = tmp_path / "nl.csv"
        csv_path.write_text(',p,q\n"a\nb",1,0\nc,0,1\n')
        out_path = tmp_path / "nl.cxt"
        code, _, err = run(capsys, *argv, str(csv_path), "-o", str(out_path))
        assert code == 2
        assert "'a\\nb'" in err
        assert not out_path.exists()
        code, _, _ = run(capsys, "convert", "--to", "csv", str(csv_path))
        assert code == 0


class TestPreprocess:
    def test_clarify_reduce_with_trace(self, capsys, tmp_path):
        ctx_path = tmp_path / "dup.csv"
        ctx_path.write_text(",x,y,z\na,1,1,0\nb,1,1,0\nc,0,0,1\n")
        trace_path = tmp_path / "trace.json"
        code, out, _ = run(
            capsys,
            "preprocess",
            str(ctx_path),
            "--trace",
            str(trace_path),
        )
        assert code == 0
        processed = loads_cxt(out)
        assert processed.n_objects < 3 or processed.n_attributes < 3
        trace = json.loads(trace_path.read_text())
        assert [0, 1] in trace["attribute_classes"]


class TestCore:
    def test_contranominal_core_selection(self, capsys, k4_cxt):
        code, out, _ = run(capsys, "core", "-p", "3", "-q", "3", k4_cxt)
        assert code == 0
        payload = json.loads(out)
        assert payload["objects"] == ["1", "2", "3", "4"]

    def test_core_as_context(self, capsys, k4_cxt):
        code, out, _ = run(capsys, "core", "-p", "3", "-q", "3", k4_cxt, "--to", "cxt")
        assert code == 0
        assert loads_cxt(out) == make_contranominal(4)


class TestScales:
    def test_count_only_histogram(self, capsys, k4_cxt):
        code, out, _ = run(capsys, "scales", "--count-only", k4_cxt)
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 15
        assert payload["histogram"] == {"1": 4, "2": 6, "3": 4, "4": 1}

    def test_full_enumeration_json(self, capsys, k4_cxt):
        code, out, _ = run(capsys, "scales", k4_cxt)
        payload = json.loads(out)
        assert len(payload) == 15
        assert payload[0]["dim"] == 1

    def test_pretty_lines(self, capsys, k4_cxt):
        code, out, _ = run(capsys, "scales", "--pretty", k4_cxt)
        lines = out.strip().splitlines()
        assert len(lines) == 15
        assert lines[0].startswith("dim=1; pairs=(")

    def test_count_matches_enumeration_on_fixture(self, capsys, diagnosis_cxt):
        _, out_count, _ = run(capsys, "scales", "--count-only", diagnosis_cxt)
        _, out_full, _ = run(capsys, "scales", diagnosis_cxt)
        assert json.loads(out_count)["total"] == len(json.loads(out_full))


# Labels that JSON must escape or that are easy to get wrong.
_AWKWARD_LABELS = ('"q"', "back\\slash", "ü☃", "ctl\x01", "", "tab\tend", "plain", "€")


def _awkward_context(rng):
    ctx = random_context(rng, 8, 8, min_objects=2, min_attributes=2)
    objects = [f"{_AWKWARD_LABELS[g % 8]}{'#' * (g // 8)}" for g in range(ctx.n_objects)]
    attributes = [_AWKWARD_LABELS[-1 - m] for m in range(ctx.n_attributes)]
    return FormalContext.from_masks(objects, attributes, ctx.rows())


def _reference_json(ctx, **kwargs):
    """The ``scales`` output as one ``json.dumps`` of the whole list."""
    payload = [
        {"dim": s.dimension, "pairs": [[ctx.objects[g], ctx.attributes[m]] for g, m in s.pairs]}
        for s in enumerate_scales(ctx, **kwargs)
    ]
    return json.dumps(payload, indent=2) + "\n"


class TestScaleStream:
    def test_writer_matches_json_dumps(self, seeded):
        rng = seeded(401)
        for _ in range(30):
            ctx = _awkward_context(rng)
            chunks = []
            write_scales_json(enumerate_scales(ctx), ctx, chunks.append)
            assert "".join(chunks) == _reference_json(ctx)
            # One chunk per scale, then the closing one.
            assert len(chunks) == len(list(enumerate_scales(ctx))) + 1

    def test_cli_matches_json_dumps(self, capsys, tmp_path, seeded):
        rng = seeded(402)
        path = tmp_path / "awkward.csv"
        for _ in range(10):
            ctx = _awkward_context(rng)
            path.write_text(dumps_csv(ctx), encoding="utf-8")
            code, out, _ = run(capsys, "scales", str(path))
            assert code == 0
            assert out == _reference_json(ctx)

    def test_diagnosis_matches_json_dumps(self, capsys, diagnosis_cxt):
        _, out, _ = run(capsys, "scales", diagnosis_cxt)
        assert out == _reference_json(medical_diagnosis())

    def test_min_dim(self, capsys, diagnosis_cxt):
        _, out, _ = run(capsys, "scales", "--min-dim", "3", diagnosis_cxt)
        assert out == _reference_json(medical_diagnosis(), min_dimension=3)
        _, full, _ = run(capsys, "scales", diagnosis_cxt)
        assert json.loads(out) == [s for s in json.loads(full) if s["dim"] >= 3]

    def test_empty_stream(self, capsys, tmp_path):
        path = tmp_path / "full.cxt"
        path.write_text(dumps_cxt(FormalContext.from_masks(["g", "h"], ["a", "b"], [3, 3])))
        assert run(capsys, "scales", str(path))[1] == "[]\n"
        assert run(capsys, "scales", "--pretty", str(path))[1] == "\n"

    def test_pretty_lines_end_with_newline(self, capsys, k4_cxt):
        _, out, _ = run(capsys, "scales", "--pretty", k4_cxt)
        assert out.endswith(")\n") and out.count("\n") == 15

    @pytest.mark.parametrize("flags", [[], ["--pretty"], ["--min-dim", "2"]])
    def test_output_file_matches_stdout(self, capsys, tmp_path, diagnosis_cxt, flags):
        _, out, _ = run(capsys, "scales", *flags, diagnosis_cxt)
        target = tmp_path / "scales.out"
        code, printed, _ = run(capsys, "scales", *flags, diagnosis_cxt, "-o", str(target))
        assert code == 0 and printed == ""
        assert target.read_bytes() == out.encode()

    def test_output_file_not_created_for_bad_input(self, capsys, tmp_path):
        target = tmp_path / "scales.out"
        code, _, _ = run(capsys, "scales", str(tmp_path / "missing.cxt"), "-o", str(target))
        assert code == 2
        assert not target.exists()

    def test_subprocess_pipe(self, capsys, tmp_path, seeded):
        ctx = _awkward_context(seeded(403))
        path = tmp_path / "awkward.csv"
        path.write_text(dumps_csv(ctx), encoding="utf-8")
        src = str(Path(contrascale.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "contrascale.cli", "scales", str(path)],
            capture_output=True, env=env, timeout=60, check=True,
        )
        assert done.stdout == _reference_json(ctx).encode()


class TestInfluenceAndAdjust:
    def test_adjust_half_selection(self, capsys, diagnosis_cxt):
        code, out, _ = run(capsys, "adjust", "--delta", "0.5", diagnosis_cxt)
        assert code == 0
        payload = json.loads(out)
        assert payload["chosen"] == list("dehijlno")
        assert payload["excluded"] == list("abcfgkm")

    def test_adjusted_subcontext_output(self, capsys, diagnosis_cxt):
        code, out, _ = run(
            capsys, "adjust", "--delta", "0.5", diagnosis_cxt, "--to", "csv"
        )
        sub = loads_csv(out)
        assert sub.attributes == tuple("dehijlno")

    def test_influence_json(self, capsys, diagnosis_cxt):
        code, out, _ = run(capsys, "influence", diagnosis_cxt)
        payload = json.loads(out)
        assert payload[8]["label"] == "i"
        assert payload[8]["zeta"] == pytest.approx(48.67, abs=0.05)

    def test_influence_pretty_table(self, capsys, diagnosis_cxt):
        code, out, _ = run(capsys, "influence", "--pretty", "--delta", "0.5", diagnosis_cxt)
        assert "selected" in out.splitlines()[0]

    def test_unpreprocessed_input_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(",x,y\na,1,1\nb,1,1\n")
        code, _, err = run(capsys, "influence", str(path))
        assert code == 2
        assert "clarify" in err


class TestConceptsAndBase:
    def test_concept_count(self, capsys, diagnosis_cxt):
        code, out, _ = run(capsys, "concepts", "--count-only", diagnosis_cxt)
        assert json.loads(out) == {"concepts": 88}

    def test_concepts_json_shape(self, capsys, k4_cxt):
        _, out, _ = run(capsys, "concepts", k4_cxt)
        payload = json.loads(out)
        assert len(payload) == 16
        assert {"extent", "intent"} == set(payload[0])

    def test_base_count_and_lines(self, capsys, diagnosis_cxt):
        _, out, _ = run(capsys, "base", "--count-only", diagnosis_cxt)
        assert json.loads(out) == {"implications": 40}
        _, out, _ = run(capsys, "base", "--pretty", diagnosis_cxt)
        assert len(out.strip().splitlines()) == 40
        assert "->" in out


class TestExperiments:
    def test_structure(self, capsys, diagnosis_cxt):
        code, out, _ = run(
            capsys, "experiment", "structure", "--delta", "0.5", diagnosis_cxt
        )
        payload = json.loads(out)
        assert payload["concepts_original"] == 88
        assert payload["concepts_adjusted"] == 29
        assert payload["base_original"] == 40
        assert payload["base_adjusted"] == 11

    def test_knowledge_both_arms(self, capsys, diagnosis_cxt):
        code, out, _ = run(
            capsys,
            "experiment",
            "knowledge",
            "--repetitions",
            "5",
            "--seed",
            "9",
            diagnosis_cxt,
        )
        payload = json.loads(out)
        assert [p["config"]["method"] for p in payload] == ["adjusted", "sampled"]
        assert all(len(p["repetitions"]) == 5 for p in payload)

    def test_knowledge_both_arms_encode_each_arm_as_alone(self, capsys, diagnosis_cxt):
        _, out, _ = run(
            capsys, "experiment", "knowledge", "--repetitions", "4", "--seed", "3", diagnosis_cxt
        )
        arms = []
        for method in ("adjusted", "sampled"):
            _, alone, _ = run(
                capsys, "experiment", "knowledge", "--repetitions", "4", "--seed", "3",
                "--method", method, diagnosis_cxt,
            )
            arms.append(json.loads(alone))
        assert out == json.dumps(arms, indent=2) + "\n"

    def test_knowledge_delta_is_exact(self, capsys, tmp_path):
        # 5/6 of 6 attributes is 5; its float 0.8333333333333334 would round up to 6.
        path = tmp_path / "k6.cxt"
        path.write_text(dumps_cxt(make_contranominal(6)))
        _, out, _ = run(capsys, "experiment", "structure", "--delta", "5/6", str(path))
        assert json.loads(out)["concepts_adjusted"] == 32
        code, out, _ = run(
            capsys, "experiment", "knowledge", "--delta", "5/6", "--method", "adjusted",
            "--repetitions", "2", "--seed", "1", str(path),
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["config"]["delta"] == 5 / 6
        assert payload["concept_count"] == 32

    def test_knowledge_csv_summary(self, capsys, diagnosis_cxt):
        code, out, _ = run(
            capsys,
            "experiment",
            "knowledge",
            "--repetitions",
            "3",
            "--seed",
            "9",
            "--csv",
            diagnosis_cxt,
        )
        assert out.splitlines()[0] == "method,mean_accuracy,std_accuracy,concept_count,base_size"


class TestBench:
    def test_bench_report(self, capsys, k4_cxt):
        code, out, _ = run(capsys, "bench", k4_cxt)
        payload = json.loads(out)
        assert payload["consistent"] is True
        assert payload["backtracking"]["count"] == 15


class TestErrors:
    def test_unknown_flag_is_usage_error(self, capsys, k4_cxt):
        code, _, err = run(capsys, "scales", "--no-such-flag", k4_cxt)
        assert code == 1

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_malformed_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.cxt"
        path.write_text("not a context\n")
        code, _, err = run(capsys, "stats", str(path))
        assert code == 2
        assert "line" in err

    def test_missing_file_is_data_error(self, capsys):
        code, _, _ = run(capsys, "stats", "/nonexistent/f.cxt")
        assert code == 2

    def test_bad_delta_is_data_error(self, capsys, k4_cxt):
        code, _, _ = run(capsys, "adjust", "--delta", "2.0", k4_cxt)
        assert code == 2


# Subcommands that need a clarified and reduced context, or two attributes.
_PREPROCESSED_ONLY = ("influence", "adjust", "experiment structure", "experiment knowledge")

_DEGENERATE_COMMANDS = {
    "convert": ["convert", "--to", "cxt"],
    "stats": ["stats", "--full"],
    "preprocess": ["preprocess"],
    "core": ["core", "-p", "1", "-q", "1"],
    "scales": ["scales"],
    "scales count": ["scales", "--count-only"],
    "scales count min-dim": ["scales", "--count-only", "--min-dim", "2"],
    "scales min-dim": ["scales", "--min-dim", "2"],
    "influence": ["influence", "--pretty"],
    "adjust": ["adjust", "--delta", "0.5"],
    "concepts": ["concepts"],
    "base": ["base"],
    "experiment structure": ["experiment", "structure"],
    "experiment knowledge": ["experiment", "knowledge", "--seed", "1", "--repetitions", "2"],
    "bench": ["bench"],
}


@pytest.mark.parametrize(
    "objects, attributes, rows, data_errors",
    [
        pytest.param([], ["a", "b", "c"], [], _PREPROCESSED_ONLY, id="0x3"),
        pytest.param(["g", "h", "i"], [], [0, 0, 0], _PREPROCESSED_ONLY, id="3x0"),
        pytest.param([], [], [], ("experiment knowledge",), id="0x0"),
        pytest.param(["g", "h"], ["a", "b"], [3, 3], _PREPROCESSED_ONLY, id="2x2-full"),
        pytest.param(["g", "h"], ["a", "b"], [0, 0], _PREPROCESSED_ONLY, id="2x2-empty"),
    ],
)
def test_degenerate_context_exit_codes(capsys, tmp_path, objects, attributes, rows, data_errors):
    path = tmp_path / "degenerate.cxt"
    path.write_text(dumps_cxt(FormalContext.from_masks(objects, attributes, rows)))
    codes = {name: run(capsys, *argv, str(path))[0] for name, argv in _DEGENERATE_COMMANDS.items()}
    assert codes == {name: 2 if name in data_errors else 0 for name in _DEGENERATE_COMMANDS}
