import csv
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import contrascale
from contrascale import bench, cli
from contrascale.bench import (
    ExperimentConfig,
    ExperimentResult,
    RepetitionRecord,
    run_knowledge_experiment,
)
from contrascale.cli import main
from contrascale.context import FormalContext, clarify, make_contranominal, reduce_context
from contrascale.datasets import medical_diagnosis
from contrascale.formats import dumps_csv, dumps_cxt, loads_csv, loads_cxt
from contrascale.lattice import canonical_base
from contrascale.scales import enumerate_scales
from conftest import (
    count_context_calls,
    count_rule_closures,
    count_walk_reads,
    random_context,
    reduced_42x15,
)


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

    def test_csv_label_with_carriage_return_is_data_error(self, capsys, tmp_path, monkeypatch):
        # Neither reader yields a label with "\r" (both read universal newlines),
        # so the context comes straight from the reader the command calls.
        ctx = FormalContext.from_masks(["a", "c"], ["p", "q\r"], [1, 2])
        monkeypatch.setattr(cli, "load_context", lambda source, fmt: ctx)
        out_path = tmp_path / "cr.csv"
        code, _, err = run(
            capsys, "convert", "--to", "csv", str(tmp_path / "in.cxt"), "-o", str(out_path)
        )
        assert code == 2
        assert "'q\\r'" in err
        assert not out_path.exists()


    def test_cxt_with_byte_order_mark_loads_from_file_and_stdin(
        self, capsys, tmp_path, monkeypatch, diagnosis_cxt
    ):
        _, expected, _ = run(capsys, "convert", "--to", "csv", diagnosis_cxt)
        path = tmp_path / "bom.cxt"
        path.write_bytes(b"\xef\xbb\xbf" + Path(diagnosis_cxt).read_bytes())
        assert run(capsys, "convert", "--to", "csv", str(path)) == (0, expected, "")
        with open(path, encoding="utf-8") as stdin:
            monkeypatch.setattr(sys, "stdin", stdin)
            assert run(capsys, "convert", "--format", "cxt", "--to", "csv", "-") == (0, expected, "")


class TestPrettyLabels:
    # ``--pretty`` writes one line per scale, table row or implication; the
    # scales print object and attribute labels, the other two attributes only.
    BROKEN_OBJECT = ',x,b\n"g\nh",0,1\nk,1,0\n'
    BROKEN_ATTRIBUTE = ',"x\ny",b\ng,0,1\nk,1,0\n'

    @pytest.mark.parametrize(
        "command, text, label",
        [
            ("scales", BROKEN_OBJECT, "'g\\nh'"),
            ("scales", BROKEN_ATTRIBUTE, "'x\\ny'"),
            ("influence", BROKEN_ATTRIBUTE, "'x\\ny'"),
            ("base", BROKEN_ATTRIBUTE, "'x\\ny'"),
        ],
        ids=["scales-object", "scales-attribute", "influence", "base"],
    )
    def test_label_with_line_break_is_data_error(self, capsys, tmp_path, command, text, label):
        path = tmp_path / "nl.csv"
        path.write_text(text)
        out_path = tmp_path / "out.txt"
        for target in ([], ["-o", str(out_path)]):
            code, out, err = run(capsys, command, "--pretty", str(path), *target)
            assert (code, out) == (2, "")
            assert err == f"error: label {label} contains a line break, which --pretty cannot hold\n"
        assert not out_path.exists()
        code, out, _ = run(capsys, command, str(path))
        assert code == 0
        json.loads(out)

    @pytest.mark.parametrize(
        "command, text",
        [("influence", BROKEN_OBJECT), ("base", ',x,b,c\n"g\nh",0,1,1\nk,1,0,0\n')],
        ids=["influence", "base"],
    )
    def test_object_label_with_line_break_is_not_printed(self, capsys, tmp_path, command, text):
        broken, joined = tmp_path / "nl.csv", tmp_path / "joined.csv"
        broken.write_text(text)
        joined.write_text(text.replace('"g\nh"', "gh"))
        code, out, _ = run(capsys, command, "--pretty", str(broken))
        assert code == 0 and out.count("\n") > 1
        assert (code, out, "") == run(capsys, command, "--pretty", str(joined))


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

    def test_failed_run_writes_no_trace(self, capsys, tmp_path, diagnosis_cxt):
        csv_path = tmp_path / "nl.csv"
        csv_path.write_text(',p,q\n"x\ny",1,0\nc,0,1\n')
        trace_path, out_path = tmp_path / "t.json", tmp_path / "o.cxt"
        argv = ["preprocess", "--trace", str(trace_path), "-o", str(out_path)]
        code, _, err = run(capsys, *argv, str(csv_path))
        assert code == 2
        assert "'x\\ny'" in err
        assert not trace_path.exists()
        assert not out_path.exists()
        # An output that cannot be opened fails before the trace is written.
        unopenable = tmp_path / "nodir" / "o.cxt"
        argv = ["preprocess", "--trace", str(trace_path), "-o", str(unopenable)]
        code, _, err = run(capsys, *argv, diagnosis_cxt)
        assert code == 2
        assert "o.cxt" in err
        assert not trace_path.exists()
        assert not unopenable.parent.exists()
        # Nor one that was there before is emptied.
        trace_path.write_text("old trace")
        code, _, err = run(capsys, *argv, diagnosis_cxt)
        assert code == 2
        assert trace_path.read_text() == "old trace"
        # A trace that cannot be opened fails before the output is opened,
        # whether the output is new or already there.
        unopenable = tmp_path / "nodir" / "t.json"
        argv = ["preprocess", "--trace", str(unopenable), "-o", str(out_path)]
        code, _, err = run(capsys, *argv, diagnosis_cxt)
        assert code == 2
        assert "t.json" in err
        assert not out_path.exists()
        out_path.write_text("old output")
        code, _, err = run(capsys, *argv, diagnosis_cxt)
        assert code == 2
        assert out_path.read_text() == "old output"
        assert not unopenable.parent.exists()

    def test_trace_and_output_naming_one_file_are_refused(
        self, capsys, tmp_path, monkeypatch, diagnosis_cxt
    ):
        # The same file by a relative path, by itself and through a detour.
        target = tmp_path / "f.cxt"
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path)
        for other in ("f.cxt", str(target), str(tmp_path / "sub" / ".." / "f.cxt")):
            argv = ["preprocess", "--trace", other, "-o", str(target), diagnosis_cxt]
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "--trace and -o name the same file" in err
            assert not target.exists()
        # A file that is there keeps its bytes, also under a second name.
        target.write_text("old output")
        os.link(target, tmp_path / "g.cxt")
        for other in ("f.cxt", "g.cxt"):
            argv = ["preprocess", "-o", other, "--trace", str(target), diagnosis_cxt]
            assert run(capsys, *argv)[0] == 2
            assert target.read_text() == "old output"


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
    return _reference_json_of(ctx, enumerate_scales(ctx, **kwargs))


def _reference_json_of(ctx, scales):
    """The JSON ``scales`` writes for ``scales``, as one ``json.dumps``."""
    payload = [
        {"dim": s.dimension, "pairs": [[ctx.objects[g], ctx.attributes[m]] for g, m in s.pairs]}
        for s in scales
    ]
    return json.dumps(payload, indent=2) + "\n"


def _reference_lines(ctx, scales):
    """The ``scales --pretty`` text, formatted scale by scale."""
    lines = []
    for scale in scales:
        pairs = ",".join(f"({ctx.objects[g]},{ctx.attributes[m]})" for g, m in scale.pairs)
        lines.append(f"dim={scale.dimension}; pairs={pairs}\n")
    return "".join(lines) or "\n"


def _written(ctx, scales, pretty):
    """The chunks ``cli._write_scales`` writes for ``scales``."""
    chunks = []
    cli._write_scales(scales, ctx, chunks.append, pretty)
    return chunks


class TestScaleStream:
    def test_writer_matches_json_dumps(self, seeded):
        rng = seeded(401)
        for _ in range(30):
            ctx = _awkward_context(rng)
            stream = list(enumerate_scales(ctx))
            assert "".join(_written(ctx, stream, False)) == _reference_json(ctx)
            assert "".join(_written(ctx, stream, True)) == _reference_lines(ctx, stream)

    @pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
    def test_writer_chunks(self, seeded, pretty):
        # Each chunk but the last holds 1 to 256 whole scales: the chunks up
        # to it, closed, are the whole output for the scales they hold.  The
        # closing chunk comes last.
        rng = seeded(403)
        header, closing = ("dim=", "\n") if pretty else ('"dim": ', "\n    ]\n  }\n]\n")
        reference = _reference_lines if pretty else _reference_json_of
        # make_contranominal(10) has 1,023 scales, more than one chunk holds.
        contexts = [_awkward_context(rng) for _ in range(10)] + [make_contranominal(10)]
        batched = 0
        for ctx in contexts:
            stream = list(enumerate_scales(ctx))
            assert stream
            chunks = _written(ctx, stream, pretty)
            assert chunks[-1] == closing
            text, held = "", 0
            for chunk in chunks[:-1]:
                assert 1 <= chunk.count(header) <= 256
                text += chunk
                held += chunk.count(header)
                assert text + closing == reference(ctx, stream[:held])
            assert held == len(stream)
            batched += len(chunks) > 2
        assert batched
        empty = FormalContext.from_masks(["g"], ["a"], [1])
        assert _written(empty, enumerate_scales(empty), pretty) == ["\n" if pretty else "[]\n"]

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

    @pytest.mark.parametrize("flags", [[], ["--pretty"]], ids=["json", "pretty"])
    def test_memory_stays_bounded_while_streaming(self, monkeypatch, tmp_path, k4_cxt, flags):
        # 7 attributes, each missed by its own 4 objects: every attribute set
        # carries a family, and all hold 5**7 - 1 = 78,124 scales, 23.5 MB of
        # JSON and 5.4 MB under --pretty.  The largest holds 4**7 of them.
        full = (1 << 7) - 1
        ctx = FormalContext.from_masks(
            [f"g{j}_{c}" for j in range(7) for c in range(4)],
            [f"m{j}" for j in range(7)],
            [full ^ (1 << j) for j in range(7) for _ in range(4)],
        )
        path = tmp_path / "family.cxt"
        path.write_text(dumps_cxt(ctx))

        class Sink:
            chars = 0

            def write(self, text):
                self.chars += len(text)

        sink = Sink()
        monkeypatch.setattr(sys, "stdout", sink)
        # The first run's imports would land in the peak.
        assert main(["scales", *flags, k4_cxt]) == 0
        sink.chars = 0
        tracemalloc.start()
        try:
            assert main(["scales", *flags, str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 5_000_000 and peak < 2_000_000

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

    @pytest.mark.parametrize("flags", [[], ["--pretty"]], ids=["json", "pretty"])
    def test_reader_closing_the_pipe_is_not_an_error(self, tmp_path, flags):
        # 8,191 scales, far more text than a pipe buffers.
        path = tmp_path / "k13.cxt"
        path.write_text(dumps_cxt(make_contranominal(13)))
        src = str(Path(contrascale.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "contrascale", "scales", *flags, str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""


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

    def test_tiny_delta_is_parsed_once(self, capsys, diagnosis_cxt):
        # 1e-4300 is within the exponent bound, but printing the parsed
        # Fraction again would need a 4,301-digit denominator.
        code, out, err = run(capsys, "adjust", "--delta", "1e-4300", diagnosis_cxt)
        assert (code, err) == (0, "")
        assert len(json.loads(out)["chosen"]) == 1
        code, out, err = run(capsys, "influence", "--pretty", "--delta", "1e-4300", diagnosis_cxt)
        assert (code, err) == (0, "")
        assert sum(line.endswith("*") for line in out.splitlines()) == 1

    @pytest.mark.parametrize(
        "labels", [("x,y", "z"), ('"b', 'c"'), ("p q", "r\n")], ids=["comma", "quote", "newline"]
    )
    def test_influence_csv_quotes_the_labels(self, capsys, tmp_path, labels):
        path = tmp_path / "awkward.csv"
        path.write_text(dumps_csv(FormalContext.from_masks(["g", "h"], labels, [0b01, 0b10])))
        code, out, _ = run(capsys, "influence", "--csv", str(path))
        header, *rows = csv.reader(out.splitlines(keepends=True))
        assert code == 0 and header == ["attribute", "2", "zeta"]
        assert [row[0] for row in rows] == list(labels)
        assert {len(row) for row in rows} == {len(header)}

    def test_unpreprocessed_input_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(",x,y\na,1,1\nb,1,1\n")
        code, _, err = run(capsys, "influence", str(path))
        assert code == 2
        assert "clarify" in err


# sha256 of stdout, by command and input: the diagnosis context, the seed of a
# clarified, reduced 42x15 context of density 0.7 (`conftest.reduced_42x15`), or
# a raw draw of 70x9 or 130x7 at density 0.75 (`_pinned_input`), whose witness
# classes are wider than a machine word; `influence` and `adjust` refuse raw
# input, so they get that draw clarified and reduced.  Raw 18x10 (the shape the
# `stream-synth` benchmark streams) and 24x11 draws pin the full scale stream.
_PINNED_STDOUT = {
    "concepts": {
        "diagnosis": "f6d98331641fb81a4a7fff3439e49b2ca1d42fe451907bca2b838a7b7312bea4",
        0: "7482b1f49ecda217129735c8c66c61b97212927e0ead1b9c9e78e7e1b517367a",
        1: "2282335874ebce58f33635426208537bbfde0e25be83455209d2a9f988fb08cb",
        2: "28735655bd2e26c034bde32f4d8cff4c7fb62e06cedcd2b821697b39fc6d4f8c",
    },
    "concepts --count-only": {
        "diagnosis": "2793937fbb0713e5f6569d29f51ac85b981bcfdd527447a0b2f5d3f18ce3349e",
        0: "34dcadaa0a97eb6bacc21816d083bb678fe70a7ecdd8904b8cc345f7a91e1843",
        1: "9d6a5f935c80330bc91714b2c59b9f55a694e0c8d9b4a28aa555c0ed421f7e1c",
        2: "3b476c7d39125ec646cdddf039bbd28ed5604f6d342f243799dc3f00f50ec931",
    },
    "stats --full": {
        "diagnosis": "7c992d164048d85fa837605531e76f4eefec76fd2f70b73336887367bce4b146",
        0: "4ee5b374644b106ff732e354102955aace9116816e5bc7941b7396426c7000e4",
        1: "d36c61948b4d62a4a9e8c4f79acfa0a0be60d86da607e7f812e659f0435563d7",
        2: "a39cd29d2b5fc749d37bc96cfe6e1820539bda6a2b884324524cc6672105bc7c",
    },
    "base --pretty": {
        "diagnosis": "d22ea532878e4eb0e892a99fa67b4f23b7c541a7319da81127913ba250ebf65b",
        0: "d49043910bd64bf19b8b2fcdba4ad4df7ae4bb10796ff9f20a28e213b28d0380",
        1: "eed02a438de0b4e2cf4eccad698786bb1de6b42da91745dab985ae7c404fcaf3",
        2: "e154106dff0cc2b89e8e4bbf804723ad3e0e77863b5120111950f3e3a0153fa7",
    },
    "influence": {
        "diagnosis": "13f80852e86f4a4406687ce7c8d02695ad8b31cc2dc57594c5efa5afc3b11cf5",
        0: "37d3a650a798b22ad6b6703daeb2db1dd63d13b9116a30a6cd778999c0e7e553",
        1: "3be3f201c4dee02e19f3112c3ca7090299151c36342947010743425497a4265c",
        2: "6b0cefc0c261ce1ae02051221ca81e917e69e1ac99ff191f02f828c614bfda42",
    },
    "influence --csv": {
        "diagnosis": "0e1f7e0535b6f8144b17f640dfe3f5ebcec460e7360922a20aa5448b2945b698",
        0: "f4f918cb15c8222149f32ef6f2d1397a5d71c589712489d06b2a1ed8d8b809fe",
        1: "5d80b6dd18752acbf8eb2ef58e6a87793001232102bf35a17cb6f31310b52331",
        2: "0113ea5431fa2d7f4924c5db7fa94d3c010ce3e8443fdbe8b9d9026d667f6aba",
        "reduced 70x9": "de11b6cb1006ac0182e71a5f2dfa286d800ec083a2aa6989e4de97eb1ad61507",
        "reduced 130x7": "31ef9ef619254bb54c0b60ba9d83620368e25b30d16440bd2df6de907ea07a2a",
    },
    "influence --pretty": {
        "diagnosis": "44513b903c27d54885633852f05244f05ee34d437af7768461b28ff30cc2d396",
        0: "41b43d89c06f1fe2cdee058e638c5e9bf1083b120908384ea22d8240300a890f",
        1: "e2d1532352407c56a5857f4be0cdcf7ae88fc4e82d2ad40cc9bd57ef8b628916",
        2: "4f6394cb3d966b22ee361a48478c27fff745645b63a43e0599bb38525c9c8365",
    },
    "influence --pretty --delta 0.5": {
        "diagnosis": "512427c1d478fa57b3213287780601dac8e2d696756305364dd7a8e8bbfb1db8",
        0: "a2e995a5cb48dbd847644f695d3b7be14568125b23a52efdf18e7f8432494b88",
        1: "e2cd6954a8e086828ae2ca9ec3c879c1867e58c49b2f417daaacee5a4b04fafc",
        2: "d58828146e156b2619c90b084d4f9cde92a1f87e107cea82e9572d1926b5c81b",
    },
    "adjust --delta 0.5": {
        "diagnosis": "6627337f9a0732e395ba6783d2a44c2b1272125527e93d549946724179dd22db",
        0: "f9096d2a806ef5a8d30e2417f8bd129cbd91c83b531d419e92505a724210d245",
        1: "34c66c3efeff98ab1ba5c809ac79c21ae24c3fd58341e9c730e54aad004f3b4d",
        2: "9bf2b9ec9beed1a7b2a94093d7a6f180928b86679f5debfc2f2783e94fe8371e",
        "reduced 70x9": "404c0a37cfb0f60a38f668efc03ea1021cff585b237e4eb8a863180339add528",
        "reduced 130x7": "2fad0be9d8b3744e0d1f3e0e318271e51cb2a5b3ff2b16e9736bce28f233fa8a",
    },
    "adjust --delta 0.5 --to csv": {
        "diagnosis": "6bb4b2d5a2dd0235dfa0df4f4f28c2c8adefc7d88e0c8965b3daf0b62f2cba8d",
        0: "a0fbb6b06e2940ee24c278f732d6af7638ed68b879370d14bf49b9b46ba81cfe",
        1: "64b0b70f0b88f215b58c95c5b7552698680ca3edd2b2ebaf7f8f9c91df495b3b",
        2: "c7c0b7e71c0a8778c6db68270f2531b1af605690f577000de59eb08e634f2a90",
    },
    "scales --count-only": {
        "diagnosis": "d2c33fe1dd7edd40ef62aa51a07079f8caee659655151330ec163a62056f2259",
        0: "c83c898a16b186470272a6752b4d0f85e64f4380be88a4e91bb5373fbff910eb",
        1: "319dbbd0d361115dab6527dbbd5f011b2fd5977f3b616a78dbec60326460f55c",
        2: "3216e8009eb84f85c9140d24512f67e24b876d5800b4bab811efd5d3c5f2ea76",
        "raw 70x9": "43c418b6bc368d311949f9aedf244c1ce84a56c541cae8e1dc5b0a78646e3ab0",
        "raw 130x7": "bb4d975c633adfd93af170894429d962a25ad77312ab41e1dfc05f901511e0ac",
        "reduced 70x9": "a73f84f7c830e66b70ba4048c7f9d876377ae5f884e8145a096687b79d6aeaa5",
        "reduced 130x7": "033f9e6b6ba61e341d9c551ed7a9783347b4c28eff9e496d2f5070e872ebfd50",
    },
    "scales --count-only --min-dim 3": {
        "diagnosis": "45683e2127d99cba84bd426354af53e12dbf2a7cc8d37fe9e1d1e7f6958d9d07",
        0: "7aaf631f8f3bb46d5782035445e033c0567cb82a2b4362efef8eed46579c0639",
        1: "4670a68566c791036a250d7bcc83308eac89aba35004f0035c3d17a362b314cc",
        2: "e10a92f6cbdc74630aad5ddf7e20457bd774e615fd673775df0a98772de4545b",
    },
    "base": {
        "diagnosis": "58a36aeb7e7fe341a531f38912f8bb5d99111a2c57531f06cd1af1ef32356856",
        0: "f1c5b58653fc24e6e716d371ecdd466f8ff4e7cce89de93870e83fc084ce74e7",
        1: "b10bfb7d128fae1f18133887e5938e39fdd6f3fc3d048bd834f323069a9337b3",
        2: "f0928173f29997e5748d12a18f1a9fcaf67b305400abdd5040a6f35935799523",
    },
    "core -p 3 -q 3": {
        "diagnosis": "79ee5b587459876d7c810c22a42e97e788ca9ae51ca65e33692c76840076c030",
        0: "9dcf1ed6077239d1bdb88aee791f6eb396c29ed99e9e7701f29773198aa55e28",
        1: "8a914d68f1507a8f3bc98092b58b972ce01e60a1e19b25fedb7559da84865f59",
        2: "9faa619867df3b9f4a76a70746a074b8bdbae3e194dbd1c87912f2d18b8b2ea5",
    },
    "core -p 3 -q 3 --to cxt": {
        "diagnosis": "16bcaabd1d961d267317295a7d44f38f6579a23a8d2767b26087a2fc5914b1b7",
        0: "bfe37583be7c7a21415c4b2fba38915468ce6292a7f0da6fa0c4d1a932b3fe82",
        1: "1d7fd186764e7e676a798ed9a88373d0c575d2c7c2e57cd8846e88da4a61b895",
        2: "3d5604301a342e140e4f1df99d572e856a3361739571860281452b25b3d13ee5",
    },
    "convert --to csv": {
        "diagnosis": "f8b2d64571ff52e96cd89ec867eacfc5f9a3ff6b58bb5411516b1e19bed74561",
        0: "66d58c8598d62d1a065db3dcece50c19125065bd4029021c96df383361d88d6b",
        1: "571f3e7c046f08f901b02a537a6fb039b02bbb8abd926022f717f42e6eb03034",
        2: "5d05e110d4a3470c75c1d1954cfa3371e509a2dcd3b956137495ef80fc4e7361",
    },
    "scales": {
        "raw 18x10": "915cbe34e2d3b68a068e257397c78fea74b0e8f8006f24f5c0bd8b6cb8ef3f66",
        "raw 24x11": "0fd9c311aa1bf2374ba52955d407d5bcc0fc6d55a927d5c20089cc4b0ccdf48f",
    },
    "scales --pretty": {
        "diagnosis": "4ed8627aee39bc21a8d79ff2bdd14912ccf1b74ef6668bc5a239bc457e1eb078",
        "raw 18x10": "a2c921a7c94f7416895bbde6622a299d61e12c90ced42b5ef49a4f3771ffb621",
        "raw 24x11": "6253999e41c2f641e850831d6c32ead89b77fe1f62a3c5c044270bafbb549ef5",
    },
    "scales --min-dim 3": {
        "diagnosis": "8b1fbc3314c903ad1a82861ed572f29b4f5447169cd021446cfc59cfbf486910",
        "raw 18x10": "3bc995140374cd00b45c6f7ce87042edab83aa85a0635cce082cdbd5ccfce322",
        "raw 24x11": "185c2be43856aad777451570d2102ad3d1cbbfb4320557c24ca9eb9aff421e10",
    },
    "experiment knowledge --seed 7 --repetitions 50 --method adjusted": {
        "diagnosis": "b21b6b3b5690105e38509aee1af54a6bb958c61cb769875f9767d9a84d93359e",
    },
    "experiment knowledge --seed 7 --repetitions 50 --csv": {
        "diagnosis": "50b0aee862f593a58d0389cfda87b5265203b8a01436eca4236a760ac221a65d",
    },
    "experiment knowledge --seed 7 --repetitions 50 --method sampled": {
        "diagnosis": "02eb5dc09e90275b3f9c0be5519e78f6252fe40034aebb45ecb9194d01a25da2",
        0: "a2fa501c6b016edff2570bd2df9acc2b0a6627787d274f74ca286b1029be0b01",
        1: "69f660e1cc93f10684da70f8dbd10d968211f1d75a450b4e5fc43e1086201b01",
    },
    "experiment knowledge --seed 7 --repetitions 50 --split 0.3": {
        "diagnosis": "7a8ea8e525c38ef9b98d926241b5731fa3a7e511beec5c657e62ada2f774dbee",
        0: "34004c6491d7115564b76a1f392722e129416619285c722a0b1f2268c118986d",
        1: "cdde509c739c21504011b95c3dc365d4a00decd0e9b5028975844524292591f8",
    },
    "experiment knowledge --seed 7 --repetitions 50 --delta 1/3": {
        "diagnosis": "541f0e0a55f3170b44c4a76a53e902e08870167ba97985b486a26c6a49ed08d7",
        0: "d94e3a39d5dad7d2fc85060758b9ddd7e570f0295fb613c3f120873b2b78ef8c",
        1: "8110e45226aa5bae68cc0e559e3defc4c0fa41c01fba9b8261779009ce337b6a",
    },
    # The benchmark's knowledge job.
    "experiment knowledge --seed 7 --repetitions 250 --method both": {
        "diagnosis": "06f1bc43a6f08e2f0c7f3b1454e6c597d0c3a8edfc0e033698e58dc61aa666cb",
        0: "7fdbae64b89dbf4341eec46b18254e8990c2c58c3c0cc150ec16553c97154889",
        1: "6a1baada1e13329899febff96a3acbc9fdf832f6422eec2e07f51616c6847b11",
    },
}

# sha256 of the file that ``-o FILE`` writes; stdout stays empty.
_PINNED_OUTPUT_FILE = {
    "experiment knowledge --seed 7 --repetitions 50": {
        "diagnosis": "681edbc88a785a240f16f8acf792698233e53956e7593c0c2b52cb4f514f0025",
        0: "beb59118cd697698182157590c5cfcccb89e7344457c5a66183c5d8fafe5853f",
        1: "b57049330bbdc645c48154682a09f97c2e71c159ed5bd31962e91315a3f974c2",
    },
    "scales": {
        "raw 24x11": "0fd9c311aa1bf2374ba52955d407d5bcc0fc6d55a927d5c20089cc4b0ccdf48f",
    },
}


def _pinned_input(source, seeded) -> FormalContext:
    if source == "diagnosis":
        return medical_diagnosis()
    if isinstance(source, int):
        return reduced_42x15(seeded(23, source))
    form, shape = source.split()
    n_obj, n_att = map(int, shape.split("x"))
    raw = random_context(
        seeded(29, n_obj), n_obj, n_att, (0.75,), min_objects=n_obj, min_attributes=n_att
    )
    return raw if form == "raw" else reduce_context(clarify(raw)[0])[0]


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

    @pytest.mark.parametrize("command", ["stats --full", "concepts", "concepts --count-only"])
    def test_each_command_walks_the_context_once(self, capsys, tmp_path, seeded, monkeypatch, command):
        contexts = [
            medical_diagnosis(),
            FormalContext.from_masks([], ["a", "b", "c"], []),
            FormalContext.from_masks(["g", "h", "i"], [], [0, 0, 0]),
        ]
        for source in range(2):
            contexts.append(reduced_42x15(seeded(23, source)))
        # Every set the lectic walk visits is an intent or a pseudo-intent.
        # The walk derives the root's intent through intent_mask, then one
        # intent per candidate it tests, in its own loop from the extent the
        # candidate inherits.  Only a candidate that differs from its intent
        # is closed under L.
        visited = [base.concepts + len(base) for base in map(canonical_base, contexts)]
        calls = count_context_calls(monkeypatch)
        reads = count_walk_reads(monkeypatch)
        closures = count_rule_closures(monkeypatch)
        per_input = []
        per_input_closures = []
        for ctx, least in zip(contexts, visited):
            path = tmp_path / "input.cxt"
            path.write_text(dumps_cxt(ctx))
            calls.clear()
            reads.clear()
            closures.clear()
            assert run(capsys, *command.split(), str(path))[0] == 0
            derivations = calls["intent_mask"] + reads["candidates"]
            assert calls["extent_mask"] == calls["closure_mask"] == 0
            assert calls["intent_mask"] == 1
            assert derivations >= least
            assert closures["close"] < derivations
            per_input.append(derivations)
            per_input_closures.append(closures["close"])
        assert per_input[:3] == [317, 4, 1]
        assert per_input_closures[:3] == [252, 3, 0]

    @pytest.mark.parametrize(
        "command, source, digest",
        [
            (command, source, digest)
            for command, digests in _PINNED_STDOUT.items()
            for source, digest in digests.items()
        ],
    )
    def test_cli_output_bytes_are_pinned(self, capsys, tmp_path, seeded, command, source, digest):
        # Any change to a concept, its order, a mean or an implication moves it.
        ctx = _pinned_input(source, seeded)
        path = tmp_path / "input.cxt"
        path.write_text(dumps_cxt(ctx))
        code, out, _ = run(capsys, *command.split(), str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "command, source, digest",
        [
            (command, source, digest)
            for command, digests in _PINNED_OUTPUT_FILE.items()
            for source, digest in digests.items()
        ],
    )
    def test_output_file_bytes_are_pinned(self, capsys, tmp_path, seeded, command, source, digest):
        path = tmp_path / "input.cxt"
        path.write_text(dumps_cxt(_pinned_input(source, seeded)))
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, *command.split(), "-o", str(target), str(path))
        assert (code, out) == (0, "")
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def _reference_knowledge_json(results):
    """The ``experiment knowledge`` output as one ``json.dumps`` of the whole payload."""
    payloads = [
        {
            "config": {
                "seed": r.config.seed,
                "delta": float(r.config.delta),
                "repetitions": r.config.repetitions,
                "split_fraction": r.config.split_fraction,
                "method": r.config.method,
            },
            "mean_accuracy": r.mean_accuracy,
            "std_accuracy": r.std_accuracy,
            "concept_count": r.concept_count,
            "base_size": r.base_size,
            "repetitions": [
                {
                    "index": x.index,
                    "label": x.label_attribute,
                    "features": list(x.features),
                    "accuracy": x.accuracy,
                }
                for x in r.repetitions
            ],
        }
        for r in results
    ]
    return json.dumps(payloads if len(payloads) > 1 else payloads[0], indent=2) + "\n"


class TestKnowledgeWriter:
    @pytest.mark.parametrize("method", ["adjusted", "sampled", "both"])
    def test_writer_matches_json_dumps_on_random_contexts(self, seeded, method):
        rng = seeded(431)
        written = 0
        while written < 12:
            ctx = reduce_context(clarify(random_context(rng, 20, 10))[0])[0]
            if ctx.n_objects < 4 or ctx.n_attributes < 2:
                continue
            cfg = ExperimentConfig(
                seed=rng.randrange(1 << 64),
                delta=1,
                repetitions=1 + rng.randrange(6),
                split_fraction=(0.3, 0.5, 0.7)[written % 3],
                method=method,
            )
            results = run_knowledge_experiment(ctx, cfg)
            chunks = []
            cli._write_knowledge_json(results, chunks.append)
            assert "".join(chunks) == _reference_knowledge_json(results)
            # One chunk per arm, then the closing one.
            assert len(chunks) == len(results) + 1
            written += 1

    def test_writer_matches_json_dumps_on_awkward_numbers(self):
        records = (
            RepetitionRecord(0, 4, (0, 1, 17), 0.0),
            RepetitionRecord(1, 0, (2,), 1.0),
            RepetitionRecord(2, 11, (1, 3, 5, 8), 1 / 3),
        )
        arms = [
            ExperimentResult(
                ExperimentConfig(seed=3, delta=Fraction(1, 3), repetitions=3,
                                 split_fraction=0.25, method=method),
                mean_accuracy=4 / 9,
                std_accuracy=0.41573970964154905,
                concept_count=count,
                base_size=size,
                repetitions=records,
            )
            for method, count, size in (("adjusted", 29, 11), ("sampled", 12.3, 4.7))
        ]
        for results in ([arms[0]], [arms[1]], arms):
            chunks = []
            cli._write_knowledge_json(results, chunks.append)
            assert "".join(chunks) == _reference_knowledge_json(results)
        # The config lists every field of ExperimentConfig, in field order.
        assert tuple(json.loads("".join(chunks))[0]["config"]) == ExperimentConfig.__match_args__


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--algorithms", "foo"], "unknown algorithm 'foo'"),
            (["--algorithms", ","], "name at least one of"),
            (["--algorithms", "backtracking,magic"], "unknown algorithm 'magic'"),
            (["--timeout", "-1"], "positive number of seconds"),
            (["--timeout", "0"], "positive number of seconds"),
            (["--timeout", "nan"], "positive number of seconds"),
            (["--timeout", "soon"], "positive number of seconds"),
        ],
    )
    def test_bad_flags_are_usage_errors(self, capsys, k4_cxt, flags, message):
        code, out, err = run(capsys, "bench", *flags, k4_cxt)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and message in err

    def test_algorithm_subset_and_timeout(self, capsys, k4_cxt):
        code, out, _ = run(
            capsys, "bench", "--algorithms", " bronkerbosch, ", "--timeout", "60", k4_cxt
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["bronkerbosch", "consistent"]
        assert payload["bronkerbosch"]["count"] == 15

    def test_repeated_algorithm_runs_once(self, capsys, k4_cxt, monkeypatch):
        ran = []

        def recorded(ctx, algorithms, timeout):
            ran.append(algorithms)
            return {}

        monkeypatch.setattr(bench, "benchmark_enumeration", recorded)
        code, _, _ = run(capsys, "bench", "--algorithms", "backtracking,backtracking", k4_cxt)
        assert code == 0
        assert ran == [("backtracking",)]


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["adjust"],
            ["influence", "--pretty"],
            ["experiment", "structure"],
            ["experiment", "knowledge", "--seed", "1"],
        ],
        ids=["adjust", "influence", "experiment structure", "experiment knowledge"],
    )
    def test_zero_denominator_delta_is_data_error(self, capsys, diagnosis_cxt, argv):
        code, _, err = run(capsys, *argv, "--delta", "1/0", diagnosis_cxt)
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("delta", ["abc", "7", "-1", "1/0"])
    @pytest.mark.parametrize("mode", [[], ["--csv"], ["--pretty"]], ids=["json", "csv", "pretty"])
    def test_bad_influence_delta_is_data_error_in_every_mode(
        self, capsys, diagnosis_cxt, mode, delta
    ):
        code, out, err = run(capsys, "influence", *mode, "--delta", delta, diagnosis_cxt)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("method", ["both", "adjusted", "sampled"])
    @pytest.mark.parametrize(
        "rows, flags, message",
        [
            # An empty feature set is found before the split is drawn.
            (None, "--delta 0 --split 0.05", "the feature set is empty; use a larger delta"),
            (None, "--split 0.05", "split leaves an empty train or test set"),
            ([0b01], "", "context has reducible rows or columns; apply reduce_context() first"),
        ],
        ids=["empty features", "empty split", "one object"],
    )
    def test_knowledge_errors_keep_their_order(
        self, capsys, tmp_path, diagnosis_cxt, method, rows, flags, message
    ):
        path = diagnosis_cxt
        if rows is not None:
            path = tmp_path / "small.cxt"
            path.write_text(dumps_cxt(FormalContext.from_masks(["g"], ["a", "b"], rows)))
        argv = ["experiment", "knowledge", "--seed", "1", "--repetitions", "3", "--method", method]
        code, out, err = run(capsys, *argv, *flags.split(), str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_influence_pretty_and_csv_are_exclusive(self, capsys, diagnosis_cxt):
        code, out, err = run(capsys, "influence", "--pretty", "--csv", diagnosis_cxt)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["scales", "base"])
    @pytest.mark.parametrize("flags", [["--count-only", "--pretty"], ["--pretty", "--count-only"]])
    def test_count_only_and_pretty_are_exclusive(self, capsys, diagnosis_cxt, command, flags):
        code, out, err = run(capsys, command, *flags, diagnosis_cxt)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_stdin_without_format_names_formats_the_cli_accepts(self, capsys, monkeypatch, k4_cxt):
        code, out, err = run(capsys, "stats", "-")
        assert code == 2 and out == ""
        assert "'cxt' or 'csv'" in err and "burmeister" not in err
        with open(k4_cxt) as stdin:
            monkeypatch.setattr(sys, "stdin", stdin)
            assert run(capsys, "stats", "--format", "cxt", "-")[0] == 0

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(contrascale.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "contrascale", "--version"],
            capture_output=True, env=env, timeout=60, check=True,
        )
        assert done.stdout.decode().strip() == contrascale.__version__


# sha256 of ``--help`` at 80 columns, by subcommand ("" for the program's own).
# argparse lays options out differently from Python 3.13 on.
_PINNED_HELP = {
    "": "864eaef0de18015b0823fe3fe287c359f7ec14a077bba1f0c7aab955d6cb0388",
    "convert": "8aa231aacb76801b2669bf56aa2b7917fe4ca15c9f8bc23a92373e934f36c96a",
    "stats": "702220fb6e6595fae95272f3ba0d92e50f9a385a75b5bfb495d3485221f63741",
    "preprocess": "2c1b5ea85468cff8a5f1635475abb9034097c0fd4480ed7b7f576892ea0a3322",
    "core": "a1e3e8b0cc7bfb9a3eead5a7d4380adc073bfe5fffc1ce9823959fc860f114fb",
    "scales": "25ca49a6d1e8853b146cb54a4b6a5e5f4d1ba5aa5fdd6ea73ca1ba589b8bda9a",
    "influence": "c13379c86c40526fd3b7efc4ca04926ef3d5a45287378759d6e11ede4b707a83",
    "adjust": "a9fafb1638f209b7bbe8fb207634e7b77937996358f05a7d0bd92be5cc38b25b",
    "concepts": "c70ec3bcd4cc2b5339c7581d46c952e5c9db476c7a4e31002345cef7f57c81c9",
    "base": "095f7bc06c746bd77f12eefb268eab9a5cc022357dcfeb8410de39c20a4c47d3",
    "experiment": "b01e5e768a8496b12e058d5d616e4e268dd0b60b1680897982df7fada810367d",
    "experiment structure": "5a5bcc456febd27f3f97d3c21719ef02c7a131bf9af19ef8783c5473afd98694",
    "experiment knowledge": "4998338e2897f36f6cc41b56dd560ccc56a25d1c48d91384484f7534b398c345",
    "bench": "5bb117882970e5b123e5bd3ef4f189655f261b89180a1d47254de4a67febd53c",
}


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="help pinned as argparse 3.10-3.12 lays it out")
@pytest.mark.parametrize(
    "command, digest", _PINNED_HELP.items(), ids=[c or "contrascale" for c in _PINNED_HELP]
)
def test_help_text_is_pinned(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main([*command.split(), "--help"])
    assert done.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_fresh_parser_builds_one_argument_parser(monkeypatch):
    # Each subcommand's parser is built when the command line first selects it.
    built = []
    init = cli.argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        cli.argparse.ArgumentParser,
        "__init__",
        lambda self, *a, **kw: built.append(kw.get("prog")) or init(self, *a, **kw),
    )
    cli.build_parser()
    assert built == ["contrascale"]


_COMMANDS = (
    "convert", "stats", "preprocess", "core", "scales", "influence", "adjust",
    "concepts", "base", "experiment", "bench",
)


def _parser_built_out_of_order(path: str) -> cli._Parser:
    """A fresh parser that has built ``bench`` and then ``experiment knowledge``."""
    parser = cli.build_parser()
    parser.parse_args(["bench", path])
    parser.parse_args(["experiment", "knowledge", "--seed", "1", path])
    return parser


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="help pinned as argparse 3.10-3.12 lays it out")
def test_commands_built_out_of_order_keep_the_help(capsys, monkeypatch, diagnosis_cxt):
    monkeypatch.setenv("COLUMNS", "80")
    parser = _parser_built_out_of_order(diagnosis_cxt)
    for command in ("", "experiment"):
        with pytest.raises(SystemExit):
            parser.parse_args([*command.split(), "--help"])
        help_text = capsys.readouterr().out
        assert hashlib.sha256(help_text.encode()).hexdigest() == _PINNED_HELP[command]


def _refusal(parser: cli._Parser, *argv: str) -> str:
    with pytest.raises(cli._UsageError) as refused:
        parser.parse_args(list(argv))
    return str(refused.value)


def test_commands_built_out_of_order_keep_the_invalid_choice_list(diagnosis_cxt):
    message = _refusal(_parser_built_out_of_order(diagnosis_cxt), "nope", diagnosis_cxt)
    assert message == _refusal(cli.build_parser(), "nope", diagnosis_cxt)
    listed = message[message.index("(choose from"):]
    positions = [listed.index(name) for name in _COMMANDS]
    assert positions == sorted(positions)
    assert listed.count(",") == len(_COMMANDS) - 1


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


def _without_seconds(payload):
    """``payload`` with every ``"seconds"`` entry dropped, at any depth."""
    if isinstance(payload, dict):
        return {k: _without_seconds(v) for k, v in payload.items() if k != "seconds"}
    if isinstance(payload, list):
        return [_without_seconds(v) for v in payload]
    return payload


@pytest.mark.parametrize("name", _DEGENERATE_COMMANDS)
def test_output_file_holds_what_stdout_would(capsys, tmp_path, diagnosis_cxt, name):
    argv = _DEGENERATE_COMMANDS[name]
    code, out, _ = run(capsys, *argv, diagnosis_cxt)
    assert code == 0
    target = tmp_path / "out"
    code, printed, _ = run(capsys, *argv, diagnosis_cxt, "-o", str(target))
    assert (code, printed) == (0, "")
    if name == "bench":
        # Timings differ from run to run; everything else must not.
        written = json.loads(target.read_bytes())
        assert _without_seconds(written) == _without_seconds(json.loads(out))
    else:
        assert target.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv",
    [*_DEGENERATE_COMMANDS.values(), ["preprocess", "--trace", "t.json"]],
    ids=[*_DEGENERATE_COMMANDS, "preprocess trace"],
)
def test_missing_input_writes_no_file(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "missing.cxt", "-o", "out")
    assert (code, out) == (2, "")
    assert "missing.cxt" in err
    assert os.listdir() == []


@pytest.mark.parametrize("name", _PREPROCESSED_ONLY)
def test_input_is_read_before_the_delta(capsys, tmp_path, name):
    missing = str(tmp_path / "missing.cxt")
    code, _, err = run(capsys, *_DEGENERATE_COMMANDS[name], "--delta", "abc", missing)
    assert code == 2
    assert "No such file or directory" in err and "missing.cxt" in err
