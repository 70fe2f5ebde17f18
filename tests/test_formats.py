import io
import re

import pytest

from contrascale.context import FormalContext, make_contranominal
from contrascale.datasets import medical_diagnosis
from contrascale.formats import (
    ContextParseError,
    dumps_csv,
    dumps_cxt,
    infer_format,
    load_context,
    loads_csv,
    loads_cxt,
    save_context,
)
from conftest import random_context


MINIMAL_CXT = "B\n\n1\n1\n\nobj\nattr\nX\n"


class TestCxt:
    def test_single_cell_context(self):
        ctx = loads_cxt(MINIMAL_CXT)
        assert ctx.objects == ("obj",)
        assert ctx.attributes == ("attr",)
        assert ctx.incident(0, 0)

    def test_round_trip_is_bit_exact(self, seeded):
        rng = seeded(201)
        for _ in range(20):
            ctx = random_context(rng)
            text = dumps_cxt(ctx)
            assert loads_cxt(text) == ctx
            assert dumps_cxt(loads_cxt(text)) == text

    def test_diagnosis_round_trip(self):
        ctx = medical_diagnosis()
        assert loads_cxt(dumps_cxt(ctx)) == ctx

    def test_bad_header(self):
        with pytest.raises(ContextParseError) as err:
            loads_cxt("C\n\n1\n1\n\nobj\nattr\nX\n")
        assert err.value.line == 1

    def test_bad_sizes(self):
        # Each size is reported on its own line: objects 3, attributes 4.
        for sizes, line in (("x\n1", 3), ("-1\n1", 3), ("1\nx", 4), ("1\n-1", 4)):
            with pytest.raises(ContextParseError) as err:
                loads_cxt(f"B\n\n{sizes}\n\nobj\nattr\nX\n")
            assert err.value.line == line

    def test_short_row(self):
        text = "B\n\n1\n2\n\nobj\na\nb\nX\n"
        with pytest.raises(ContextParseError) as err:
            loads_cxt(text)
        assert err.value.line == 9

    def test_label_with_line_break_is_refused(self):
        for objects, attributes, bad in (
            (["a\nb", "c"], ["p", "q"], "a\nb"),
            (["a", "c"], ["p", "q\r"], "q\r"),
            (["a", "c"], ["p\r\nq", "q"], "p\r\nq"),
        ):
            ctx = FormalContext.from_masks(objects, attributes, [0b01, 0b10])
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                dumps_cxt(ctx)

    def test_bad_incidence_character(self):
        with pytest.raises(ContextParseError):
            loads_cxt("B\n\n1\n1\n\nobj\nattr\n?\n")

    def test_duplicate_labels(self):
        with pytest.raises(ContextParseError):
            loads_cxt("B\n\n2\n1\n\nobj\nobj\nattr\nX\n.\n")

    def test_truncated_file(self):
        with pytest.raises(ContextParseError):
            loads_cxt("B\n\n2\n1\n")

    def test_crlf_line_endings(self, tmp_path):
        ctx = medical_diagnosis()
        assert loads_cxt(dumps_cxt(ctx).replace("\n", "\r")) == ctx
        crlf = dumps_cxt(ctx).replace("\n", "\r\n")
        assert loads_cxt(crlf) == ctx
        path = tmp_path / "crlf.cxt"
        path.write_bytes(crlf.encode())
        with open(path, encoding="utf-8", newline="") as fh:
            assert load_context(fh, "cxt") == ctx


class TestCsv:
    def test_round_trip(self, seeded):
        rng = seeded(202)
        for _ in range(20):
            ctx = random_context(rng)
            text = dumps_csv(ctx)
            for eol in ("\n", "\r\n", "\r"):
                assert loads_csv(text.replace("\n", eol)) == ctx

    def test_accepts_x_and_blank_cells(self):
        ctx = loads_csv(",p,q\na,x,\nb,1,0\n")
        assert ctx.incident(0, 0) and not ctx.incident(0, 1)
        assert ctx.incident(1, 0) and not ctx.incident(1, 1)

    def test_always_writes_zero_one(self):
        ctx = FormalContext(["a"], ["p", "q"], [[1, 0]])
        assert dumps_csv(ctx) == ",p,q\na,1,0\n"

    def test_short_row_reports_line(self):
        with pytest.raises(ContextParseError) as err:
            loads_csv(",p,q\na,1\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "tail, message",
        [("c,2,3\n", "row has 3 cells"), ("c,2\n", "bad cell value")],
    )
    def test_line_after_multiline_cell(self, tail, message):
        with pytest.raises(ContextParseError, match=message) as err:
            loads_csv(',p\n"a\nb",1\n' + tail)
        assert err.value.line == 4

    def test_bad_cell(self):
        with pytest.raises(ContextParseError):
            loads_csv(",p\na,2\n")

    def test_unterminated_quote_reports_line(self):
        with pytest.raises(ContextParseError) as err:
            loads_csv(',p\na,"1\n')
        assert err.value.line == 2


class TestFileHandling:
    def test_save_and_load_files(self, tmp_path):
        ctx = make_contranominal(3)
        for name, fmt in (("k3.cxt", "burmeister-cxt"), ("k3.csv", "csv")):
            path = tmp_path / name
            save_context(ctx, path, fmt)
            assert load_context(path, fmt) == ctx

    def test_load_from_stream(self):
        assert load_context(io.StringIO(MINIMAL_CXT), "cxt").objects == ("obj",)

    def test_infer_format(self):
        assert infer_format("x.cxt") == "burmeister-cxt"
        assert infer_format("x.CSV") == "csv"
        with pytest.raises(ValueError):
            infer_format("x.dat")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            load_context(io.StringIO(MINIMAL_CXT), "xml")
