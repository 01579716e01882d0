import csv
import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import rand_complex
from cradmm import (
    ConvergenceTrace,
    FileFormatError,
    IterationRecord,
    TraceCsvWriter,
    read_matrix,
    read_trace_csv,
    read_vector,
    write_matrix,
    write_matrix_blocks,
    write_trace_csv,
    write_vector,
    write_view_pgm,
)
from cradmm.fileio import SUMMARY_COLUMNS, write_json, write_summary_csv


def parse_pgm(raw):
    """Minimal reader for the published P5 grammar (whitespace and # comments)."""
    pos = 0

    def token():
        nonlocal pos
        while True:
            while pos < len(raw) and raw[pos : pos + 1].isspace():
                pos += 1
            if pos < len(raw) and raw[pos : pos + 1] == b"#":
                while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        return raw[start:pos]

    assert token() == b"P5"
    width = int(token())
    height = int(token())
    maxval = int(token())
    pos += 1  # exactly one whitespace byte before the raster
    bytes_per = 2 if maxval > 255 else 1
    raster = raw[pos:]
    assert len(raster) == width * height * bytes_per
    dtype = ">u2" if bytes_per == 2 else "u1"
    pixels = np.frombuffer(raster, dtype=dtype).reshape(height, width)
    return width, height, maxval, pixels


class TestMatrixVectorFormats:
    def test_matrix_round_trip_random(self, rng, tmp_path):
        a = rand_complex(rng, 17, 23)
        path = tmp_path / "a.cmat"
        write_matrix(path, a)
        b = read_matrix(path)
        assert b.dtype == np.complex128
        assert a.tobytes() == b.tobytes()

    def test_vector_round_trip_random(self, rng, tmp_path):
        v = rand_complex(rng, 101)
        path = tmp_path / "v.cvec"
        write_vector(path, v)
        w = read_vector(path)
        assert v.tobytes() == w.tobytes()

    def test_round_trip_preserves_non_finite_bits(self, tmp_path):
        v = np.array([np.nan + 1j, np.inf - 1j * np.inf, -0.0 + 0.0j, 1e-308 + 1e308j])
        path = tmp_path / "odd.cvec"
        write_vector(path, v)
        assert read_vector(path).tobytes() == v.tobytes()

    def test_empty_matrix_is_header_only(self, tmp_path):
        path = tmp_path / "empty.cmat"
        write_matrix(path, np.zeros((0, 0), dtype=complex))
        assert path.stat().st_size == 24
        assert read_matrix(path).shape == (0, 0)

    def test_empty_vector_is_header_only(self, tmp_path):
        path = tmp_path / "empty.cvec"
        write_vector(path, np.zeros(0, dtype=complex))
        assert path.stat().st_size == 16
        assert read_vector(path).shape == (0,)

    def test_layout_is_little_endian_interleaved(self, tmp_path):
        path = tmp_path / "layout.cmat"
        write_matrix(path, np.array([[1.0 + 2.0j, 3.0 - 4.0j]]))
        raw = path.read_bytes()
        assert raw[:8] == b"CLNSMAT1"
        assert struct.unpack_from("<QQ", raw, 8) == (1, 2)
        assert struct.unpack_from("<4d", raw, 24) == (1.0, 2.0, 3.0, -4.0)

    def test_bad_magic_reports_offset_zero(self, tmp_path):
        path = tmp_path / "bad.cmat"
        path.write_bytes(b"XXXXXXXX" + b"\x00" * 16)
        with pytest.raises(FileFormatError, match="offset 0"):
            read_matrix(path)

    def test_wrong_kind_of_magic_rejected(self, rng, tmp_path):
        path = tmp_path / "vec.cvec"
        write_vector(path, rand_complex(rng, 3))
        with pytest.raises(FileFormatError, match="bad magic"):
            read_matrix(path)

    def test_truncated_payload_names_offset(self, rng, tmp_path):
        path = tmp_path / "trunc.cmat"
        write_matrix(path, rand_complex(rng, 2, 3))
        whole = path.read_bytes()
        path.write_bytes(whole[:-8])
        with pytest.raises(FileFormatError, match="truncated payload"):
            read_matrix(path)

    def test_truncated_header_detected(self, tmp_path):
        path = tmp_path / "short.cmat"
        for raw in (b"CLNSMAT1" + b"\x00" * 4, b"CLNS"):  # short after the magic, or shorter than it
            path.write_bytes(raw)
            with pytest.raises(FileFormatError, match=f"truncated header at offset {len(raw)}"):
                read_matrix(path)

    def test_payload_of_the_wrong_rank_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="matrix payload must be 2-D"):
            write_matrix(tmp_path / "m.cmat", np.ones(3, dtype=complex))
        with pytest.raises(ValueError, match="vector payload must be 1-D"):
            write_vector(tmp_path / "v.cvec", np.ones((1, 3), dtype=complex))
        assert not list(tmp_path.iterdir())

    def test_dimension_overflow_detected(self, tmp_path):
        path = tmp_path / "huge.cmat"
        path.write_bytes(b"CLNSMAT1" + struct.pack("<QQ", 2**62, 2**62))
        with pytest.raises(FileFormatError, match="dimension overflow"):
            read_matrix(path)

    def test_trailing_data_rejected(self, rng, tmp_path):
        path = tmp_path / "extra.cvec"
        write_vector(path, rand_complex(rng, 2))
        path.write_bytes(path.read_bytes() + b"!")
        with pytest.raises(FileFormatError, match="trailing data"):
            read_vector(path)


    def test_vector_file_size_checked_before_reading(self, tmp_path):
        path = tmp_path / "short.cvec"
        path.write_bytes(struct.pack("<8sQ", b"CLNSVEC1", 3) + b"\x00" * 40)
        with pytest.raises(FileFormatError, match="truncated payload at offset 56: expected 64 bytes"):
            read_vector(path)

    def test_read_matrix_traced_peak_is_one_payload(self, rng, tmp_path):
        a = rand_complex(rng, 64, 4096)
        path = tmp_path / "big.cmat"
        write_matrix(path, a)
        tracemalloc.start()
        try:
            b = read_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert b.tobytes() == a.tobytes()
        assert peak < 1.1 * a.nbytes, f"peak {peak} bytes for a {a.nbytes}-byte payload"

    @pytest.mark.parametrize("rows_per_block", [1, 3, 7])
    def test_row_blocks_write_the_bytes_of_the_whole_matrix(self, rng, tmp_path, rows_per_block):
        a = rand_complex(rng, 7, 5)
        write_matrix(tmp_path / "whole.cmat", a)
        blocks = (a[start:start + rows_per_block] for start in range(0, 7, rows_per_block))
        write_matrix_blocks(tmp_path / "blocks.cmat", a.shape, blocks)
        assert (tmp_path / "blocks.cmat").read_bytes() == (tmp_path / "whole.cmat").read_bytes()

    @pytest.mark.parametrize("shape, message", [((7, 4), "in a matrix of 4 columns"), ((8, 5), "hold 7 rows")])
    def test_row_blocks_that_do_not_fill_the_shape_raise(self, rng, tmp_path, shape, message):
        a = rand_complex(rng, 7, 5)
        with pytest.raises(ValueError, match=message):
            write_matrix_blocks(tmp_path / "blocks.cmat", shape, (a[:3], a[3:]))

    def test_write_matrix_makes_no_payload_copy(self, rng, tmp_path):
        a = rand_complex(rng, 64, 4096)
        tracemalloc.start()
        try:
            write_matrix(tmp_path / "big.cmat", a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * a.nbytes, f"peak {peak} bytes for a {a.nbytes}-byte payload"


class TestTraceCsv:
    @staticmethod
    def _random_trace(rng, n):
        records = [
            IterationRecord(
                k=k,
                objective=float(rng.uniform(0, 1e3)),
                primal_residual=float(rng.uniform(0, 1)),
                dual_residual=float(rng.uniform(0, 1)),
                elapsed_seconds=float(rng.uniform(0, 10)),
            )
            for k in range(n)
        ]
        return ConvergenceTrace(records)

    def test_five_hundred_rows_plus_header(self, rng, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(self._random_trace(rng, 500), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 501
        assert lines[0] == "iter,objective,primal_residual,dual_residual,elapsed_seconds"

    def test_empty_trace_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_trace_csv(ConvergenceTrace(), path)
        assert path.read_text().splitlines() == [
            "iter,objective,primal_residual,dual_residual,elapsed_seconds"
        ]

    def test_parse_round_trip_is_exact(self, rng, tmp_path):
        trace = self._random_trace(rng, 64)
        path = tmp_path / "rt.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert len(back) == 64
        # what a run knew of itself is not in the file
        assert back.stop_reason is back.sparse_forward_iters is back.screened_adjoint_iters is None
        for a, b in zip(trace, back):
            assert a == b  # float fields must survive the 17-digit print exactly

    def test_streaming_writer_matches_batch_writer(self, rng, tmp_path):
        trace = self._random_trace(rng, 33)
        batch = tmp_path / "batch.csv"
        streamed = tmp_path / "streamed.csv"
        write_trace_csv(trace, batch)
        with TraceCsvWriter(streamed) as writer:
            for record in trace:
                writer.write_row(record)
        assert streamed.read_bytes() == batch.read_bytes()

    @pytest.mark.parametrize("text", ["", "iter,objective,primal_residual,dual_residual\n"])
    def test_bad_header_is_a_format_error(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(FileFormatError, match="bad trace header at offset 0"):
            read_trace_csv(path)

    @pytest.mark.parametrize("row", ["x,1,2,3,4", "0,1,two,3,4", "0.5,1,2,3,4", "0,1,2,3", "0,1,2,3,4,5"])
    def test_malformed_row_is_a_format_error(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text("iter,objective,primal_residual,dual_residual,elapsed_seconds\n" + row + "\n")
        with pytest.raises(FileFormatError, match="malformed trace row"):
            read_trace_csv(path)


class TestSummaryCsv:
    HEADER = b"method,lambda,rho,N,iterations,final_objective,nmse,precision,recall,wall_seconds,status\n"

    def test_bytes_of_each_kind_of_field(self, tmp_path):
        path = tmp_path / "summary.csv"
        records = [
            {"method": "admm", "lambda": 0.1, "rho": math.inf, "N": 31, "iterations": 50, "final_objective": 1.5,
             "nmse": None, "precision": 0.5, "recall": 1.0, "wall_seconds": 0.25, "status": "ok",
             "kkt_violation": 2.0},  # a key outside the columns is left out
            {"method": "fista", "status": 'error: a, "b"\nc'},  # absent keys are empty fields
        ]
        write_summary_csv(records, path)
        assert path.read_bytes() == (
            self.HEADER
            + b"admm,0.10000000000000001,inf,31,50,1.5,,0.5,1,0.25,ok\n"
            + b'fista,,,,,,,,,,"error: a, ""b""\nc"\n'
        )
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(SUMMARY_COLUMNS)
        assert rows[2][-1] == 'error: a, "b"\nc'

    def test_no_records_is_header_only(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv([], path)
        assert path.read_bytes() == self.HEADER

    def test_readme_documents_the_header(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert f"`{','.join(SUMMARY_COLUMNS)}`" in readme.split("## File formats", 1)[1]


class TestJsonRecord:
    def test_bytes(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_json({"b": math.inf, "a": {"d": None, "c": [1, 0.5]}}, path)
        assert path.read_bytes() == (
            b'{\n  "a": {\n    "c": [\n      1,\n      0.5\n    ],\n    "d": null\n  },\n  "b": Infinity\n}\n'
        )

    def test_non_ascii_text_is_escaped(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_json({"status": "error: \u03c1"}, path)
        assert path.read_bytes() == b'{\n  "status": "error: \\u03c1"\n}\n'


class TestViewPgm:
    def test_two_by_two_scaling(self, tmp_path):
        path = tmp_path / "v.pgm"
        write_view_pgm(np.array([[0.0, 1.0], [2.0, 4.0]]), path)
        width, height, maxval, pixels = parse_pgm(path.read_bytes())
        assert (width, height, maxval) == (2, 2, 65535)
        assert pixels.ravel().tolist() == [0, 16384, 32768, 65535]

    def test_all_zero_view(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_view_pgm(np.zeros((3, 5)), path)
        width, height, maxval, pixels = parse_pgm(path.read_bytes())
        assert (width, height) == (5, 3)
        assert np.all(pixels == 0)

    def test_output_parses_under_p5_grammar(self, rng, tmp_path):
        view = np.abs(rand_complex(rng, 7, 11))
        path = tmp_path / "r.pgm"
        write_view_pgm(view, path)
        width, height, maxval, pixels = parse_pgm(path.read_bytes())
        assert (width, height, maxval) == (11, 7, 65535)
        assert pixels.max() == 65535

    def test_subnormal_peak_scales_without_overflow(self, tmp_path):
        # 65535 / 1e-310 overflows to inf; the pixels must still scale as for any other peak
        path = tmp_path / "tiny.pgm"
        write_view_pgm(np.array([[1e-310, 5e-311, 0.0]]), path)
        assert parse_pgm(path.read_bytes())[3].ravel().tolist() == [65535, 32768, 0]

    def test_empty_view_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nonempty"):
            write_view_pgm(np.zeros((0, 2)), tmp_path / "bad.pgm")

    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_view_rejected(self, tmp_path, value):
        with pytest.raises(ValueError, match="finite and >= 0"):
            write_view_pgm(np.array([[0.0, value]]), tmp_path / "bad.pgm")
        assert not (tmp_path / "bad.pgm").exists()
