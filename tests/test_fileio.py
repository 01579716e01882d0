import struct
import tracemalloc

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
    write_trace_csv,
    write_vector,
    write_view_pgm,
)


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
        path.write_bytes(b"CLNSMAT1" + b"\x00" * 4)
        with pytest.raises(FileFormatError, match="truncated header"):
            read_matrix(path)

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

    def test_empty_view_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nonempty"):
            write_view_pgm(np.zeros((0, 2)), tmp_path / "bad.pgm")
