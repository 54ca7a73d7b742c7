import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import make_cov, raises_exact
from covlasso import (
    CovAccumulator,
    CovMatrix,
    InvalidInput,
    LogitMatrix,
    accumulate,
    finalize,
    read_cov,
    read_logits,
    read_logits_csv,
    write_cov,
    write_logits,
)
from covlasso.linalg import NEG_EIG_BAND
from oracles import psd_by_band

HEADER_LEN = 28  # magic + version + N + n + flags


def _logits(rng, samples=5, n=3, labels=False, names=False):
    data = rng.standard_normal((samples, n))
    lab = rng.integers(0, n, size=samples) if labels else None
    nm = tuple(f"cat{k}" for k in range(n)) if names else None
    return LogitMatrix(data, lab, nm)


class TestLogitRoundTrip:
    def test_plain(self, rng):
        m = _logits(rng)
        buf = write_logits(m)
        back = read_logits(buf)
        assert np.array_equal(m.data, back.data)
        assert back.labels is None and back.names is None
        assert write_logits(back) == buf

    def test_with_labels_and_names(self, rng):
        m = _logits(rng, labels=True, names=True)
        back = read_logits(write_logits(m))
        assert np.array_equal(m.data, back.data)
        assert np.array_equal(m.labels, back.labels)
        assert back.names == m.names

    def test_unicode_names(self, rng):
        m = LogitMatrix(rng.standard_normal((2, 2)), names=("über", "中文"))
        back = read_logits(write_logits(m))
        assert back.names == ("über", "中文")

    def test_data_is_aligned_and_owned(self, rng):
        # The payload sits 28 bytes into the file; a view of it would be
        # misaligned for float64, and matmul on it bypasses BLAS.
        data = read_logits(write_logits(_logits(rng, labels=True))).data
        assert data.flags.owndata and data.flags.aligned
        assert data.ctypes.data % data.itemsize == 0

    def test_aligned_payload_is_used_in_place(self, rng):
        # Offset by 4 bytes, as the CLI reads a file, the payload is
        # 8-byte aligned and needs no copy.
        raw = write_logits(_logits(rng, labels=True))
        buf = memoryview(np.empty(len(raw) + 4, dtype=np.uint8))[4:]
        buf[:] = raw
        data = read_logits(buf).data
        assert data.flags.aligned and not data.flags.owndata
        assert np.shares_memory(data, np.frombuffer(buf, dtype=np.uint8))

    def test_negative_zero_survives(self):
        data = np.array([[-0.0, 1.0]])
        back = read_logits(write_logits(LogitMatrix(data)))
        assert np.signbit(back.data[0, 0])

    def test_header_layout(self, rng):
        m = _logits(rng, samples=4, n=2)
        buf = write_logits(m)
        assert buf[:4] == b"NDLM"
        version, samples, n, flags = struct.unpack("<IQQI", buf[4:HEADER_LEN])
        assert (version, samples, n, flags) == (1, 4, 2, 0)
        assert len(buf) == HEADER_LEN + 4 * 2 * 8


class TestLogitErrors:
    def test_bad_magic(self):
        with pytest.raises(InvalidInput, match="bad magic"):
            read_logits(b"XXXX" + bytes(24))

    def test_bad_version(self, rng):
        buf = bytearray(write_logits(_logits(rng)))
        buf[4] = 2
        with pytest.raises(InvalidInput, match="version") as exc:
            read_logits(bytes(buf))
        assert "byte 4" in str(exc.value)

    def test_zero_counts(self):
        buf = b"NDLM" + struct.pack("<IQQI", 1, 0, 3, 0)
        with pytest.raises(InvalidInput, match="positive") as exc:
            read_logits(buf)
        assert "byte 8" in str(exc.value)

    def test_unknown_flags(self, rng):
        m = _logits(rng, samples=1, n=1)
        buf = bytearray(write_logits(m))
        buf[24] = 4
        with pytest.raises(InvalidInput) as exc:
            read_logits(bytes(buf))
        assert "flag" in str(exc.value) and "byte 24" in str(exc.value)

    def test_truncated_data_reports_offset(self, rng):
        buf = write_logits(_logits(rng, samples=2, n=2))
        with pytest.raises(InvalidInput, match="unexpected end") as exc:
            read_logits(buf[: HEADER_LEN + 10])
        assert f"byte {HEADER_LEN}" in str(exc.value)

    def test_trailing_bytes_rejected(self, rng):
        buf = write_logits(_logits(rng))
        with pytest.raises(InvalidInput, match="trailing") as exc:
            read_logits(buf + b"\x00")
        assert f"byte {len(buf)}" in str(exc.value)

    def test_non_finite_value_offset(self, rng):
        buf = bytearray(write_logits(_logits(rng, samples=2, n=3)))
        k = 4  # flat element index to poison
        off = HEADER_LEN + k * 8
        buf[off : off + 8] = struct.pack("<d", float("nan"))
        with pytest.raises(InvalidInput) as exc:
            read_logits(bytes(buf))
        assert str(exc.value) == f"non-finite logit value (byte {off})"

    def test_nan_logit_reported_before_later_faults(self, rng):
        # The first bad logit is located only on failure, but it still
        # outranks a bad label, a truncated name table or trailing bytes.
        buf = bytearray(write_logits(_logits(rng, samples=3, n=2, labels=True, names=True)))
        off = HEADER_LEN + 2 * 8
        buf[off : off + 8] = struct.pack("<d", float("-inf"))
        bad_label = bytearray(buf)
        bad_label[HEADER_LEN + 6 * 8 : HEADER_LEN + 6 * 8 + 4] = struct.pack("<I", 9)
        for faulty in (bad_label, buf[:-1], buf + b"\x00"):
            with pytest.raises(InvalidInput) as exc:
                read_logits(bytes(faulty))
            assert str(exc.value) == f"non-finite logit value (byte {off})"

    def test_label_out_of_range_offset(self, rng):
        m = _logits(rng, samples=3, n=2, labels=True)
        buf = bytearray(write_logits(m))
        lab_off = HEADER_LEN + 3 * 2 * 8
        bad = lab_off + 2 * 4  # third label
        buf[bad : bad + 4] = struct.pack("<I", 7)
        with pytest.raises(InvalidInput, match="out of range") as exc:
            read_logits(bytes(buf))
        assert f"byte {bad}" in str(exc.value)

    def test_name_bad_utf8(self):
        data = np.zeros((1, 1))
        base = b"NDLM" + struct.pack("<IQQI", 1, 1, 1, 2) + data.tobytes()
        payload = base + struct.pack("<I", 2) + b"\xff\xfe"
        with pytest.raises(InvalidInput, match="UTF-8") as exc:
            read_logits(payload)
        assert f"byte {len(base) + 4}" in str(exc.value)

    def test_repeated_name_rejected(self):
        # write_logits cannot produce this file: LogitMatrix refuses the names.
        table = (struct.pack("<I", 1) + b"a") * 2
        payload = b"NDLM" + struct.pack("<IQQI", 1, 1, 2, 2) + bytes(16) + table
        with raises_exact(InvalidInput, "repeated name 'a': categories 0 and 1"):
            read_logits(payload)

    def test_name_truncated(self):
        data = np.zeros((1, 1))
        base = b"NDLM" + struct.pack("<IQQI", 1, 1, 1, 2) + data.tobytes()
        payload = base + struct.pack("<I", 100) + b"abc"
        with pytest.raises(InvalidInput, match="unexpected end"):
            read_logits(payload)


class TestCovRoundTrip:
    def test_bitwise(self, rng):
        cov = make_cov(rng, 4)
        buf = write_cov(cov)
        back = read_cov(buf)
        assert np.array_equal(cov.data, back.data)
        assert back.sample_count == cov.sample_count
        assert write_cov(back) == buf

    def test_header_layout(self, rng):
        cov = make_cov(rng, 3)
        buf = write_cov(cov)
        assert buf[:4] == b"NDCV"
        version, n, count = struct.unpack("<IQQ", buf[4:24])
        assert (version, n, count) == (1, 3, cov.sample_count)
        assert len(buf) == 24 + 6 * 8  # upper triangle of a 3x3

    def test_symmetry_reconstructed(self, rng):
        mat = CovMatrix(rng.standard_normal((5, 5)), 10)
        cov = CovMatrix(mat.data @ mat.data.T / 5 + np.eye(5), 10)
        back = read_cov(write_cov(cov))
        assert np.array_equal(back.data, back.data.T)
        assert np.array_equal(back.data, cov.data)

    def test_not_psd_rejected(self):
        bad = CovMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), 1)
        buf = write_cov(bad)
        with pytest.raises(InvalidInput, match="positive semidefinite"):
            read_cov(buf)

    def test_zero_matrix_accepted(self):
        # The band is floored at the smallest normal float: S = 0 is PSD.
        back = read_cov(write_cov(CovMatrix(np.zeros((3, 3)), 1)))
        assert not back.data.any()

    def test_tiny_negative_eigenvalue_tolerated(self):
        c = 1.0 + 1e-12
        cov = CovMatrix(np.array([[1.0, c], [c, 1.0]]), 1)
        back = read_cov(write_cov(cov))
        assert back.n == 2

    def test_errors(self, rng):
        cov = make_cov(rng, 2)
        buf = write_cov(cov)
        with pytest.raises(InvalidInput, match="bad magic"):
            read_cov(b"NDLM" + buf[4:])
        with pytest.raises(InvalidInput, match="trailing"):
            read_cov(buf + b"!")
        with pytest.raises(InvalidInput, match="unexpected end"):
            read_cov(buf[:-1])
        zero = b"NDCV" + struct.pack("<IQQ", 1, 0, 5)
        with pytest.raises(InvalidInput, match="order"):
            read_cov(zero)
        nocount = b"NDCV" + struct.pack("<IQQ", 1, 1, 0) + struct.pack("<d", 1.0)
        with pytest.raises(InvalidInput, match="sample count"):
            read_cov(nocount)

    def test_non_finite_offset(self, rng):
        for k, value in ((2, float("inf")), (4, float("nan"))):
            buf = bytearray(write_cov(make_cov(rng, 3)))
            off = 24 + k * 8
            buf[off : off + 8] = struct.pack("<d", value)
            # Reported ahead of trailing bytes, though located only on failure.
            for faulty in (bytes(buf), bytes(buf) + b"!"):
                with pytest.raises(InvalidInput) as exc:
                    read_cov(faulty)
                assert str(exc.value) == f"non-finite matrix value (byte {off})"


@st.composite
def band_edge_spectra(draw):
    """Q diag(lam) Q^T whose lowest n - rank eigenvalues are -k * band.

    With rank = n - 1 only the smallest eigenvalue sits at the band
    edge; small ranks are paper-like (fewer samples than categories).
    k stays 0.05 away from 1, where roundoff could flip the band rule's
    verdict.
    """
    n = draw(st.integers(2, 40))
    rank = draw(st.integers(1, n - 1))
    k = draw(st.floats(0.0, 3.0).filter(lambda k: abs(k - 1.0) >= 0.05))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = np.zeros(n)
    lam[:rank] = 10.0 ** rng.uniform(-3.0, 0.0, rank) * 10.0 ** draw(st.integers(-3, 3))
    band = NEG_EIG_BAND * float(np.max(np.abs((q * lam) @ q.T)))
    lam[rank:] = -k * band
    return CovMatrix((q * lam) @ q.T, 10), k


@settings(max_examples=150, deadline=None)
@given(band_edge_spectra())
def test_psd_verdict_matches_the_eigenvalue_band_rule(case):
    cov, k = case
    accept = psd_by_band(cov.data, NEG_EIG_BAND)
    assert accept == (k < 1.0)
    buf = write_cov(cov)
    if accept:
        assert np.array_equal(read_cov(buf).data, cov.data)
    else:
        with pytest.raises(InvalidInput, match="not positive semidefinite") as exc:
            read_cov(buf)
        assert str(exc.value).endswith(" (byte 24)")


class TestCsv:
    def test_basic(self):
        m = read_logits_csv("1.5,2\n-3,0.25\n")
        assert_allclose(m.data, [[1.5, 2.0], [-3.0, 0.25]], rtol=0, atol=0)
        assert m.labels is None and m.names is None

    def test_header_names(self):
        m = read_logits_csv("ant,bee\n1,2\n3,4\n")
        assert m.names == ("ant", "bee")
        assert m.samples == 2

    def test_numeric_first_row_is_data(self):
        m = read_logits_csv("1,2\n3,4\n")
        assert m.names is None and m.samples == 2

    def test_labels_column(self):
        m = read_logits_csv("1.0,2.0,1\n3.0,4.0,0\n", labels_col=2)
        assert_allclose(m.data, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(m.labels, [1, 0])

    def test_negative_labels_column(self):
        m = read_logits_csv("0,1.0,2.0\n1,3.0,4.0\n", labels_col=-3)
        assert_allclose(m.data, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(m.labels, [0, 1])

    def test_header_with_labels_column(self):
        m = read_logits_csv("a,b,y\n1,2,0\n3,4,1\n", labels_col=-1)
        assert m.names == ("a", "b")
        assert np.array_equal(m.labels, [0, 1])

    def test_whitespace_tolerated(self):
        m = read_logits_csv(" 1 , 2 \n 3 , 4 \n")
        assert_allclose(m.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_empty_and_blank(self):
        with pytest.raises(InvalidInput, match="empty"):
            read_logits_csv("")
        with pytest.raises(InvalidInput) as exc:
            read_logits_csv("1,2\n\n3,4\n")
        assert "line 2" in str(exc.value)

    def test_header_without_rows(self):
        with pytest.raises(InvalidInput, match="no data rows"):
            read_logits_csv("a,b\n")

    def test_header_width_must_match_rows(self):
        # A header of the wrong width is an error, not silently dropped.
        for text, labels_col in (("a,b,c\n1,2\n3,4\n", None), ("a,b\n1,2,0\n", -1)):
            with pytest.raises(InvalidInput, match="header has") as exc:
                read_logits_csv(text, labels_col)
            assert "line 1" in str(exc.value)

    def test_ragged_row_cites_line(self):
        with pytest.raises(InvalidInput, match="columns") as exc:
            read_logits_csv("h1,h2\n1,2\n1,2,3\n")
        assert "line 3" in str(exc.value)

    def test_bad_number_cites_line_and_column(self):
        with pytest.raises(InvalidInput, match="not a number") as exc:
            read_logits_csv("1,2\n3,oops\n")
        assert "line 2, column 2" in str(exc.value)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput, match="non-finite") as exc:
            read_logits_csv("1,inf\n")
        assert "line 1, column 2" in str(exc.value)

    def test_label_not_integer(self):
        with pytest.raises(InvalidInput, match="not an integer") as exc:
            read_logits_csv("1,2,0\n3,4,1.5\n", labels_col=2)
        assert "line 2, column 3" in str(exc.value)

    def test_only_ascii_numerals_without_underscores(self):
        # float and int read "1_0" as 10 and Arabic-Indic digits as
        # numbers; a first row of them is data, not a header.
        for text, where in (("1_0,2\n3,4\n", "line 1, column 1"), ("1,2\n3,\u0661\u0662\n", "line 2, column 2")):
            with pytest.raises(InvalidInput, match="not a number") as exc:
                read_logits_csv(text)
            assert where in str(exc.value)
        with pytest.raises(InvalidInput, match="not an integer") as exc:
            read_logits_csv("1,2,0_0\n", labels_col=2)
        assert "line 1, column 3" in str(exc.value)

    def test_label_out_of_range_cites_line(self):
        for label in ("5", "2", "-1"):
            expect = f"label {label} out of range [0, 2) (line 2, column 3)"
            with raises_exact(InvalidInput, expect):
                read_logits_csv(f"1,2,0\n3,4,{label}\n", labels_col=2)

    def test_label_beyond_int64_cites_line_and_column(self):
        # Integers that int64 cannot hold, above and below.
        for label in ("99999999999999999999", "-9223372036854775809"):
            expect = f"label {label} out of range [0, 2) (line 2, column 3)"
            with raises_exact(InvalidInput, expect):
                read_logits_csv(f"1,2,0\n3,4,{label}\n", labels_col=2)

    def test_labels_col_out_of_range(self):
        with pytest.raises(InvalidInput, match="labels column"):
            read_logits_csv("1,2\n", labels_col=5)

    def test_labels_column_as_the_only_column(self):
        for text, labels_col, line in (("1\n2\n", 0, 1), ("y\n0\n", -1, 2)):
            expect = f"need at least one logit column besides the labels (line {line})"
            with raises_exact(InvalidInput, expect):
                read_logits_csv(text, labels_col)

    def test_first_fault_in_file_order_is_reported(self):
        # A fault on line 2 outranks a blank line 3 and a bad value on line 3.
        with raises_exact(InvalidInput, "value 'x' is not a number (line 2, column 1)"):
            read_logits_csv("1,2\nx,3\n\n")
        expect = "label 5 out of range [0, 2) (line 2, column 3)"
        with raises_exact(InvalidInput, expect):
            read_logits_csv("a,b,l\n1,2,5\n1,x,1\n", labels_col=-1)

    def test_repeated_header_name_rejected(self):
        # Indices count categories, so the labels column is not one.
        for text, labels_col, expect in (
            ("a,a,b\n1,2,3\n", None, "repeated name 'a': categories 0 and 1"),
            ("a,y,b,a\n1,0,2,3\n", 1, "repeated name 'a': categories 0 and 2"),
        ):
            with raises_exact(InvalidInput, expect):
                read_logits_csv(text, labels_col)

    def test_memory_stays_near_the_text_size(self):
        # No table of every cell: the peak is the line list plus the
        # float64 matrix (1.5x this text; one str per cell would be 5x).
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((2000, 200)).tolist()
        text = "\n".join(",".join(repr(v) for v in row) for row in rows) + "\n"
        tracemalloc.start()
        try:
            read_logits_csv(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * len(text), peak / len(text)

    def test_csv_and_binary_agree_through_covariance(self, rng):
        data = rng.integers(-8, 9, size=(20, 3)) / 4.0  # exact in binary and text
        lines = "\n".join(",".join(repr(float(v)) for v in row) for row in data)
        from_csv = read_logits_csv(lines + "\n")
        from_bin = read_logits(write_logits(LogitMatrix(data)))
        assert np.array_equal(from_csv.data, from_bin.data)
        a = finalize(accumulate(CovAccumulator(3), from_csv))
        b = finalize(accumulate(CovAccumulator(3), from_bin))
        assert write_cov(a) == write_cov(b)
