import hashlib
import os
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from earpipe import ingest
from earpipe.ingest import (
    ADC_FULL_SCALE,
    HEADER_BYTE,
    PACKET_LEN,
    Event,
    IntegrityReport,
    Recording,
    counts_to_microvolts,
    cut_segments,
    encode_stream,
    load_events_csv,
    load_session_csv,
    microvolts_to_counts,
    parse_stream,
    read_table,
    save_events_csv,
    save_session_csv,
    session_cache_dir,
)

from oracles import (
    RawPacket,
    decode_word,
    encode_word,
    parse_stream_loop,
    session_csv_text,
    session_rows,
)


def make_packet(sn: int, words, footer_tag: int = 0) -> bytes:
    return RawPacket(sample_number=sn, channel_words=tuple(words), footer_tag=footer_tag).encode()


# --- word codec ---------------------------------------------------------------


@given(st.integers(min_value=-(2**23), max_value=2**23 - 1))
def test_word_roundtrip(value):
    assert decode_word(encode_word(value)) == value


def test_word_sign_boundaries():
    assert decode_word(b"\x7f\xff\xff") == 2**23 - 1
    assert decode_word(b"\x80\x00\x00") == -(2**23)
    assert decode_word(b"\xff\xff\xff") == -1


def test_word_out_of_range_rejected():
    with pytest.raises(ValueError):
        encode_word(2**23)


def test_scale_factor_value():
    # 4.5 V reference, gain 24, 23-bit positive full scale
    expected = 4.5 / (24 * (2**23 - 1)) * 1e6
    assert counts_to_microvolts(1.0) == pytest.approx(expected, rel=1e-12)
    assert counts_to_microvolts(ADC_FULL_SCALE) == pytest.approx(187500.0, rel=1e-9)


def test_counts_microvolts_inverse():
    counts = np.array([0, 1, -1, 12345, -(2**23), 2**23 - 1])
    uv = counts_to_microvolts(counts)
    assert np.array_equal(microvolts_to_counts(uv), counts)


# --- packet stream ------------------------------------------------------------


def test_two_packets_one_frame():
    lower = make_packet(0, range(8))
    upper = make_packet(1, range(8, 16))
    rec, report = parse_stream(lower + upper, rate=125.0)
    assert rec.n_samples == 1
    assert report.resyncs == 0
    assert report.dropped_packets == 0
    expected = counts_to_microvolts(np.arange(16, dtype=float))
    assert np.allclose(rec.data[:, 0], expected)
    assert rec.times()[0] == 0.0


def test_garbage_between_packets_single_resync():
    p = make_packet(0, range(8)) + make_packet(1, range(8))
    q = make_packet(2, range(8)) + make_packet(3, range(8))
    junk = bytes([0x11, 0x22, 0x33, 0x44, 0x55])  # no header byte inside
    rec, report = parse_stream(p + junk + q, rate=125.0)
    assert rec.n_samples == 2
    assert report.resyncs == 1


def test_bad_footer_skips_to_next_header():
    good = make_packet(0, range(8)) + make_packet(1, range(8))
    broken = bytearray(make_packet(2, range(8)))
    broken[-1] = 0x00  # footer outside 0xC0..0xCF
    tail = make_packet(3, range(8))
    rec, report = parse_stream(good + bytes(broken) + tail, rate=125.0)
    # the broken packet is skipped; its partner (sn 3) has no lower half
    assert rec.n_samples == 1
    assert report.resyncs >= 1
    assert report.dropped_packets >= 1


def test_sample_number_gap_counts_dropped_and_shifts_time():
    rate = 125.0
    a = make_packet(0, range(8)) + make_packet(1, range(8))
    # packets 2..5 lost in transit: next arrivals are 6, 7
    b = make_packet(6, range(8)) + make_packet(7, range(8))
    rec, report = parse_stream(a + b, rate=rate)
    assert rec.n_samples == 2
    assert report.dropped_packets == 4
    # the gap puts received sample 1 at board frame 3
    assert report.gaps == ((1, 2),)
    assert report.last_t == pytest.approx(3 / rate)
    assert report.expected_samples == 4
    assert report.actual_samples == 2


def test_sample_number_wraparound():
    a = make_packet(254, range(8)) + make_packet(255, range(8))
    b = make_packet(0, range(8)) + make_packet(1, range(8))
    rec, report = parse_stream(a + b, rate=125.0)
    assert rec.n_samples == 2
    assert report.dropped_packets == 0


def test_dangling_tail_packet_dropped():
    blob = make_packet(0, range(8)) + make_packet(1, range(8)) + make_packet(2, range(8))
    rec, report = parse_stream(blob, rate=125.0)
    assert rec.n_samples == 1
    assert report.dropped_packets == 1


def test_truncated_final_packet_is_resync():
    blob = make_packet(0, range(8)) + make_packet(1, range(8))
    rec, report = parse_stream(blob[:-5], rate=125.0)
    assert rec.n_samples == 0
    assert report.resyncs == 1


def test_empty_input():
    rec, report = parse_stream(b"", rate=125.0)
    assert rec.n_samples == 0
    assert report.actual_samples == 0


def test_encode_stream_roundtrip_bit_exact():
    rng = np.random.default_rng(11)
    counts = rng.integers(-(2**23), 2**23, size=(50, 16))
    rec, report = parse_stream(encode_stream(counts), rate=125.0)
    assert rec.n_samples == 50
    assert report.dropped_packets == 0 and report.resyncs == 0
    back = microvolts_to_counts(rec.data.T)
    assert np.array_equal(back, counts)


@settings(max_examples=50, deadline=None)
@given(st.binary(max_size=400))
def test_parser_total_on_arbitrary_bytes(blob):
    rec, report = parse_stream(blob, rate=125.0)
    assert rec.n_channels == 16
    assert np.all(np.isfinite(rec.data))
    assert report.actual_samples == rec.n_samples


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _assert_parses_like_the_loop(blob: bytes):
    """Walk and resyncs as the per-byte loop; while the loop loses no
    packet, the same samples bit for bit and the same accounting."""
    rec, report = parse_stream(blob, rate=125.0)
    frames, ref = parse_stream_loop(blob, rate=125.0)
    assert report.resyncs == ref.resyncs
    if ref.dropped_packets == 0:
        assert report.dropped_packets == 0
        assert rec.n_samples == len(frames)
        if frames:
            want = np.stack([f.values for f in frames], axis=1)
            assert _bits(rec.data).tolist() == _bits(want).tolist()
            assert rec.t0 == frames[0].t
        assert report.expected_samples == ref.expected_samples
        assert report.actual_samples == ref.actual_samples
        assert (report.first_t, report.last_t) == (ref.first_t, ref.last_t)
        assert report.gaps == ()


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=2000))
def test_parser_matches_loop_on_arbitrary_bytes(blob):
    _assert_parses_like_the_loop(blob)


def _damaged_stream(seed: int) -> bytes:
    """A packet stream with up to four random splices: a span of up to
    80 bytes replaced by up to 50 random bytes."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(-(2**23), 2**23, size=(int(rng.integers(0, 60)), 16))
    blob = bytearray(encode_stream(counts, start_sample_number=int(rng.integers(0, 256))))
    for _ in range(int(rng.integers(0, 5))):
        a = int(rng.integers(0, len(blob) + 1))
        b = int(rng.integers(a, min(len(blob), a + 80) + 1))
        blob[a:b] = rng.bytes(int(rng.integers(0, 51)))
    return bytes(blob)


def test_parser_matches_loop_on_damaged_streams():
    intact = 0
    for seed in range(300):
        blob = _damaged_stream(seed)
        _assert_parses_like_the_loop(blob)
        intact += parse_stream_loop(blob)[1].dropped_packets == 0
    # both branches of the comparison ran
    assert 30 <= intact <= 270


def _stream_losing(lost: set[int], n_frames: int = 200):
    """Counts 100 * frame + channel, encoded, with the packets at the
    given arrival indices removed."""
    counts = 100 * np.arange(n_frames)[:, None] + np.arange(16)
    blob = encode_stream(counts)
    packets = [blob[i : i + PACKET_LEN] for i in range(0, len(blob), PACKET_LEN)]
    return counts, b"".join(p for i, p in enumerate(packets) if i not in lost)


@pytest.mark.parametrize(
    "lost, gaps",
    [
        ({100}, ((50, 1),)),  # the lower half of frame 50
        ({101}, ((50, 1),)),  # the upper half of frame 50
        ({100, 101}, ((50, 1),)),  # all of frame 50
        (set(range(57, 93)), ((28, 19),)),  # upper of 28 through lower of 46
        (set(range(250, 263)), ((125, 7),)),  # across the sample-number wrap
        ({3, 10, 11, 396}, ((1, 1), (4, 1), (196, 1))),
    ],
    ids=["lower", "upper", "frame", "burst", "burst-over-wrap", "scattered"],
)
def test_lost_packets_keep_channel_order_and_board_time(lost, gaps):
    counts, blob = _stream_losing(lost)
    rec, report = parse_stream(blob, rate=125.0)
    kept = sorted(set(range(200)) - {p // 2 for p in lost})
    assert report.dropped_packets == len(lost)
    assert report.actual_samples == rec.n_samples == len(kept)
    assert report.expected_samples == 200
    assert report.gaps == gaps
    # every received sample carries its own frame's channels, in order
    assert np.array_equal(rec.data, counts_to_microvolts(counts[kept]).T)
    # and the gaps put each one back at its board frame
    board = np.arange(rec.n_samples)
    for sample, missing in gaps:
        board[sample:] += missing
    assert board.tolist() == kept


def test_stream_report_lists_gaps():
    _, blob = _stream_losing({100, 101})
    _, report = parse_stream(blob, rate=125.0)
    assert report.to_dict()["gaps"] == [{"sample": 50, "missing": 1}]
    segment = IntegrityReport(expected_samples=1, actual_samples=1, first_t=0.0, last_t=0.0)
    assert "gaps" not in segment.to_dict()


def test_parse_stream_memory_is_about_the_samples():
    counts = np.random.default_rng(4).integers(-(2**23), 2**23, size=(20_000, 16))
    blob = encode_stream(counts)
    tracemalloc.start()
    try:
        rec, _ = parse_stream(blob, rate=125.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.n_samples == 20_000
    # the float samples, plus at most twice the capture in temporaries
    assert peak <= rec.data.nbytes + 2 * len(blob)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=140),
    start=st.integers(min_value=0, max_value=255),
    footer_tag=st.integers(min_value=0, max_value=0x0F),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_encode_stream_matches_raw_packets(n, start, footer_tag, seed):
    counts = np.random.default_rng(seed).integers(-(2**23), 2**23, size=(n, 16))
    counts[: min(n, 2), :2] = [-(2**23), 2**23 - 1]
    want = b"".join(
        RawPacket(
            (start + 2 * f + half) % 256,
            tuple(int(v) for v in counts[f, 8 * half : 8 * half + 8]),
            footer_tag=footer_tag,
        ).encode()
        for f in range(n)
        for half in (0, 1)
    )
    assert encode_stream(counts, start_sample_number=start, footer_tag=footer_tag) == want


@pytest.mark.parametrize("bad", [2**23, -(2**23) - 1])
def test_encode_stream_rejects_counts_outside_24_bits(bad):
    counts = np.zeros((3, 16), dtype=np.int64)
    counts[2, 5] = bad
    with pytest.raises(ValueError, match=f"count {bad} outside signed 24-bit range"):
        encode_stream(counts)


@pytest.mark.parametrize("shape", [(3, 8), (16,), (2, 16, 1)])
def test_encode_stream_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match="counts must be"):
        encode_stream(np.zeros(shape, dtype=np.int64))


def test_packet_validation():
    with pytest.raises(ValueError):
        RawPacket(sample_number=256, channel_words=tuple(range(8)))
    with pytest.raises(ValueError):
        RawPacket(sample_number=0, channel_words=tuple(range(7)))
    with pytest.raises(ValueError):
        RawPacket(sample_number=0, channel_words=tuple(range(8)), footer_tag=16)


def test_packet_encode_length_and_header():
    raw = make_packet(7, range(8), footer_tag=3)
    assert len(raw) == PACKET_LEN
    assert raw[0] == HEADER_BYTE
    assert raw[-1] == 0xC3


# --- recording container ------------------------------------------------------


def test_recording_validation():
    with pytest.raises(ValueError):
        Recording(rate=0.0, labels=["a"], data=np.zeros((1, 4)))
    with pytest.raises(ValueError):
        Recording(rate=125.0, labels=["a", "b"], data=np.zeros((1, 4)))
    with pytest.raises(ValueError):
        Recording(
            rate=125.0,
            labels=["a"],
            data=np.zeros((1, 4)),
            events=[Event("x", -1.0, 0.5)],
        )


def test_parse_stream_returns_recording():
    blob = encode_stream(np.arange(32).reshape(2, 16))
    rec, _ = parse_stream(blob, rate=125.0)
    assert rec.data.shape == (16, 2)
    assert rec.n_samples == 2
    assert rec.n_samples / rec.rate == pytest.approx(2 / 125.0)


# --- CSV persistence ----------------------------------------------------------


def test_session_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    rec = Recording(rate=125.0, labels=[f"ch{i+1}" for i in range(4)], data=rng.normal(size=(4, 30)))
    path = tmp_path / "s.csv"
    save_session_csv(rec, path)
    back = load_session_csv(path)
    assert back.rate == 125.0
    assert back.labels == rec.labels
    assert np.allclose(back.data, rec.data, atol=1e-6)
    assert path.read_text().startswith("#rate=125\n")


def test_session_csv_writer_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(8)
    data = rng.normal(scale=50.0, size=(3, 25_000))
    data[0, :6] = [-0.0, -4e-7, 4e-7, -5e-7, 1e17, -123456789.1234567]
    data[1, :3] = [np.finfo(float).max, -1e-300, 0.0000005]
    rec = Recording(rate=250.0, labels=["a", "b", "c"], data=data, t0=1.5)
    path = tmp_path / "s.csv"
    save_session_csv(rec, path)
    text = path.read_text()
    assert text == session_csv_text(rec)
    assert ",-0.000000," in text


def test_session_csv_rate_inferred_without_comment(tmp_path):
    path = tmp_path / "bare.csv"
    lines = ["t_s,ch1"] + [f"{i/250.0:.6f},{0.0:.6f}" for i in range(100)]
    path.write_text("\n".join(lines) + "\n")
    rec = load_session_csv(path)
    assert rec.rate == pytest.approx(250.0, rel=1e-6)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_session_csv_rejects_non_finite_sample(tmp_path, bad):
    path = tmp_path / "s.csv"
    path.write_text(f"#rate=125\nt_s,ch1,ch2\n0.000000,1.0,2.0\n0.008000,3.0,{bad}\n")
    with pytest.raises(ValueError, match=r"non-finite value -?(inf|nan) in ch2 at t_s=0\.008000"):
        load_session_csv(path)


@pytest.mark.parametrize("value, refused", [
    ("1000000", False), ("-1000000", False), ("1000000.5", True), ("-2e6", True), ("1e300", True),
])
def test_session_csv_refuses_a_sample_past_one_volt(tmp_path, value, refused):
    path = tmp_path / "s.csv"
    # t_s is not a sample: seconds since 1970 lie far past the limit
    path.write_text(f"#rate=125\nt_s,ch1,ch2\n1700000000.0,1.0,2.0\n1700000000.008,3.0,{value}\n")
    if not refused:
        assert load_session_csv(path).data[1, 1] == float(value)
        return
    with pytest.raises(ValueError, match=rf"value {re.escape(str(float(value)))} in ch2 at t_s=1700000000\.008000 "
                                         r"is past the sample limit of \+-1e\+06 uV \(1 V\)"):
        load_session_csv(path)


# a rate follows the rows' number rule: no digit separators, no non-ASCII digits
@pytest.mark.parametrize("value", ["abc", "nan", "-5", "1_25", "\u0661"])
def test_session_csv_bad_rate_line_names_file_and_line(tmp_path, value):
    path = tmp_path / "s.csv"
    path.write_text(f"# recorded at home\n#rate={value}\nt_s,ch1\n0.000000,1.0\n0.008000,2.0\n")
    with pytest.raises(ValueError) as info:
        load_session_csv(path)
    assert str(info.value) == f"{path}:2: #rate= must be a positive finite number, got '{value}'"


def test_session_csv_ragged_row_reports_line(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("#rate=125\nt_s,ch1,ch2\n0.000000,1.0,2.0\n0.008000,3.0\n")
    with pytest.raises(ValueError, match=r"s\.csv:4: 2 fields, header has 3"):
        load_session_csv(path)


@pytest.mark.parametrize(
    "body, rate",
    [
        (
            "#rate=250\r\n\r\nt_s,ch1,ch2,ch3\r\n"
            "0.000000,-1.5e-3,2.25E+2,-0.000001\r\n"
            "\r\n"
            "   \r\n"
            "  # an indented comment\r\n"
            "0.004000,1.000000000000001,-3.3333333333333335,7e-300\r\n"
            "# a comment between rows\r\n"
            "0.008000,-0.1,0.2,0.30000000000000004",
            250.0,
        ),
        ("#rate=125\nt_s,ch1\n0.000000,-12.345678e1\n", 125.0),
        ("#rate= 125 \nt_s,ch1\n0.000000,1.0\n", 125.0),
    ],
    ids=["crlf-blank-comments-no-final-newline", "single-row", "spaced-rate"],
)
def test_session_csv_matches_float_oracle_bit_for_bit(tmp_path, body, rate):
    path = tmp_path / "s.csv"
    path.write_bytes(body.encode())
    header, rows = session_rows(path)
    rec = load_session_csv(path)
    assert rec.labels == header[1:]
    assert rec.rate == rate
    assert _bits(rec.data).tolist() == _bits(rows[:, 1:].T).tolist()
    assert rec.t0 == rows[0, 0]


def test_session_csv_lone_carriage_return_ends_a_line(tmp_path):
    # a CR-only session loads as its LF twin; a CR in the header ends the
    # header there, and the row after it is the one refused
    body = "#rate=125\nt_s,ch1,ch2\n0.000000,1.0,2.0\n0.008000,3.0,4.0\n"
    (tmp_path / "lf.csv").write_bytes(body.encode())
    (tmp_path / "cr.csv").write_bytes(body.replace("\n", "\r").encode())
    assert_same_recording(load_session_csv(tmp_path / "cr.csv"), load_session_csv(tmp_path / "lf.csv"))
    path = tmp_path / "split.csv"
    path.write_bytes(body.replace("ch2", "c\rh2,ch3").encode())
    with pytest.raises(ValueError, match=r"split\.csv:3: 2 fields, header has 3"):
        load_session_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("0.008000,3.0", r"s\.csv:7: 2 fields, header has 3"),
        ("0.008000,3.0,4.0,5.0", r"s\.csv:7: 4 fields, header has 3"),
        ("0.008000,3.0,abc", r"s\.csv:7: 'abc' in ch2 is not a number"),
        ("0.008000,,4.0", r"s\.csv:7: '' in ch1 is not a number"),
    ],
)
def test_session_csv_bad_row_reports_file_line(tmp_path, row, message):
    # line numbers count the comment and blank lines before the bad row
    path = tmp_path / "s.csv"
    path.write_text(f"#rate=125\n\nt_s,ch1,ch2\n0.000000,1.0,2.0\n\n# note\n{row}\n0.016,5,6\n")
    with pytest.raises(ValueError, match=message):
        load_session_csv(path)


def test_session_csv_load_memory_is_about_the_array(tmp_path):
    rows, channels = 20_000, 16
    rng = np.random.default_rng(5)
    rec = Recording(rate=125.0, labels=[f"ch{i+1}" for i in range(channels)],
                    data=rng.normal(scale=50.0, size=(channels, rows)))
    path = tmp_path / "s.csv"
    save_session_csv(rec, path)
    tracemalloc.start()
    try:
        back = load_session_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    array_bytes = rows * (channels + 1) * 8  # t_s column included
    assert back.n_samples == rows
    assert peak <= 3 * array_bytes


# --- session cache ------------------------------------------------------------


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A session cache of this test's own, empty at the start."""
    path = tmp_path / "cache"
    monkeypatch.setenv("EARPIPE_CACHE_DIR", str(path))
    return path


def saved_session(path, seed=0, rows=400, rate=250.0, t0=1.5):
    rng = np.random.default_rng(seed)
    rec = Recording(rate=rate, labels=["a", "b", "c"], data=rng.normal(scale=40.0, size=(3, rows)),
                    t0=t0)
    save_session_csv(rec, path)
    return path


def entry_of(cache, path):
    return cache / f"v{ingest.CACHE_FORMAT}-{hashlib.sha256(path.read_bytes()).hexdigest()}.npy"


def assert_same_recording(a, b):
    assert _bits(a.data).tolist() == _bits(b.data).tolist()
    assert (a.labels, a.rate, a.t0) == (b.labels, b.rate, b.t0)


def test_session_cache_hit_is_bit_identical_to_a_parse(tmp_path, cache, monkeypatch):
    path = saved_session(tmp_path / "s.csv")
    stored = load_session_csv(path)
    hit = load_session_csv(path)
    assert stored.meta == {"session_cache": "stored"}
    assert hit.meta == {"session_cache": "hit"}
    assert sorted(cache.iterdir()) == [entry_of(cache, path)]
    assert cache.stat().st_mode & 0o777 == 0o700
    assert entry_of(cache, path).stat().st_mode & 0o777 == 0o600

    monkeypatch.setenv("EARPIPE_CACHE_DIR", str(tmp_path / "other"))
    parsed = load_session_csv(path)
    assert parsed.meta == {"session_cache": "stored"}
    assert_same_recording(hit, parsed)
    assert_same_recording(stored, parsed)


def test_session_cache_sees_new_bytes_behind_the_same_size_and_mtime(tmp_path, cache):
    path = saved_session(tmp_path / "s.csv", seed=1)
    first = load_session_csv(path)
    state = path.stat()
    text = path.read_text()
    assert ",1" in text
    path.write_text(text.replace(",1", ",2"))
    os.utime(path, ns=(state.st_atime_ns, state.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (state.st_size, state.st_mtime_ns)

    second = load_session_csv(path)
    assert second.meta == {"session_cache": "stored"}
    oracle = session_rows(path)[1]
    assert _bits(second.data).tolist() == _bits(oracle[:, 1:].T).tolist()
    assert not np.array_equal(first.data, second.data)


@pytest.mark.parametrize("damage", ["truncated", "empty", "not npy", "other shape", "pickle"])
def test_session_cache_bad_entry_is_reparsed_and_replaced(tmp_path, cache, damage):
    path = saved_session(tmp_path / "s.csv", seed=2)
    parsed = load_session_csv(path)
    entry = entry_of(cache, path)
    good = entry.read_bytes()
    if damage == "truncated":
        entry.write_bytes(good[: len(good) // 2])
    elif damage == "empty":
        entry.write_bytes(b"")
    elif damage == "not npy":
        entry.write_bytes(b"t_s,a,b,c\n" * 100)
    elif damage == "other shape":
        np.save(entry, np.zeros((5, 2)))
    else:
        np.save(entry, np.array([{"a": 1}], dtype=object), allow_pickle=True)

    again = load_session_csv(path)
    assert again.meta == {"session_cache": "stored"}
    assert_same_recording(again, parsed)
    assert entry.read_bytes() == good
    assert load_session_csv(path).meta == {"session_cache": "hit"}


@pytest.mark.parametrize("row, message", [
    ("0.008000,3.0,abc", r"s\.csv:4: 'abc' in b is not a number"),
    ("0.008000,3.0,nan", r"non-finite value nan in b at t_s=0\.008000"),
])
def test_session_cache_keeps_no_entry_for_a_bad_file(tmp_path, cache, row, message):
    path = tmp_path / "s.csv"
    path.write_text(f"#rate=125\nt_s,a,b\n0.000000,1.0,2.0\n{row}\n")
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            load_session_csv(path)
    assert not cache.exists() or not list(cache.iterdir())


def test_session_cache_skips_a_file_that_changed_while_it_was_read(tmp_path, cache, monkeypatch):
    path = saved_session(tmp_path / "s.csv", seed=4)
    parse = ingest._parse_rows

    def parse_then_touch(*args):
        rows = parse(*args)
        os.utime(path, ns=(0, 0))
        return rows

    monkeypatch.setattr(ingest, "_parse_rows", parse_then_touch)
    assert load_session_csv(path).meta == {"session_cache": "not stored"}
    assert not cache.exists() or not list(cache.iterdir())


def test_session_cache_skips_a_file_rewritten_after_its_header_was_read(tmp_path, cache,
                                                                        monkeypatch):
    path = saved_session(tmp_path / "s.csv", seed=5)
    text = path.read_text()
    shorter = text.replace("#rate=250\n", "", 1)  # one preamble line fewer
    lookup = ingest._cache_entry

    def rewrite_then_lookup(*args):
        path.write_text(shorter)
        os.utime(path, ns=(10**18, 10**18))
        return lookup(*args)

    monkeypatch.setattr(ingest, "_cache_entry", rewrite_then_lookup)
    assert load_session_csv(path).meta == {"session_cache": "not stored"}
    assert not cache.exists() or not list(cache.iterdir())

    monkeypatch.setattr(ingest, "_cache_entry", lookup)
    stored = load_session_csv(path)
    assert stored.meta == {"session_cache": "stored"}
    oracle = session_rows(path)[1]
    assert _bits(stored.data).tolist() == _bits(oracle[:, 1:].T).tolist()


def test_session_cache_in_a_directory_others_can_write_is_not_used(tmp_path, cache):
    path = saved_session(tmp_path / "s.csv", seed=6)
    parsed = load_session_csv(path)
    entry = entry_of(cache, path)
    planted = np.load(entry) + 1.0
    np.save(entry, planted)
    cache.chmod(0o770)
    for _ in range(2):
        rec = load_session_csv(path)
        assert rec.meta == {"session_cache": "not stored"}
        assert_same_recording(rec, parsed)
    assert np.array_equal(np.load(entry), planted)

    cache.chmod(0o700)
    assert load_session_csv(path).meta == {"session_cache": "hit"}  # the planted rows
    np.save(entry, planted[:, :2])
    assert load_session_csv(path).meta == {"session_cache": "stored"}


def test_session_cache_does_not_read_entries_of_another_format(tmp_path, cache, monkeypatch):
    path = saved_session(tmp_path / "s.csv", seed=7)
    load_session_csv(path)
    old = entry_of(cache, path)
    monkeypatch.setattr(ingest, "CACHE_FORMAT", ingest.CACHE_FORMAT + 1)
    assert load_session_csv(path).meta == {"session_cache": "stored"}
    assert sorted(cache.iterdir()) == sorted([old, entry_of(cache, path)])


def test_session_cache_store_deletes_stale_temp_files(tmp_path, cache):
    cache.mkdir(mode=0o700)
    stale, fresh = cache / "tmpold.tmp", cache / "tmpnew.tmp"
    stale.write_bytes(b"left by a killed store")
    fresh.write_bytes(b"another store, still writing")
    hours_ago = time.time_ns() - 2 * ingest.STALE_TMP_NS
    os.utime(stale, ns=(hours_ago, hours_ago))
    path = saved_session(tmp_path / "s.csv", seed=8)
    assert load_session_csv(path).meta == {"session_cache": "stored"}
    assert sorted(cache.iterdir()) == sorted([fresh, entry_of(cache, path)])


def test_session_cache_that_cannot_be_written_costs_only_the_parse(tmp_path, monkeypatch):
    path = saved_session(tmp_path / "s.csv", seed=3)
    blocker = tmp_path / "a_file"
    blocker.write_text("not a directory")
    monkeypatch.setenv("EARPIPE_CACHE_DIR", str(blocker))
    first, second = load_session_csv(path), load_session_csv(path)
    assert first.meta == second.meta == {"session_cache": "not stored"}
    assert_same_recording(first, second)
    assert blocker.read_text() == "not a directory"


def test_session_cache_evicts_the_least_recently_used_past_its_budget(tmp_path, cache, monkeypatch):
    paths = [saved_session(tmp_path / f"s{k}.csv", seed=10 + k) for k in range(3)]
    load_session_csv(paths[0])
    entry_size = entry_of(cache, paths[0]).stat().st_size
    monkeypatch.setattr(ingest, "CACHE_BUDGET_BYTES", 2 * entry_size + entry_size // 2)
    load_session_csv(paths[1])
    # s1 was last used after s0 (2017 against 2001); a hit on s0 makes s1 the least recently used
    os.utime(entry_of(cache, paths[0]), ns=(10**18, 10**18))
    os.utime(entry_of(cache, paths[1]), ns=(15 * 10**17, 15 * 10**17))
    assert load_session_csv(paths[0]).meta == {"session_cache": "hit"}
    assert load_session_csv(paths[2]).meta == {"session_cache": "stored"}
    assert sorted(cache.iterdir()) == sorted([entry_of(cache, paths[0]), entry_of(cache, paths[2])])


def test_session_cache_location(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.delenv("EARPIPE_CACHE_DIR", raising=False)
    assert session_cache_dir() == tmp_path / "home" / ".cache" / "earpipe"
    monkeypatch.setenv("XDG_CACHE_HOME", "relative/is/ignored")
    assert session_cache_dir() == tmp_path / "home" / ".cache" / "earpipe"
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert session_cache_dir() == tmp_path / "xdg" / "earpipe"
    monkeypatch.setenv("EARPIPE_CACHE_DIR", str(tmp_path / "mine"))
    assert session_cache_dir() == tmp_path / "mine"


def test_events_csv_roundtrip(tmp_path):
    events = [Event("eyes_open", 0.0, 60.0), Event("eyes_closed", 60.0, 120.0)]
    path = tmp_path / "ev.csv"
    save_events_csv(events, path)
    assert load_events_csv(path) == events


def test_events_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("cond,begin,end\nx,0,1\n")
    with pytest.raises(ValueError):
        load_events_csv(path)


def test_events_csv_strips_names_and_times(tmp_path):
    path = tmp_path / "ev.csv"
    path.write_text("condition, start_s ,end_s\n eyes_open , 0, 10\n")
    assert load_events_csv(path) == [Event("eyes_open", 0.0, 10.0)]


def test_read_table_rules(tmp_path):
    path = tmp_path / "t.csv"
    # blank and spaces-only lines skipped, CRLF, a quoted comma, an extra column
    path.write_bytes(b'\r\n a , b ,c\r\n   \r\n"x, y", 1 ,\r\n\r\n')
    header, rows = read_table(path, ("b", "a"))
    assert header == ["a", "b", "c"]
    assert rows == [{"a": "x, y", "b": "1", "c": ""}] and rows[0].line == 4
    assert rows[0].number("b") == 1.0
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: '' in c is not a number$"):
        rows[0].number("c")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: expected header a,z$"):
        read_table(path, ("a", "z"))
    path.write_text("")
    with pytest.raises(ValueError, match="need a"):
        read_table(path, ("a",), "need a")
    assert read_table(path, ()) == ([], [])
    # csv's own faults are errors of the line too
    path.write_text("a,b\n" + "x" * 200_000 + ",1\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: field larger than field limit"):
        read_table(path, ("a",))


@pytest.mark.parametrize("value", ["1_000", "\u0661", "abc", ""])
def test_read_table_numbers_follow_the_session_csv_rule(tmp_path, value):
    path = tmp_path / "t.csv"
    path.write_text(f"a,b\n1,{value}\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: '{value}' in b is not a number$"):
        read_table(path, ("a", "b"))[1][0].number("b")


# --- segmentation -------------------------------------------------------------


def _recording(duration_s: float, rate: float = 125.0, n_ch: int = 2) -> Recording:
    n = int(round(duration_s * rate))
    data = np.arange(n_ch * n, dtype=float).reshape(n_ch, n)
    return Recording(rate=rate, labels=[f"ch{i+1}" for i in range(n_ch)], data=data)


def test_cut_60s_event_gives_7500_samples():
    rec = _recording(120.0)
    segs = cut_segments(rec, [Event("open", 0.0, 60.0)])
    assert len(segs) == 1
    assert segs[0].report.expected_samples == 7500
    assert segs[0].report.actual_samples == 7500
    assert segs[0].recording.n_samples == 7500


def test_cut_empty_event_has_no_samples():
    rec = _recording(20.0)
    segs = cut_segments(rec, [Event("x", 10.0, 10.0)])
    assert segs[0].recording.n_samples == 0
    # inside the span, so unflagged; run refuses an empty segment itself
    assert segs[0].report.actual_samples == 0
    assert segs[0].report.flags == ()


def test_cut_repeated_condition_keeps_both():
    rec = _recording(30.0)
    segs = cut_segments(rec, [Event("task", 0.0, 10.0), Event("task", 15.0, 25.0)])
    assert [s.condition for s in segs] == ["task", "task"]
    assert all(s.recording.n_samples == 1250 for s in segs)
    # distinct data: second segment starts at t=15
    assert segs[1].recording.data[0, 0] == rec.data[0, 15 * 125]


def test_cut_out_of_span_flagged_not_clipped_silently():
    rec = _recording(10.0)
    segs = cut_segments(rec, [Event("x", 5.0, 20.0)])
    assert "out-of-span" in segs[0].report.flags
    assert segs[0].report.expected_samples == int(15 * 125)
    assert segs[0].report.actual_samples < segs[0].report.expected_samples


def test_cut_half_open_boundary():
    rec = _recording(2.0)
    a = cut_segments(rec, [Event("a", 0.0, 1.0)])[0]
    b = cut_segments(rec, [Event("b", 1.0, 2.0)])[0]
    # [start, end): the boundary sample belongs to the later segment
    assert a.recording.n_samples == 125
    assert b.recording.n_samples == 125
    assert b.recording.data[0, 0] == rec.data[0, 125]


@pytest.mark.parametrize("length", [0, 1, 4095, 4096, 4097, 112_500])
def test_cut_copies_the_plain_slice_of_a_loaded_session(length):
    # a loaded session's samples are the transpose of its (samples, t_s + channels) table
    table = np.random.default_rng(length).normal(size=(112_510, 17))
    rec = Recording(rate=1.0, labels=[f"ch{i + 1}" for i in range(16)], data=table[:, 1:].T)
    seg = cut_segments(rec, [Event("x", 3.0, 3.0 + length)])[0].recording
    want = rec.data[:, 3 : 3 + length]
    assert seg.data.shape == want.shape and seg.data.dtype == want.dtype
    assert np.array_equal(seg.data, want)
    assert seg.data.flags.c_contiguous and not np.shares_memory(seg.data, table)


def test_segment_sample_budget():
    rec = _recording(30.0)
    events = [Event("a", 0.0, 12.0), Event("b", 12.0, 29.0)]
    segs = cut_segments(rec, events)
    assert sum(s.recording.n_samples for s in segs) <= rec.n_samples
