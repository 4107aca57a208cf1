"""Raw amplifier stream parsing and session handling.

The amplifier emits 33-byte packets over serial: a 0xA0 header byte, an
8-bit rolling sample number, eight 24-bit big-endian two's-complement
channel words, six auxiliary bytes, and a footer byte in 0xC0-0xCF.
In 16-channel mode consecutive packets alternately carry the lower and
upper eight channels; a merged pair forms one frame at the board rate
(125 Hz by default).

`parse_stream` decodes a capture in one vectorised pass: a mask of
header- and footer-aligned offsets drives the greedy walk, aligned runs
are taken whole and only damaged bytes are stepped through one resync at
a time. Halves are paired by sample-number parity, the first packet
taken as a lower half, and the recording is returned directly with an
`IntegrityReport` that lists the gaps left by lost frames.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import re
import stat
import time
import warnings
from contextlib import suppress
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

HEADER_BYTE = 0xA0
FOOTER_LO = 0xC0
FOOTER_HI = 0xCF
PACKET_LEN = 33
WORDS_PER_PACKET = 8

ADS_VREF_VOLTS = 4.5
ADS_GAIN = 24.0
ADC_FULL_SCALE = 2**23 - 1
UV_PER_COUNT = ADS_VREF_VOLTS / (ADS_GAIN * ADC_FULL_SCALE) * 1e6
# Largest sample magnitude of a session CSV, in microvolts: 1 V, over five
# times the 187.5 mV full scale ADS_VREF_VOLTS / ADS_GAIN. A larger value is
# not EEG, and its square overflows the power sums of ASR, ICA and Welch.
MAX_ABS_UV = 1e6

DEFAULT_RATE = 125.0


def counts_to_microvolts(counts):
    """Convert raw ADC counts to microvolts.

    One count corresponds to UV_PER_COUNT microvolts. Accepts
    scalars or arrays; the conversion is exactly linear.
    """
    return counts * UV_PER_COUNT


def microvolts_to_counts(uv):
    """Inverse of counts_to_microvolts, rounded to the nearest integer count."""
    return np.rint(np.asarray(uv, dtype=float) / UV_PER_COUNT).astype(np.int64)


@dataclass
class IntegrityReport:
    """Sample accounting of a packet stream or of one cut segment.

    `gaps` is set on a stream report only: one `(sample, missing)` pair
    per run of missing frames, where `sample` is the index of the next
    received sample and `missing` the number of frames lost before it.
    Received sample i therefore sits at board frame i plus the missing
    counts of every gap at or before i.
    """

    expected_samples: int
    actual_samples: int
    first_t: float
    last_t: float
    dropped_packets: int = 0
    resyncs: int = 0
    flags: tuple[str, ...] = ()
    gaps: tuple[tuple[int, int], ...] | None = None

    def to_dict(self) -> dict:
        out = {
            "expected_samples": self.expected_samples,
            "actual_samples": self.actual_samples,
            "first_t": self.first_t,
            "last_t": self.last_t,
            "dropped_packets": self.dropped_packets,
            "resyncs": self.resyncs,
            "flags": list(self.flags),
        }
        if self.gaps is not None:
            out["gaps"] = [{"sample": s, "missing": m} for s, m in self.gaps]
        return out


_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f]")


def check_name(what: str, name: str) -> None:
    """Refuse a participant, condition, channel or band name that holds a
    control character: a lone carriage return, for one, is not quoted by
    the csv module and would split a bands.csv row."""
    if _CONTROL.search(name):
        raise ValueError(f"{what} {name!r} holds a control character")


@dataclass(frozen=True)
class Event:
    condition: str
    start_s: float
    end_s: float

    def __post_init__(self):
        check_name("condition", self.condition)
        if self.end_s < self.start_s:
            raise ValueError(f"event {self.condition}: end {self.end_s} before start {self.start_s}")


@dataclass
class Recording:
    """A multichannel recording: data is (channels, samples) in microvolts.

    Sample i sits at t0 + i / rate seconds.
    """

    rate: float
    labels: list[str]
    data: np.ndarray
    events: list[Event] = field(default_factory=list)
    t0: float = 0.0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if not 0 < self.rate < math.inf:
            raise ValueError(f"rate must be positive and finite, got {self.rate}")
        if self.data.ndim != 2:
            raise ValueError(f"data must be 2-D (channels, samples), got ndim={self.data.ndim}")
        if len(self.labels) != self.data.shape[0]:
            raise ValueError(
                f"{len(self.labels)} labels for {self.data.shape[0]} channel rows"
            )
        for ev in self.events:
            self.check_span(ev)

    @property
    def span(self) -> tuple[float, float]:
        """The recorded time span [t0, t0 + n_samples / rate) in seconds."""
        return self.t0, self.t0 + self.n_samples / self.rate

    def check_span(self, ev: Event) -> None:
        """A ValueError naming ev and the recorded span when ev runs outside it."""
        lo, hi = self.span
        if ev.start_s < lo - 1e-9 or ev.end_s > hi + 1e-9:
            raise ValueError(
                f"event {ev.condition} [{ev.start_s}, {ev.end_s}) outside the "
                f"recorded span [{lo}, {hi})"
            )

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_samples) / self.rate

    def copy(self) -> "Recording":
        return self.with_data(self.data.copy())

    def with_data(self, data) -> "Recording":
        """This recording with `data` as its samples: labels, events and
        meta are copied, the sample array is taken as given."""
        return replace(
            self,
            labels=list(self.labels),
            data=data,
            events=list(self.events),
            meta=dict(self.meta),
        )


# An aligned run is checked this many packets at a time, so the look-ahead
# from each accepted header stays bounded on damaged input.
RUN_CHUNK = 1024


def _packet_runs(buf: bytes) -> tuple[list[tuple[int, int]], int]:
    """The greedy walk over a capture: a packet is accepted where a header
    byte sits at pos and a footer at pos + 32; anywhere else one resync
    is counted and the walk moves to the next header byte after pos. A
    header with no room left for its packet ends the walk with a resync.
    Returns (start, packet count) of each back-to-back packet run, and
    the resync count."""
    n = len(buf)
    last = n - PACKET_LEN  # the last start with room for a whole packet
    raw = np.frombuffer(buf, dtype=np.uint8)
    ok = raw[: max(last + 1, 0)] == HEADER_BYTE
    ok &= (raw[PACKET_LEN - 1 :] & 0xF0) == FOOTER_LO  # FOOTER_LO..FOOTER_HI
    header = bytes([HEADER_BYTE])
    runs: list[tuple[int, int]] = []
    resyncs = 0
    pos = 0
    while pos < n:
        if pos <= last and ok[pos]:
            start = pos
            while pos <= last:
                chunk = ok[pos : pos + PACKET_LEN * RUN_CHUNK : PACKET_LEN]
                k = int(chunk.argmin())  # the first damaged start, or 0
                if not chunk[k]:
                    pos += PACKET_LEN * k
                    break
                pos += PACKET_LEN * len(chunk)
            runs.append((start, (pos - start) // PACKET_LEN))
            continue
        resyncs += 1
        if pos > last and buf[pos] == HEADER_BYTE:
            break
        nxt = buf.find(header, pos + 1)
        pos = nxt if nxt != -1 else n
    return runs, resyncs


def _decode_words(word_bytes: np.ndarray) -> np.ndarray:
    """(m, 3k) word bytes -> (m, k) counts: 24-bit big-endian two's
    complement, sign-extended in int32."""
    b = word_bytes.reshape(len(word_bytes), word_bytes.shape[1] // 3, 3)
    w = b[..., 0].astype(np.int32)
    w <<= 8
    w |= b[..., 1]
    w <<= 8
    w |= b[..., 2]
    sign = w & 0x800000
    sign <<= 1
    w -= sign
    return w


def parse_stream(data: bytes, rate: float = DEFAULT_RATE) -> tuple[Recording, IntegrityReport]:
    """Parse a raw byte stream into a 16-channel recording.

    Total over arbitrary input: malformed bytes are skipped to the next
    header candidate (counted in resyncs). Packets sit on the board's
    timeline by sample number: the first packet is taken as a lower half
    and packet p after it at index p plus the sample-number steps missed
    in between, so frame f is packets 2f (lower channels) and 2f + 1
    (upper). A frame is kept only when both halves arrived; its lone
    half is discarded. Every missed step counts as one dropped packet,
    and so does the partner of a final lower half. A loss of 256 or more
    packets at once cannot be seen from 8-bit sample numbers.

    Received frames are stacked back to back from t0 = the first kept
    frame's board time; the report's `gaps` says where frames are
    missing between them. No gap is filled.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    buf = bytes(data)
    runs, resyncs = _packet_runs(buf)

    # sample number and the 24 word bytes of every packet, in arrival order
    raw = np.frombuffer(buf, dtype=np.uint8)
    body = np.empty((sum(count for _, count in runs), 1 + 3 * WORDS_PER_PACKET), dtype=np.uint8)
    k = 0
    for start, count in runs:
        packets = raw[start : start + count * PACKET_LEN].reshape(count, PACKET_LEN)
        body[k : k + count] = packets[:, 1 : 2 + 3 * WORDS_PER_PACKET]
        k += count

    # board packet index: each packet steps 1 plus the sample numbers it skipped
    seq = np.zeros(len(body), dtype=np.int64)
    np.cumsum(1 + (np.diff(body[:, 0].astype(np.int64)) - 1) % 256, out=seq[1:])
    dropped = 0
    if len(seq):
        dropped = int(seq[-1]) + 1 - len(seq) + int(seq[-1] % 2 == 0)
    lower = np.flatnonzero((seq[:-1] % 2 == 0) & (np.diff(seq) == 1))
    frame = seq[lower] // 2

    # the word bytes of each kept frame, lower then upper half
    halves = body[np.stack([lower, lower + 1], axis=1), 1:]
    halves = halves.reshape(len(lower), 6 * WORDS_PER_PACKET)
    del body
    counts = _decode_words(halves)
    del halves
    samples = np.empty((2 * WORDS_PER_PACKET, len(frame)))
    np.multiply(counts.T, UV_PER_COUNT, out=samples)

    missing = np.diff(frame, prepend=-1) - 1
    gaps = tuple((int(i), int(missing[i])) for i in np.flatnonzero(missing))
    first_t = last_t = 0.0
    if len(frame):
        first_t, last_t = int(frame[0]) / rate, int(frame[-1]) / rate
    report = IntegrityReport(
        expected_samples=int(frame[-1]) + 1 if len(frame) else 0,
        actual_samples=len(frame),
        first_t=first_t,
        last_t=last_t,
        dropped_packets=dropped,
        resyncs=resyncs,
        gaps=gaps,
    )
    labels = [f"ch{i + 1}" for i in range(2 * WORDS_PER_PACKET)]
    return Recording(rate=rate, labels=labels, data=samples, t0=first_t), report


def _pack_frames(out: np.ndarray, counts: np.ndarray, first_sample_number: int, footer_tag: int):
    """Write (m, 16) counts into the (m, 2, 33) packets `out`, the first
    lower half carrying `first_sample_number` (mod 256)."""
    # the values whose int(), which truncates, fits in 24 bits; NaN does not
    inside = (counts > -(2**23) - 1) & (counts < 2**23)
    if not inside.all():
        raise ValueError(f"count {counts[~inside][0]} outside signed 24-bit range")
    words = counts.astype(np.int64).reshape(len(counts), 2, WORDS_PER_PACKET) & 0xFFFFFF
    sample_numbers = (first_sample_number % 256 + np.arange(2 * len(counts))) % 256
    out[:, :, 0] = HEADER_BYTE
    out[:, :, 1] = sample_numbers.reshape(len(counts), 2)
    out[:, :, 2 : 2 + 3 * WORDS_PER_PACKET : 3] = words >> 16
    out[:, :, 3 : 2 + 3 * WORDS_PER_PACKET : 3] = (words >> 8) & 0xFF
    out[:, :, 4 : 2 + 3 * WORDS_PER_PACKET : 3] = words & 0xFF
    out[:, :, 2 + 3 * WORDS_PER_PACKET : PACKET_LEN - 1] = 0
    out[:, :, PACKET_LEN - 1] = FOOTER_LO + footer_tag


def encode_stream(counts: np.ndarray, start_sample_number: int = 0, footer_tag: int = 0) -> bytes:
    """Encode (n, 16) integer counts as a packet-pair stream.

    Each frame becomes two packets: lower 8 channels then upper 8, with
    consecutive rolling sample numbers. The bytes are those of the
    tests' per-packet oracle, `oracles.RawPacket.encode`, for each
    half-frame. Frames are packed 4096 at a time, so the temporaries stay
    small next to the output.
    """
    arr = np.asarray(counts)
    if arr.ndim != 2 or arr.shape[1] != 2 * WORDS_PER_PACKET:
        raise ValueError(f"counts must be (n, 16), got {arr.shape}")
    if not 0 <= footer_tag <= 0x0F:
        raise ValueError(f"footer tag {footer_tag} outside 0x0-0xF")
    packets = np.empty((len(arr), 2, PACKET_LEN), dtype=np.uint8)
    for start in range(0, len(arr), 4096):
        block = slice(start, start + 4096)
        _pack_frames(packets[block], arr[block], start_sample_number + 2 * start, footer_tag)
    return packets.tobytes()


def save_session_csv(rec: Recording, path) -> None:
    """Write `t_s,ch1..chN` rows preceded by a `#rate=` comment line."""
    t = rec.times()
    row = ",".join(["%.6f"] * (rec.n_channels + 1)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(f"#rate={rec.rate:g}\n")
        fh.write("t_s," + ",".join(rec.labels) + "\n")
        for start in range(0, rec.n_samples, 10_000):  # bounded Python-object memory
            stop = start + 10_000
            block = np.column_stack([t[start:stop], rec.data[:, start:stop].T]).tolist()
            fh.writelines(row % tuple(values) for values in block)


def _bad_row_error(path, header: list[str], cause: ValueError) -> ValueError:
    """The error for the first sample row np.loadtxt could not take,
    named by its 1-based line in the file (blank and comment lines
    count). Rescans the file in Python; only a failed load pays for it."""
    with open(path) as fh:
        lines = (line.partition("#")[0].strip() for line in fh)
        numbered = ((n, line) for n, line in enumerate(lines, start=1) if line)
        next(numbered)  # the header
        for line_no, line in numbered:
            try:
                row = TableRow(path, line_no, header, line.split(","))
                for name in header:
                    row.number(name)
            except ValueError as exc:
                return exc
    return ValueError(f"{path}: {cause}")


def _reads_as_float(text: str) -> bool:
    """Whether np.loadtxt reads text as a float: what float() takes,
    less digit separators and non-ASCII digits."""
    try:
        float(text)
    except ValueError:
        return False
    return text.isascii() and "_" not in text


# The session cache keeps the parsed sample rows of each session CSV as
# v<CACHE_FORMAT>-<SHA-256 of the file's bytes>.npy, so a later load of
# the same bytes skips the parse. Bump CACHE_FORMAT whenever a parse can
# return other rows for the same bytes, so entries made by the old code
# are never read again (they age out by eviction).
CACHE_FORMAT = 1

# About thirty 2 x 15 min 16-channel sessions at 125 Hz (31 MB each as
# float64), or four 2 h ones at 250 Hz (245 MB each): a study's recent
# sessions stay parsed without the cache taking a noticeable share of a
# home directory. Entries past it go least recently used first.
CACHE_BUDGET_BYTES = 1 << 30
HASH_CHUNK_BYTES = 1 << 20
# A store's temp file lives for the seconds a store takes; one this old
# was left by a store that was killed, and eviction deletes it.
STALE_TMP_NS = 3600 * 10**9


def session_cache_dir() -> Path | None:
    """Where parsed sessions are kept: $EARPIPE_CACHE_DIR if set, else
    $XDG_CACHE_HOME/earpipe, else ~/.cache/earpipe; None when there is
    no home directory to put it in."""
    if os.environ.get("EARPIPE_CACHE_DIR"):
        return Path(os.environ["EARPIPE_CACHE_DIR"])
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    if os.path.isabs(xdg):
        return Path(xdg) / "earpipe"
    try:
        return Path.home() / ".cache" / "earpipe"
    except RuntimeError:
        return None


def _private_dir(path: Path) -> bool:
    """Whether path is a directory only this user can put files in: owned
    by them, with no group or other write bit. An entry anywhere else may
    have been planted by someone else, so such a cache is not used."""
    try:
        st = os.stat(path)
    except OSError:
        return False
    return stat.S_ISDIR(st.st_mode) and st.st_uid == os.getuid() and not st.st_mode & 0o022


def _file_state(path) -> tuple[int, int]:
    st = os.stat(path)
    return st.st_size, st.st_mtime_ns


def _cache_entry(path, state: tuple[int, int]) -> Path | None:
    """The cache entry of the file's bytes; None without a cache
    directory, when the file cannot be hashed, or when its (size,
    mtime_ns) is no longer `state`, taken before its header was read."""
    # hashlib and tempfile are imported where they are used: only a
    # session CSV load needs them, and importing them costs about 16 ms
    # of start-up (hashlib also maps OpenSSL) that other commands skip
    import hashlib

    cache_dir = session_cache_dir()
    if cache_dir is None:
        return None
    try:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            while chunk := fh.read(HASH_CHUNK_BYTES):
                digest.update(chunk)
        if _file_state(path) != state:
            return None
    except OSError:
        return None
    return cache_dir / f"v{CACHE_FORMAT}-{digest.hexdigest()}.npy"


def _cached_rows(entry: Path, n_columns: int) -> np.ndarray | None:
    """The sample rows kept at entry, or None when its directory is not
    private, there are none, or they are not a non-empty float64 (rows,
    n_columns) array. A hit marks the entry as just used."""
    if not _private_dir(entry.parent):
        return None
    try:
        with open(entry, "rb") as fh:
            arr = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError):  # EOFError: an empty file
        return None
    if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.ndim == 2
            and arr.shape[1] == n_columns and len(arr)):
        return None
    with suppress(OSError):
        os.utime(entry)
    return arr


def _store_rows(entry: Path, state: tuple[int, int], path, arr: np.ndarray) -> bool:
    """Keep arr at entry if the session file's size and mtime are still
    `state` and the cache directory is private, then evict past the
    budget; whether it was kept."""
    import tempfile  # imported here for the reason given in _cache_entry

    if arr.nbytes > CACHE_BUDGET_BYTES:
        return False
    try:
        if _file_state(path) != state:
            return False
        entry.parent.mkdir(mode=0o700, parents=True, exist_ok=True)
        if not _private_dir(entry.parent):
            return False
        fd, tmp = tempfile.mkstemp(dir=entry.parent, suffix=".tmp")  # mode 0600
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, arr, allow_pickle=False)
            os.replace(tmp, entry)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
    except (OSError, ValueError):
        return False
    _evict(entry.parent, CACHE_BUDGET_BYTES)
    return True


def _evict(cache_dir: Path, budget: int) -> None:
    """Delete stale temp files, then the least recently used entries
    until the rest fit budget."""
    entries = []
    stale = time.time_ns() - STALE_TMP_NS
    with suppress(OSError):
        for p in cache_dir.iterdir():
            with suppress(OSError):
                st = p.stat()
                if p.suffix == ".npy":
                    entries.append((st.st_mtime_ns, st.st_size, p))
                elif p.suffix == ".tmp" and st.st_mtime_ns < stale:
                    p.unlink()
    total = sum(size for _, size, _ in entries)
    for _, size, p in sorted(entries):
        if total <= budget:
            break
        with suppress(OSError):
            p.unlink()
            total -= size


def _parse_rows(path, header: list[str], skiprows: int) -> np.ndarray:
    """The float rows after the header, which ends on line `skiprows`.
    numpy's reader takes the file first; only a file it refuses pays for
    the Python-filtered read, which skips what it cannot take and names
    the first bad row."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(path, delimiter=",", comments=None, skiprows=skiprows, ndmin=2)
        except ValueError:
            pass
        try:
            with open(path) as fh:
                return np.loadtxt(
                    # np.loadtxt would read a spaces-only line or an indented
                    # comment as a row of empty fields
                    (line for line in itertools.islice(fh, skiprows, None)
                     if line.lstrip()[:1] not in ("", "#")),
                    dtype=np.float64,
                    delimiter=",",
                    comments="#",
                    ndmin=2,
                )
        except ValueError as exc:
            raise _bad_row_error(path, header, exc) from None


def _header_rate(path, line: int, text: str) -> float:
    """The value of a `#rate=` line, refused with its file and line
    unless it is a positive finite number by the rows' rule (_reads_as_float)."""
    rate = float(text) if _reads_as_float(text) else math.nan
    if not 0 < rate < math.inf:  # also refuses nan
        raise ValueError(f"{path}:{line}: #rate= must be a positive finite number, got {text!r}")
    return rate


def _check_channel_names(path, line: int, header: list[str]) -> None:
    """Refuse a `t_s,...` header with no channel column, or with an empty
    or repeated column name (`t_s` included) or one that holds a control
    character, naming its file and line."""
    if len(header) < 2:
        raise ValueError(f"{path}:{line}: header has no channel column")
    for col, name in enumerate(header[1:], start=2):
        if not name:
            raise ValueError(f"{path}:{line}: column {col} of the header has no name")
        if name in header[:col - 1]:
            raise ValueError(f"{path}:{line}: column {col} of the header repeats {name!r}")
        check_name(f"{path}:{line}: column {col} of the header", name)


def load_session_csv(path) -> Recording:
    """Read the session format: `#` comment lines, a `t_s,<label>,...`
    header, then one row per sample. The header names at least one
    channel, and its names are non-empty and distinct.

    Only a `#rate=` line before the header sets the rate; without one
    it is inferred from the median timestamp step. Blank lines, comment
    lines and CRLF endings are accepted anywhere. The sample rows are
    parsed straight into one float array, so loading needs about the
    array's size in memory, not one Python object per value.

    The rows come from the session cache (`session_cache_dir`) when it
    holds the file's bytes; a file parsed here that passes every check
    is stored there. The rate line and the header are read from the
    file either way, and the cached rows get the same checks. A cache
    that cannot be read or written, or whose directory others could
    write to, only costs the parse. The result's meta["session_cache"]
    says "hit", "stored" or "not stored".
    """
    rate = None
    header: list[str] | None = None
    # taken before the header is read: a file rewritten after this point
    # is neither looked up nor stored, whatever the lines it now skips
    state = _file_state(path)
    with open(path) as fh:
        for skiprows, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                if key.strip() == "rate":
                    rate = _header_rate(path, skiprows, val.strip())
                continue
            header = [c.strip() for c in line.split(",")]
            break
    if header is None or header[0] != "t_s":
        raise ValueError(f"{path}: expected a 't_s,ch...' header row")
    _check_channel_names(path, skiprows, header)
    entry = _cache_entry(path, state)
    arr = _cached_rows(entry, len(header)) if entry else None
    status = "hit" if arr is not None else "not stored"
    if arr is None:
        arr = _parse_rows(path, header, skiprows)
    if not len(arr):
        raise ValueError(f"{path}: no sample rows")
    if arr.shape[1] != len(header):
        raise _bad_row_error(
            path, header, ValueError(f"{arr.shape[1]} fields, header has {len(header)}")
        )
    t, samples = arr[:, 0], arr[:, 1:]
    # min and max carry a nan through and build no array the size of the samples
    if not (np.isfinite(t).all()
            and -MAX_ABS_UV <= samples.min(initial=0) <= samples.max(initial=0) <= MAX_ABS_UV):
        bad = ~np.isfinite(arr)
        bad[:, 1:] |= np.abs(samples) > MAX_ABS_UV
        i, col = np.argwhere(bad)[0]
        v = arr[i, col]
        past = f" is past the sample limit of +-{MAX_ABS_UV:g} uV (1 V)" if np.isfinite(v) else ""
        raise ValueError(f"{path}: {'' if past else 'non-finite '}value {v} in {header[col]} "
                         f"at t_s={arr[i, 0]:.6f}{past}")
    if rate is None:
        # fall back to the median timestamp step
        dt = np.median(np.diff(t)) if len(t) > 1 else 1.0
        if dt <= 0:
            raise ValueError(f"{path}: cannot infer rate from timestamps")
        rate = 1.0 / dt
    rec = Recording(rate=rate, labels=header[1:], data=arr[:, 1:].T, t0=float(t[0]))
    if status != "hit" and entry and _store_rows(entry, state, path, arr):
        status = "stored"
    rec.meta["session_cache"] = status
    return rec


def save_events_csv(events: list[Event], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["condition", "start_s", "end_s"])
        for ev in events:
            writer.writerow([ev.condition, f"{ev.start_s:g}", f"{ev.end_s:g}"])


class TableRow(dict):
    """A read_table row: column -> stripped field, with its file and line."""

    def __init__(self, path, line: int, header: list[str], fields: list[str]):
        if len(fields) != len(header):
            raise ValueError(f"{path}:{line}: {len(fields)} fields, header has {len(header)}")
        super().__init__(zip(header, (f.strip() for f in fields)))
        self.path, self.line = path, line

    def number(self, column: str, finite: bool = False) -> float:
        """The column's field as a float, by the session CSV's rule; with
        finite, nan and inf are refused too."""
        text = self[column]
        if not _reads_as_float(text):
            raise ValueError(f"{self.path}:{self.line}: {text!r} in {column} is not a number")
        if finite and not math.isfinite(float(text)):
            raise ValueError(f"{self.path}:{self.line}: {text!r} in {column} is not finite")
        return float(text)

    def build(self, make, *args):
        """make(*args); a ValueError it raises is raised again, named by
        this row's file and line."""
        try:
            return make(*args)
        except ValueError as exc:
            raise ValueError(f"{self.path}:{self.line}: {exc}") from None


def read_table(path, required, header_rule: str | None = None):
    """The header and the TableRows of a small CSV table, split by the csv
    module, names and fields stripped, blank lines skipped. The header
    must hold every `required` column, else the ValueError is "<path>:
    <header_rule>" ("expected header <required>" by default); every row
    must have as many fields as the header. A bad row or number is a
    ValueError naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        records = ((reader.line_num, fields) for fields in reader
                   if len(fields) > 1 or "".join(fields).strip())
        try:
            header = [name.strip() for name in next(records, (0, []))[1]]
            if not set(required) <= set(header):
                raise ValueError(f"{path}: {header_rule or 'expected header ' + ','.join(required)}")
            return header, [TableRow(path, line, header, fields) for line, fields in records]
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def load_events_csv(path) -> list[Event]:
    _, rows = read_table(path, ("condition", "start_s", "end_s"))
    return [row.build(Event, row["condition"], row.number("start_s"), row.number("end_s"))
            for row in rows]


@dataclass
class Segment:
    condition: str
    recording: Recording
    report: IntegrityReport


# columns per run of _copy_columns: a run of a loaded session's rows stays in cache
CUT_BLOCK = 4096


def _copy_columns(data: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """data[:, i0:i1] as a new row-major array, copied CUT_BLOCK columns at a
    time; a loaded session's data is the transpose of its (samples, columns) table."""
    out = np.empty((data.shape[0], i1 - i0), dtype=data.dtype)
    for s in range(0, i1 - i0, CUT_BLOCK):
        out[:, s : s + CUT_BLOCK] = data[:, i0 + s : min(i0 + s + CUT_BLOCK, i1)]
    return out


def cut_segments(rec: Recording, events: list[Event]) -> list[Segment]:
    """Cut [start_s, end_s) windows out of a recording.

    Segments falling partly or fully outside the recorded span are
    returned clipped but flagged rather than silently shortened.
    """
    out: list[Segment] = []
    span_lo, span_hi = rec.span
    for ev in events:
        # bounds every sample offset below; also refuses a NaN or infinite time
        if not math.isfinite((abs(ev.start_s - rec.t0) + abs(ev.end_s - rec.t0)) * rec.rate):
            raise ValueError(f"event {ev.condition} [{ev.start_s}, {ev.end_s}) cannot be "
                             f"counted in samples at {rec.rate} Hz")
        flags: list[str] = []
        if ev.start_s < span_lo - 1e-9 or ev.end_s > span_hi + 1e-9:
            flags.append("out-of-span")
        i0 = max(0, math.ceil((ev.start_s - rec.t0) * rec.rate - 1e-9))
        i1 = min(rec.n_samples, math.ceil((ev.end_s - rec.t0) * rec.rate - 1e-9))
        i1 = max(i0, i1)
        expected = int(round((ev.end_s - ev.start_s) * rec.rate))
        actual = i1 - i0
        data = _copy_columns(rec.data, i0, i1)
        seg_rec = Recording(rate=rec.rate, labels=list(rec.labels), data=data)
        t_first = rec.t0 + i0 / rec.rate if actual else ev.start_s
        t_last = rec.t0 + (i1 - 1) / rec.rate if actual else ev.start_s
        out.append(
            Segment(
                condition=ev.condition,
                recording=seg_rec,
                report=IntegrityReport(
                    expected_samples=expected,
                    actual_samples=actual,
                    first_t=t_first,
                    last_t=t_last,
                    flags=tuple(flags),
                ),
            )
        )
    return out
