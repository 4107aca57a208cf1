"""Raw amplifier stream parsing and session handling.

The amplifier emits 33-byte packets over serial: a 0xA0 header byte, an
8-bit rolling sample number, eight 24-bit big-endian two's-complement
channel words, six auxiliary bytes, and a footer byte in 0xC0-0xCF.
In 16-channel mode consecutive packets alternately carry the lower and
upper eight channels; a merged pair forms one frame at the board rate
(125 Hz by default).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

HEADER_BYTE = 0xA0
FOOTER_LO = 0xC0
FOOTER_HI = 0xCF
PACKET_LEN = 33
WORDS_PER_PACKET = 8

ADS_VREF_VOLTS = 4.5
ADS_GAIN = 24.0
ADC_FULL_SCALE = 2**23 - 1

DEFAULT_RATE = 125.0


class StreamError(ValueError):
    """Raised for malformed packet construction, not for parse-time noise."""


def decode_word(raw: bytes) -> int:
    """Decode one 24-bit big-endian two's-complement channel word."""
    if len(raw) != 3:
        raise StreamError(f"channel word must be 3 bytes, got {len(raw)}")
    return int.from_bytes(raw, "big", signed=True)


def encode_word(count: int) -> bytes:
    if not -(2**23) <= count <= 2**23 - 1:
        raise StreamError(f"count {count} outside signed 24-bit range")
    return int(count).to_bytes(3, "big", signed=True)


def counts_to_microvolts(counts, vref: float = ADS_VREF_VOLTS, gain: float = ADS_GAIN):
    """Convert raw ADC counts to microvolts.

    One count corresponds to vref / (gain * (2**23 - 1)) volts. Accepts
    scalars or arrays; the conversion is exactly linear.
    """
    if gain <= 0:
        raise ValueError(f"gain must be positive, got {gain}")
    if vref <= 0:
        raise ValueError(f"vref must be positive, got {vref}")
    scale = vref / (gain * ADC_FULL_SCALE) * 1e6
    return counts * scale


def microvolts_to_counts(uv, vref: float = ADS_VREF_VOLTS, gain: float = ADS_GAIN):
    """Inverse of counts_to_microvolts, rounded to the nearest integer count."""
    scale = vref / (gain * ADC_FULL_SCALE) * 1e6
    return np.rint(np.asarray(uv, dtype=float) / scale).astype(np.int64)


@dataclass(frozen=True)
class RawPacket:
    """One 33-byte packet as it came off the wire."""

    sample_number: int
    channel_words: tuple[int, ...]
    aux: bytes = b"\x00" * 6
    footer_tag: int = 0

    def __post_init__(self):
        if not 0 <= self.sample_number <= 255:
            raise StreamError(f"sample number {self.sample_number} outside 0-255")
        if len(self.channel_words) != WORDS_PER_PACKET:
            raise StreamError("packet carries exactly 8 channel words")
        if len(self.aux) != 6:
            raise StreamError("aux block is exactly 6 bytes")
        if not 0 <= self.footer_tag <= 0x0F:
            raise StreamError(f"footer tag {self.footer_tag} outside 0x0-0xF")

    def encode(self) -> bytes:
        body = bytearray([HEADER_BYTE, self.sample_number])
        for w in self.channel_words:
            body += encode_word(w)
        body += self.aux
        body.append(FOOTER_LO + self.footer_tag)
        return bytes(body)


@dataclass(frozen=True)
class SampleFrame:
    """One 16-channel sample in microvolts, t in seconds since stream start."""

    t: float
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


@dataclass
class IntegrityReport:
    expected_samples: int
    actual_samples: int
    first_t: float
    last_t: float
    dropped_packets: int = 0
    resyncs: int = 0
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "expected_samples": self.expected_samples,
            "actual_samples": self.actual_samples,
            "first_t": self.first_t,
            "last_t": self.last_t,
            "dropped_packets": self.dropped_packets,
            "resyncs": self.resyncs,
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class Event:
    condition: str
    start_s: float
    end_s: float

    def __post_init__(self):
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
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.data.ndim != 2:
            raise ValueError(f"data must be 2-D (channels, samples), got ndim={self.data.ndim}")
        if len(self.labels) != self.data.shape[0]:
            raise ValueError(
                f"{len(self.labels)} labels for {self.data.shape[0]} channel rows"
            )
        span_end = self.t0 + self.data.shape[1] / self.rate
        for ev in self.events:
            if ev.start_s < self.t0 - 1e-9 or ev.end_s > span_end + 1e-9:
                raise ValueError(
                    f"event {ev.condition} [{ev.start_s}, {ev.end_s}) outside the "
                    f"recorded span [{self.t0}, {span_end})"
                )

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.rate

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


def parse_stream(
    data: bytes,
    rate: float = DEFAULT_RATE,
    vref: float = ADS_VREF_VOLTS,
    gain: float = ADS_GAIN,
) -> tuple[list[SampleFrame], IntegrityReport]:
    """Parse a raw byte stream into 16-channel frames.

    Total over arbitrary input: malformed bytes are skipped to the next
    header candidate (counted in resyncs), sample-number gaps are counted
    as dropped packets, and packets are paired strictly by arrival order
    (lower channels first). A dangling unpaired packet at end of stream
    counts as dropped.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    buf = bytes(data)
    n = len(buf)
    pos = 0
    resyncs = 0
    dropped = 0
    frames: list[SampleFrame] = []
    pending: tuple[int, ...] | None = None  # lower-8 words awaiting their pair
    pending_seq = 0
    last_sn: int | None = None
    pkt_seq = 0  # packet index in the board's own timeline, gaps included
    scale = counts_to_microvolts(1.0, vref=vref, gain=gain)

    while pos < n:
        if buf[pos] != HEADER_BYTE:
            nxt = buf.find(bytes([HEADER_BYTE]), pos + 1)
            resyncs += 1
            pos = nxt if nxt != -1 else n
            continue
        if pos + PACKET_LEN > n:
            resyncs += 1
            break
        footer = buf[pos + PACKET_LEN - 1]
        if not FOOTER_LO <= footer <= FOOTER_HI:
            nxt = buf.find(bytes([HEADER_BYTE]), pos + 1)
            resyncs += 1
            pos = nxt if nxt != -1 else n
            continue
        sn = buf[pos + 1]
        words = tuple(
            decode_word(buf[pos + 2 + 3 * k : pos + 5 + 3 * k]) for k in range(WORDS_PER_PACKET)
        )
        pos += PACKET_LEN

        if last_sn is None:
            pkt_seq = 0
        else:
            pkt_seq += 1 + (sn - last_sn - 1) % 256
            dropped += (sn - last_sn - 1) % 256
        last_sn = sn

        if pending is None:
            pending = words
            pending_seq = pkt_seq
        else:
            frame_idx = pending_seq // 2
            vals = np.array(pending + words, dtype=float) * scale
            frames.append(SampleFrame(t=frame_idx / rate, values=vals))
            pending = None

    if pending is not None:
        dropped += 1

    actual = len(frames)
    if frames:
        expected = int(frames[-1].t * rate + 0.5) + 1
        first_t, last_t = frames[0].t, frames[-1].t
    else:
        expected = 0
        first_t = last_t = 0.0
    report = IntegrityReport(
        expected_samples=max(expected, actual),
        actual_samples=actual,
        first_t=first_t,
        last_t=last_t,
        dropped_packets=dropped,
        resyncs=resyncs,
    )
    return frames, report


def encode_stream(counts: np.ndarray, start_sample_number: int = 0, footer_tag: int = 0) -> bytes:
    """Encode (n, 16) integer counts as a packet-pair stream.

    Each frame becomes two packets: lower 8 channels then upper 8, with
    consecutive rolling sample numbers.
    """
    arr = np.asarray(counts)
    if arr.ndim != 2 or arr.shape[1] != 16:
        raise StreamError(f"counts must be (n, 16), got {arr.shape}")
    out = bytearray()
    sn = start_sample_number
    for row in arr:
        lower = RawPacket(sn % 256, tuple(int(v) for v in row[:8]), footer_tag=footer_tag)
        upper = RawPacket((sn + 1) % 256, tuple(int(v) for v in row[8:]), footer_tag=footer_tag)
        out += lower.encode()
        out += upper.encode()
        sn += 2
    return bytes(out)


def frames_to_recording(frames: list[SampleFrame], rate: float) -> Recording:
    if not frames:
        return Recording(rate=rate, labels=[f"ch{i + 1}" for i in range(16)], data=np.zeros((16, 0)))
    data = np.stack([f.values for f in frames], axis=1)
    labels = [f"ch{i + 1}" for i in range(data.shape[0])]
    return Recording(rate=rate, labels=labels, data=data, t0=frames[0].t)


def save_session_csv(rec: Recording, path) -> None:
    """Write `t_s,ch1..chN` rows preceded by a `#rate=` comment line."""
    t = rec.times()
    with open(path, "w", newline="") as fh:
        fh.write(f"#rate={rec.rate:g}\n")
        fh.write("t_s," + ",".join(rec.labels) + "\n")
        for i in range(rec.n_samples):
            row = ",".join(f"{v:.6f}" for v in rec.data[:, i])
            fh.write(f"{t[i]:.6f},{row}\n")


def _bad_row_error(path, header: list[str], cause: ValueError) -> ValueError:
    """The error for the first sample row np.loadtxt could not take,
    named by its 1-based line in the file (blank and comment lines
    count). Rescans the file in Python; only a failed load pays for it."""
    with open(path) as fh:
        lines = (line.partition("#")[0].strip() for line in fh)
        numbered = ((n, line) for n, line in enumerate(lines, start=1) if line)
        next(numbered)  # the header
        for line_no, line in numbered:
            row = line.split(",")
            if len(row) != len(header):
                return ValueError(f"{path}:{line_no}: {len(row)} fields, header has {len(header)}")
            for name, value in zip(header, row):
                if not _reads_as_float(value):
                    return ValueError(f"{path}:{line_no}: {value.strip()!r} in {name} is not a number")
    return ValueError(f"{path}: {cause}")


def _reads_as_float(text: str) -> bool:
    """Whether np.loadtxt reads text as a float: what float() takes,
    less digit separators and non-ASCII digits."""
    try:
        float(text)
    except ValueError:
        return False
    return text.isascii() and "_" not in text


def load_session_csv(path) -> Recording:
    """Read the session format: `#` comment lines, a `t_s,<label>,...`
    header, then one row per sample.

    Only a `#rate=` line before the header sets the rate; without one
    it is inferred from the median timestamp step. Blank lines, comment
    lines and CRLF endings are accepted anywhere. The sample rows are
    parsed straight into one float array, so loading needs about the
    array's size in memory, not one Python object per value.
    """
    rate = None
    header: list[str] | None = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                if key.strip() == "rate":
                    rate = float(val)
                continue
            header = [c.strip() for c in line.split(",")]
            break
        if header is None or header[0] != "t_s":
            raise ValueError(f"{path}: expected a 't_s,ch...' header row")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                arr = np.loadtxt(
                    # np.loadtxt would read a spaces-only line or an indented
                    # comment as a row of empty fields
                    (line for line in fh if line.lstrip()[:1] not in ("", "#")),
                    dtype=np.float64,
                    delimiter=",",
                    comments="#",
                    ndmin=2,
                )
        except ValueError as exc:
            raise _bad_row_error(path, header, exc) from None
    if not len(arr):
        raise ValueError(f"{path}: no sample rows")
    if arr.shape[1] != len(header):
        raise _bad_row_error(
            path, header, ValueError(f"{arr.shape[1]} fields, header has {len(header)}")
        )
    if not np.isfinite(arr).all():
        i, col = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(
            f"{path}: non-finite value {arr[i, col]} in {header[col]} at t_s={arr[i, 0]:.6f}"
        )
    t = arr[:, 0]
    if rate is None:
        # fall back to the median timestamp step
        dt = np.median(np.diff(t)) if len(t) > 1 else 1.0
        if dt <= 0:
            raise ValueError(f"{path}: cannot infer rate from timestamps")
        rate = 1.0 / dt
    return Recording(rate=rate, labels=header[1:], data=arr[:, 1:].T, t0=float(t[0]))


def save_events_csv(events: list[Event], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["condition", "start_s", "end_s"])
        for ev in events:
            writer.writerow([ev.condition, f"{ev.start_s:g}", f"{ev.end_s:g}"])


def load_events_csv(path) -> list[Event]:
    events = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or set(["condition", "start_s", "end_s"]) - set(reader.fieldnames):
            raise ValueError(f"{path}: expected header condition,start_s,end_s")
        for row in reader:
            events.append(Event(row["condition"], float(row["start_s"]), float(row["end_s"])))
    return events


@dataclass
class Segment:
    condition: str
    recording: Recording
    report: IntegrityReport


def cut_segments(rec: Recording, events: list[Event] | None = None) -> list[Segment]:
    """Cut [start_s, end_s) windows out of a recording.

    Segments falling partly or fully outside the recorded span are
    returned clipped but flagged rather than silently shortened.
    """
    if events is None:
        events = rec.events
    out: list[Segment] = []
    span_lo = rec.t0
    span_hi = rec.t0 + rec.n_samples / rec.rate
    for ev in events:
        flags: list[str] = []
        if ev.start_s < span_lo - 1e-9 or ev.end_s > span_hi + 1e-9:
            flags.append("out-of-span")
        i0 = max(0, math.ceil((ev.start_s - rec.t0) * rec.rate - 1e-9))
        i1 = min(rec.n_samples, math.ceil((ev.end_s - rec.t0) * rec.rate - 1e-9))
        i1 = max(i0, i1)
        expected = int(round((ev.end_s - ev.start_s) * rec.rate))
        actual = i1 - i0
        if actual == 0:
            flags.append("empty-segment")
        seg_rec = Recording(
            rate=rec.rate,
            labels=list(rec.labels),
            data=rec.data[:, i0:i1].copy(),
            meta={"condition": ev.condition},
        )
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
