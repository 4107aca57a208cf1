"""Around-the-ear electrode montage handling.

Twenty electrode positions, ten per ear, labeled L1-L10 and R1-R10
going around each ear. One position per ear is consumed by hardware
wiring (ground on the left, reference on the right) and one further
position per ear is excluded to leave 16 recordable channels: right-ear
electrodes land on amplifier channels 1-8, left-ear electrodes on 9-16.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .ingest import Recording, check_name, read_index, read_table

SIDES = ("L", "R")
POSITIONS_PER_SIDE = 10


@dataclass(frozen=True, order=True)
class ElectrodeLabel:
    side: str
    index: int

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be L or R, got {self.side!r}")
        if not 1 <= self.index <= POSITIONS_PER_SIDE:
            raise ValueError(f"electrode index {self.index} outside 1-{POSITIONS_PER_SIDE}")

    @classmethod
    def parse(cls, text: str) -> "ElectrodeLabel":
        text = text.strip()
        if text[:1] not in SIDES:
            raise ValueError(f"cannot parse electrode label {text!r}")
        try:
            idx = read_index(text[1:])
        except ValueError as exc:
            raise ValueError(f"cannot parse electrode label {text!r}") from exc
        return cls(text[0], idx)

    def __str__(self) -> str:
        return f"{self.side}{self.index}"


@dataclass(frozen=True)
class MontageMap:
    """Mapping from recordable electrode labels to amplifier channels 1-16."""

    channel_of: dict
    reference: ElectrodeLabel
    ground: ElectrodeLabel
    excluded: frozenset

    def channel(self, label: str) -> int:
        lab = ElectrodeLabel.parse(label)
        try:
            return self.channel_of[lab]
        except KeyError:
            raise ValueError(f"electrode {lab} is not mapped to a channel") from None


def validate(m: MontageMap) -> list[str]:
    """Return violated-constraint names; an empty list means the map is valid."""
    violations: list[str] = []
    channels = list(m.channel_of.values())
    if len(set(channels)) != len(channels):
        violations.append("injectivity")
    if sorted(channels) != list(range(1, 17)):
        violations.append("channel-coverage")
    mapped = set(m.channel_of)
    role_list = [m.reference, m.ground, *m.excluded]
    roles = set(role_list)
    if mapped & roles or len(roles) != len(role_list):
        violations.append("role-overlap")
    by_side = {s: sum(1 for e in m.excluded if e.side == s) for s in SIDES}
    if set(by_side.values()) != {1} or len(m.excluded) != 2:
        violations.append("one-excluded-per-ear")
    for lab, ch in m.channel_of.items():
        if lab.side == "R" and not 1 <= ch <= 8:
            violations.append("side-assignment")
            break
        if lab.side == "L" and not 9 <= ch <= 16:
            violations.append("side-assignment")
            break
    return violations


def load_montage_csv(path) -> MontageMap:
    """The montage of a label,role,channel table; a ValueError for a bad
    row, or for a map that breaks a constraint validate names."""
    mapping: dict[ElectrodeLabel, int] = {}
    reference = None
    ground = None
    excluded = set()
    listed: set[ElectrodeLabel] = set()
    for row in read_table(path, ("label", "role", "channel"))[1]:
        row.build(check_name, "label", row["label"])
        lab = row.build(ElectrodeLabel.parse, row["label"])
        if lab in listed:
            raise ValueError(f"{path}:{row.line}: electrode {lab} is listed twice")
        listed.add(lab)
        role = row["role"].lower()
        if role == "record":
            channel = row.number("channel")
            if not channel.is_integer():
                raise ValueError(f"{path}:{row.line}: channel {row['channel']!r} is not a whole number")
            mapping[lab] = int(channel)
        elif role == "reference":
            reference = lab
        elif role == "ground":
            ground = lab
        elif role == "excluded":
            excluded.add(lab)
        else:
            raise ValueError(f"{path}:{row.line}: unknown role {role!r} for {lab}")
    if reference is None or ground is None:
        raise ValueError(f"{path}: montage must name a reference and a ground")
    monmap = MontageMap(
        channel_of=mapping, reference=reference, ground=ground, excluded=frozenset(excluded)
    )
    violations = validate(monmap)
    if violations:
        raise ValueError(f"montage violates constraints: {', '.join(violations)}")
    return monmap


def builtin_montage_path():
    return resources.files("earpipe").joinpath("data/montage.csv")


def rereference_linked_mastoid(rec: Recording, m: MontageMap, left="L5", right="R5") -> Recording:
    """Re-reference every channel to the mean of the two mastoid channels.

    Output row i is data[i] - (v_left + v_right) / 2 where v_left/v_right
    are the rows the montage maps the two mastoid-adjacent electrodes to.
    Recording rows are assumed to be in amplifier-channel order (row 0 is
    channel 1).
    """
    li = m.channel(left) - 1
    ri = m.channel(right) - 1
    for idx, name in ((li, left), (ri, right)):
        if not 0 <= idx < rec.n_channels:
            raise ValueError(f"mastoid electrode {name} maps to channel {idx + 1}, "
                             f"but the recording has {rec.n_channels} rows")
    ref = 0.5 * (rec.data[li] + rec.data[ri])
    return rec.with_data(rec.data - ref[None, :])


def relabel_by_montage(rec: Recording, m: MontageMap) -> Recording:
    """Rename ch1..ch16 recording rows to their electrode labels. The
    result shares rec's sample array; only the labels are new."""
    label_of = {ch: str(lab) for lab, ch in m.channel_of.items()}
    out = rec.with_data(rec.data)
    try:
        out.labels = [label_of[ch] for ch in range(1, rec.n_channels + 1)]
    except KeyError as exc:
        raise ValueError(f"no electrode mapped to channel {exc.args[0]}") from None
    return out
