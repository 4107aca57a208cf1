import numpy as np
import pytest

from earpipe.ingest import Recording
from earpipe.montage import (
    ElectrodeLabel,
    MontageMap,
    builtin_montage_path,
    load_montage_csv,
    relabel_by_montage,
    rereference_linked_mastoid,
    validate,
)


def default_montage() -> MontageMap:
    """The built-in map of data/montage.csv: ground L6, reference R6,
    L3/R3 excluded, right ear on channels 1-8 and left ear on 9-16."""
    return load_montage_csv(builtin_montage_path())


def test_label_parse_and_str():
    lab = ElectrodeLabel.parse("L7")
    assert lab.side == "L" and lab.index == 7
    assert str(lab) == "L7"
    assert str(ElectrodeLabel.parse("R10")) == "R10"


def test_label_rejects_garbage():
    for bad in ("X3", "L0", "L11", "R", "l5"):
        with pytest.raises(ValueError):
            ElectrodeLabel.parse(bad)


def test_label_ordering():
    labs = sorted([ElectrodeLabel.parse(s) for s in ("R2", "L10", "L2", "R1")])
    assert [str(x) for x in labs] == ["L2", "L10", "R1", "R2"]


def test_default_montage_layout():
    m = default_montage()
    # right ear drives channels 1..8, left ear 9..16
    assert m.channel("R1") == 1
    assert m.channel("R2") == 2
    assert m.channel("L1") == 9
    assert m.channel("L10") == 16
    assert str(m.reference) == "R6"
    assert str(m.ground) == "L6"
    assert {str(x) for x in m.excluded} == {"L3", "R3"}
    assert validate(m) == []


def test_default_montage_skips_excluded_indices():
    m = default_montage()
    # R3 carries no channel, so R4 lands on channel 3
    assert m.channel("R4") == 3
    with pytest.raises(ValueError):
        m.channel("R3")
    with pytest.raises(ValueError):
        m.channel("R6")  # reference records nothing


def test_validate_names_violations():
    m = default_montage()
    # duplicate channel number
    broken = MontageMap(
        channel_of={**m.channel_of, ElectrodeLabel.parse("R1"): 2},
        reference=m.reference,
        ground=m.ground,
        excluded=m.excluded,
    )
    assert "injectivity" in " ".join(validate(broken))


def test_validate_catches_role_overlap():
    m = default_montage()
    broken = MontageMap(
        channel_of=m.channel_of,
        reference=m.ground,  # reference == ground
        ground=m.ground,
        excluded=m.excluded,
    )
    problems = " ".join(validate(broken))
    assert "role-overlap" in problems


def test_validate_catches_bad_coverage():
    m = default_montage()
    trimmed = dict(m.channel_of)
    trimmed.pop(ElectrodeLabel.parse("L1"))
    broken = MontageMap(
        channel_of=trimmed, reference=m.reference, ground=m.ground, excluded=m.excluded
    )
    assert "channel-coverage" in " ".join(validate(broken))


def test_builtin_montage_matches_default():
    # the layout of the module docstring, written out: ground L6, reference
    # R6, L3/R3 excluded, the right ear on channels 1-8 and the left on 9-16
    records = {"R1": 1, "R2": 2, "R4": 3, "R5": 4, "R7": 5, "R8": 6, "R9": 7, "R10": 8,
               "L1": 9, "L2": 10, "L4": 11, "L5": 12, "L7": 13, "L8": 14, "L9": 15, "L10": 16}
    literal = MontageMap(
        channel_of={ElectrodeLabel.parse(lab): ch for lab, ch in records.items()},
        reference=ElectrodeLabel("R", 6),
        ground=ElectrodeLabel("L", 6),
        excluded=frozenset({ElectrodeLabel("L", 3), ElectrodeLabel("R", 3)}),
    )
    assert load_montage_csv(builtin_montage_path()) == literal


def test_rereference_linked_mastoid_math():
    m = default_montage()
    rng = np.random.default_rng(0)
    data = rng.normal(size=(16, 40))
    rec = Recording(rate=125.0, labels=[f"ch{i+1}" for i in range(16)], data=data)
    out = rereference_linked_mastoid(rec, m)
    l5 = data[m.channel("L5") - 1]
    r5 = data[m.channel("R5") - 1]
    expected = data - (l5 + r5) / 2.0
    assert np.allclose(out.data, expected)
    # input untouched
    assert np.array_equal(rec.data, data)


def test_rereference_makes_mastoid_rows_opposite():
    m = default_montage()
    rng = np.random.default_rng(1)
    rec = Recording(
        rate=125.0, labels=[f"ch{i+1}" for i in range(16)], data=rng.normal(size=(16, 64))
    )
    out = rereference_linked_mastoid(rec, m)
    l5 = out.data[m.channel("L5") - 1]
    r5 = out.data[m.channel("R5") - 1]
    assert np.allclose(l5, -r5)


def test_relabel_by_montage():
    m = default_montage()
    rec = Recording(
        rate=125.0, labels=[f"ch{i+1}" for i in range(16)], data=np.zeros((16, 8))
    )
    out = relabel_by_montage(rec, m)
    assert out.labels[0] == "R1"
    assert out.labels[8] == "L1"
    assert out.labels[15] == "L10"


def test_relabel_refuses_a_channel_the_map_lacks():
    m = default_montage()
    trimmed = {lab: ch for lab, ch in m.channel_of.items() if ch != 12}
    broken = MontageMap(channel_of=trimmed, reference=m.reference, ground=m.ground, excluded=m.excluded)
    rec = Recording(rate=125.0, labels=[f"ch{i+1}" for i in range(16)], data=np.zeros((16, 8)))
    with pytest.raises(ValueError, match="no electrode mapped to channel 12"):
        relabel_by_montage(rec, broken)
