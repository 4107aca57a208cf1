"""Run the full chain on the synthetic eyes-open/eyes-closed fixture.

Generates a 2x60 s session where the alpha comb is three times larger
while the eyes are closed, pushes it through the standard pipeline and
prints the per-band medians. Expected outcome: alpha rises by roughly
9.5 dB in the closed segment while the other bands stay flat.

Usage: python scripts/berger_demo.py [out_dir]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from earpipe.ingest import save_events_csv, save_session_csv
from earpipe.pipeline import PipelineConfig, run_pipeline
from earpipe.spectral import read_band_table
from earpipe.synth import BergerSpec, berger_session


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    out_dir.mkdir(parents=True, exist_ok=True)

    rec = berger_session(BergerSpec(seed=0))
    save_session_csv(rec, out_dir / "session.csv")
    save_events_csv(rec.events, out_dir / "events.csv")

    cfg = PipelineConfig(
        session=str(out_dir / "session.csv"),
        events=str(out_dir / "events.csv"),
        out_dir=str(out_dir / "reports"),
    )
    summary = run_pipeline(cfg)
    print(f"processed {summary['n_segments']} segments -> {summary['out_dir']}")

    rows = read_band_table(Path(summary["out_dir"]) / "bands.csv")
    bands = []
    for r in rows:
        if r.band not in bands:
            bands.append(r.band)
    print(f"{'band':<8} {'open dB':>9} {'closed dB':>10} {'diff':>7}")
    for band in bands:
        med = {
            cond: float(np.median([
                r.power_db for r in rows if r.band == band and r.condition == cond
            ]))
            for cond in ("eyes_open", "eyes_closed")
        }
        diff = med["eyes_closed"] - med["eyes_open"]
        print(f"{band:<8} {med['eyes_open']:>9.2f} {med['eyes_closed']:>10.2f} {diff:>+7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
