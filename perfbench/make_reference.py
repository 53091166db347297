"""Write the stored references that the benchmark checks outputs against.

    python3 perfbench/make_reference.py [workload ...]

Run it from a checkout whose outputs are correct by definition, on the
machine the benchmark runs on: the grid-records reference holds digests of
CSV bytes.  It runs every call of every input set once.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # caps BLAS threads before numpy is imported
import workloads as wl


def main(names) -> int:
    sustain = run.import_sustain()
    all_workloads = wl.make_workloads(run.OUT_DIR)
    try:
        for name in names or sorted(all_workloads):
            workload = all_workloads[name]
            slots = {}
            for slot in range(wl.N_SLOTS):
                entries = {}
                for unit in workload.build(sustain, slot):
                    o = workload.outcome(sustain, unit, unit.call(), None)
                    if o.early_stops:
                        print(f"{name} input set {slot} {unit.key}: {o.failures}",
                              file=sys.stderr)
                        return 1
                    entries[unit.key] = o.encoded
                slots[str(slot)] = entries
            path = wl.REFERENCE_DIR / f"{name}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({"workload": name, "rtol": wl.RTOL, "slots": slots}) + "\n")
            print(f"wrote {path}")
    finally:
        shutil.rmtree(run.OUT_DIR.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
