"""Record the outputs that ``run.py`` checks the certify and gap workloads against.

For every input set (workload seed mod 32) this runs one certify pass and
one gap pass and writes per-target (passes, median tightness, max
tightness) and per-hypothesis (train loss, test loss, bound total) to
``fingerprints.json``. Re-record only when a change is meant to alter
these outputs, and say so with the change. Usage, from the repository
root:

    python3 perfbench/record_fingerprints.py
"""

import json
import os
import sys

import run  # pins BLAS threads and puts src/ on the path
import workloads


def main():
    table = {"certify": {}, "gap": {}}
    for wl in (workloads.WORKLOADS["certify"], workloads.WORKLOADS["gap"]):
        for key in range(workloads.FINGERPRINT_KEYS):
            out = wl.run(wl.build(key), run.OpClock().span)
            table[wl.name][str(key)] = wl.fingerprint(out)
            print(wl.name, key, file=sys.stderr)
    with open(workloads.FINGERPRINTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", os.path.relpath(workloads.FINGERPRINTS))


if __name__ == "__main__":
    main()
