"""Pin the digests of the CLI session outputs that cli-roundtrip checks.

Usage: python3 bench/pin_goldens.py

Runs every session of the pool at each scale and rewrites bench/goldens.json
with the sha256 digest of each command's output file and each command's exit
code. Re-pin only when a change is meant to alter the output bytes, and say
so in the change.
"""

import json
import os
import shutil

import run


def main() -> None:
    pinned = {}
    for scale in run.SCALES:
        workload = run.CliRoundtrip(0, scale, run.WORK / f"pin-{os.getpid()}", run.Clock())
        workload.setup()
        pinned[scale] = {}
        for k in range(run.GOLDEN_POOL):
            out = workload.work / f"session{k}"
            out.mkdir()
            d, n, rank, seed = workload.session(k)
            entry = {"d": d, "n": n, "rank": rank, "seed": seed, "exit_codes": {}, "digests": {}}
            for name, _, code, _, digest in workload.run_session(k, out):
                entry["exit_codes"][name] = code
                entry["digests"][name] = digest
            pinned[scale][str(k)] = entry
            print(scale, k, entry["exit_codes"])
        shutil.rmtree(workload.work)
    run.GOLDENS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
