"""Write pins.json: the SHA-256 of every certificate the corpus and
slin-sweep workloads produce, or the typed refusal an input ends in.

    python3 perfbench/pin.py

Run it only on a commit whose certificates are trusted; every later run
checks its bytes against this file, so a change that alters a certificate
shows as a failed operation.  The cli workload checks against the corpus
table: the CLI must write the bytes the library writes in-process.
"""

from __future__ import annotations

import json
import sys
from argparse import Namespace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def pin(workload):
    from polyauto.certificates import serialize_certificate
    from polyauto.errors import AlgebraError, InternalIdentityFailure
    table = {}
    for key, payload in workload.inputs:
        try:
            text = serialize_certificate(workload.certify(payload))
        except InternalIdentityFailure:
            raise
        except AlgebraError as exc:
            table[key] = f"refused:{type(exc).__name__}"
            continue
        if wl._verify_text(text) != "PASS":
            raise SystemExit(f"{key}: certificate does not verify")
        table[key] = wl.digest(text)
    return table


def main():
    wl.require_sources()
    args = Namespace(workdir=None)
    pins = {name: pin(wl.WORKLOADS[name](args))
            for name in ("corpus", "slin-sweep")}
    with open(wl.PINS, "w") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    for name, table in pins.items():
        refused = [k for k, v in table.items() if v.startswith("refused:")]
        print(f"{name}: {len(table)} inputs, {len(refused)} refused")


if __name__ == "__main__":
    main()
