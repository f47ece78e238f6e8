"""Record the report digests that the oracle pins, into ``expected.json``.

Run once from the root of a tiltval checkout whose reports are known to
be right:

    python3 perfbench/record_expected.py

Every (command, config, format) that a workload can draw is run through
``tiltval.cli.main`` in this process and its report hashed with sha256.
The exit code of each is checked against the one the mathematics
predicts before anything is written.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import oracle
import workloads


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import tiltval.cli

    digests = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(oracle.EXPECTED_PATH)) as tmp:
        config, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "report")
        for workload in workloads.WORKLOADS.values():
            if workload.catalog is None:
                continue
            for cmd, text, fmt in workload.catalog():
                with open(config, "w", encoding="utf-8") as handle:
                    handle.write(text)
                code = tiltval.cli.main([cmd, "--config", config, "--format", fmt, "--output", out])
                expected = 1 if json.loads(text).get("ell") == 3 else 0
                if code != expected:
                    print(f"{cmd} {text} {fmt}: exit {code}, expected {expected}", file=sys.stderr)
                    return 1
                with open(out, "rb") as handle:
                    digests[workloads.digest_key(cmd, text, fmt)] = oracle.sha256(handle.read())
            print(f"{workload.name}: {len(digests)} digests so far", file=sys.stderr)
    with open(oracle.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"digests": digests}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
