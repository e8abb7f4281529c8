"""Validate scenario configs, run each twice, and compare the two runs byte for byte.

    PYTHONPATH=src python tests/run_twice.py CONFIG... [--max-rss-mb N]

Each CONFIG is validated and then run twice, every command under
`python -W error -m thermalpdc`, so a numpy RuntimeWarning fails it.  Every
artifact the first run's manifest lists must be rewritten byte for byte by
the second (manifest.json itself is left out), and the manifest must list
one or more.  With --max-rss-mb, no run may peak at N MB RSS or above.
The runs write into a temporary directory, removed on exit.  The exit
status is nonzero at the first failure.
"""

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path


def thermalpdc(*args: str) -> None:
    subprocess.run([sys.executable, "-W", "error", "-m", "thermalpdc", *args], check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("configs", nargs="+", metavar="CONFIG", help="scenario JSON documents")
    parser.add_argument("--max-rss-mb", type=float, help="bound on the largest peak RSS of any run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as temp:
        for i, cfg in enumerate(args.configs):
            thermalpdc("validate", cfg)
            runs = [Path(temp, f"{i}-{Path(cfg).stem}", run) for run in ("first", "second")]
            for out in runs:
                thermalpdc("run", cfg, "--out", str(out))
            artifacts = [entry["path"] for entry in json.loads((runs[0] / "manifest.json").read_text())["files"]]
            if not artifacts:
                sys.exit(f"{cfg}: the manifest lists no artifact")
            for artifact in artifacts:
                subprocess.run(["cmp", str(runs[0] / artifact), str(runs[1] / artifact)], check=True)
            print(f"{cfg}: {len(artifacts)} artifact(s) byte-identical over two runs")
    # RUSAGE_CHILDREN holds the largest peak of the children waited for; ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"largest child peak RSS {peak_mb:.1f} MB")
    if args.max_rss_mb is not None and not peak_mb < args.max_rss_mb:
        sys.exit(f"a run peaked at {peak_mb:.1f} MB RSS, at or above the {args.max_rss_mb:g} MB bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
