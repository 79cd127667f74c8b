#!/usr/bin/env python3
"""Accuracy-versus-cost sweep over sketch dimensions (and the postcard
trigger), printed as a Pareto table. Thin wrapper over `flowtel sweep`."""

import json
import os
import sys
import tempfile

from flowtel.cli import main as cli_main

DEFAULT_GRID = {"width": [128, 256, 512, 1024], "depth": [2, 3],
                "dsmp_delta_ns": [300_000, 1_000_000]}


def main():
    scenario = sys.argv[1] if len(sys.argv) > 1 else "contention"
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(DEFAULT_GRID, fh)
        grid_path = fh.name
    try:
        return cli_main(["sweep", "--scenario", scenario, "--grid", grid_path])
    finally:
        os.unlink(grid_path)


if __name__ == "__main__":
    sys.exit(main())
