"""Set-up as a user pays it: import the package, build the CLI parser and
load the workload's configs, then print ``ready``.

Usage: python3 perfbench/setup_probe.py CONFIG.json [CONFIG.json ...]
"""

import os
import sys

import qdtimebin  # noqa: F401  (the import is what is measured)
from qdtimebin.cli import build_parser
from qdtimebin.config import load_config

if __name__ == "__main__":
    build_parser()
    for path in sys.argv[1:]:
        load_config(path)
    print("ready", flush=True)
    # skip interpreter teardown: the parent's clock stops at exit
    os._exit(0)
