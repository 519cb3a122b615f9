"""Set-up work of one workload in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD     (from the repository root)

Imports ``cfsdim`` from ./src and loads and validates every descriptor the
workload uses; exits non-zero if one is invalid.  The benchmark times this
process from outside to get ``setup_s``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import cfsdim  # noqa: E402
import workloads  # noqa: E402


def load_cli_configs(pool):
    """Load and validate every config file the CLI commands name."""
    for path in sorted({v["argv"][1] for slot in pool for v in slot["variants"]}):
        with open(path) as fh:
            desc = json.load(fh)
        if desc.get("type") == "four_corner":
            rep = cfsdim.validate_4c(cfsdim.FourCornerSystem.from_json_dict(desc))
            errs = rep["open_set_violations"]
        else:
            errs = cfsdim.validate_system(cfsdim.load_system(desc)[0])
        if errs:
            raise ValueError(f"{path}: {'; '.join(errs)}")


def main(workload):
    pool = workloads.load_pool(workload)
    if workload == "cli":
        load_cli_configs(pool)
    else:
        workloads.build_all(cfsdim, pool)


if __name__ == "__main__":
    main(sys.argv[1])
