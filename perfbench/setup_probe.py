"""Set-up probe: import the CLI, parse configs, build their catalog entries.

Run as ``python3 perfbench/setup_probe.py CONFIG...`` with ``src`` on
PYTHONPATH.  It stops before any computation; the benchmark times the
whole process as the workload's set-up time.
"""

import json
import sys

from patil import catalog, cli

for path in sys.argv[1:]:
    with open(path) as fh:
        cfg = cli.ExperimentConfig.from_dict(json.load(fh))
    catalog.get_entry(cfg.entry_name, **cfg.entry_args)
