"""The benchmark's batch descriptors, batch commands and cold CLI invocations,
as test input.

``perfbench/bench_inputs.py`` is loaded from its file: it is plain data and
seeded generators, and calls no sysbound function.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "bench_inputs.py"
_spec = importlib.util.spec_from_file_location("bench_inputs", _PATH)
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)

BATCH_POOL = _module.BATCH_POOL
BATCH_COMMANDS = _module.BATCH_COMMANDS
CLI_INVOCATIONS = _module.CLI_INVOCATIONS
