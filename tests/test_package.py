import os
import subprocess
import sys
from pathlib import Path

import sustain

# Imports sustain, drops it from sys.modules and imports it again, as the
# benchmark's set-up does; a module-level ``typing`` alias naming a library
# class lets typing's cache keep every old copy of the library alive.
_REIMPORT = """
import gc, importlib, sys, weakref
old = []
for _ in range(3):
    for name in [m for m in sys.modules if m == "sustain" or m.startswith("sustain.")]:
        del sys.modules[name]
    importlib.import_module("sustain.cli")
    old.append(weakref.ref(sys.modules["sustain.oracle"].BilevelOracle))
gc.collect()
print(sum(ref() is not None for ref in old[:-1]))
"""


def test_a_reimported_library_frees_its_old_copies():
    # in a subprocess, so that the other tests keep their class identities
    env = {**os.environ, "PYTHONPATH": str(Path(sustain.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _REIMPORT], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "0"
