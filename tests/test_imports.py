import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# scipy subpackages whose import alone costs more than a small fit
HEAVY = ("scipy.stats", "scipy.optimize")


def test_package_import_leaves_out_heavy_scipy():
    # a fresh interpreter: this test process has imported both already
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = ("import sys, mmfit, mmfit.cli\n"
            "print('\\n'.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "mmfit.cli" in out
    loaded = [m for m in out if m.startswith(tuple(h + "." for h in HEAVY))
              or m in HEAVY]
    assert loaded == []
