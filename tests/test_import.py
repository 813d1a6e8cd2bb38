import subprocess
import sys
from pathlib import Path

import trihybrid


def test_import_loads_no_scipy():
    # A fresh interpreter, so modules the test session loaded do not count.
    src = str(Path(trihybrid.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import trihybrid; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
