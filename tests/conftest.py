"""Let the ``python -m bellbet`` processes the network tests spawn import the
package from this source tree when it is not installed (``pythonpath`` in
pyproject.toml only reaches the test process itself)."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
