"""System performance benchmark for the Treebeard reproduction.

``python -m bench`` runs five workloads through the public ``repro`` API
only, checks every response against the reference ``Forest`` traversal and
prints every metric by name with its unit. See ``bench/README.md``.

The package lives at the repository root, beside ``src/``; the library it
measures is put on ``sys.path`` here so that ``python -m bench`` works from
a bare checkout without ``PYTHONPATH``.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
