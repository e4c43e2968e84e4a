"""Pytest bootstrap.

Puts ``src`` on the import path, so the suite runs without installing the
package (see ``setup.py`` for installing it).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
