"""The backend name that ``perfbench/harness.py`` records in every result file.

Nothing in the package reads it.  ROADMAP item 4 deletes this file together
with the harness's ``opiniondyn_backend`` key.
"""

BACKEND = "numpy"
