"""Micro-benchmark set-up: the report header names the ``vapu`` package the benches time.

``pyproject.toml``'s ``pythonpath = ["src"]`` puts this checkout's ``src/`` ahead of
``PYTHONPATH``, so a parent/change comparison that sets only ``PYTHONPATH`` times this
checkout on both sides.  Such a comparison passes ``-o pythonpath=<tree>/src`` for each
tree, and the ``vapu:`` line of the header shows which tree a session imported.
"""

from __future__ import annotations

import os


def pytest_report_header(config) -> str:
    import vapu  # after pytest has put the pythonpath setting on sys.path

    return f"vapu: {os.path.dirname(vapu.__file__)}"
