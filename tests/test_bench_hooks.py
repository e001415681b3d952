"""The benchmark's tracer still fits the program.

`perfbench/selfcheck.py`'s `check_restore` wraps every public function of
the layer modules, checks that each per-layer metric names a wrapped
function (a renamed `check_ring_axioms`, `zero_divisor_sets` or
`enumerate_ideals`, or one turned into a generator, is not wrapped as a
span) and that `series_mul` imported into `cli` is wrapped, then restores
everything. The benchmark's modules are imported from their directory
without writing bytecode there, and dropped again afterwards.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_the_benchmark_tracer_wraps_every_traced_name_and_restores_it(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import selfcheck
        assert selfcheck.check_restore() == []
    finally:
        for name, module in list(sys.modules.items()):
            if Path(getattr(module, "__file__", None) or "/").parent == PERFBENCH:
                del sys.modules[name]
