"""Every attribute the benchmark's tracer wraps still exists.

``perfbench/layers.py`` patches functions and methods of depthkit by
name.  A refactor that renames or moves one of them would only break
the benchmark, whose own tests are not collected here; this test makes
it fail the package's tests too.
"""
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_target_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
    import layers

    targets = layers.targets()
    assert targets
    broken = [t.name for t in targets if not callable(getattr(t.owner, t.attr, None))]
    assert broken == []
