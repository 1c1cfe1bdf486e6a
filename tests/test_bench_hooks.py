"""The benchmark's traced runs wrap leakaudit functions by name; every name must exist.

``perfbench/spans.py`` replaces attributes such as ``attacks.fit_gaussian``,
``pipeline.wilcoxon_signed_rank`` and ``data.Dataset.subset`` with
recording wrappers. A refactor that drops or renames one of them makes
every traced benchmark run fail, so this checks that installing the
tracer finds them all and that uninstalling puts each original back.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402


def test_install_wraps_every_hook_and_uninstall_restores_it():
    tracer = spans.Tracer()
    try:
        spans.install(tracer)  # an AttributeError here names the missing hook
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
