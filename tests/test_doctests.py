"""Every docstring example in the ``repro`` package runs and holds.

The examples are the API's first documentation; a stale one (a renamed
token kind, a method that now returns a value) misleads more than it
helps, so each module's doctests run as one test.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith("__main__"))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    finder = doctest.DocTestFinder()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    report = []
    for test in finder.find(module):
        runner.run(test, out=report.append)
    results = runner.summarize(verbose=False)
    assert results.failed == 0, "".join(report)
