"""The statement-reach plugin, ``tests/reach.py``: it must look at the
package's modules, or its check passes having checked nothing, and it must
name exactly the statements of which no line ran."""

import reach

MODULES = ["__init__.py", "cli.py", "errors.py", "fock.py", "model.py", "montecarlo.py",
           "presets.py", "protocol.py"]

# lines: 1 def, 2 docstring, 3-4 one statement, 5-6 if, 7 return
PROBE = '''\
def probe(x):
    """A docstring, a constant, has no line to run."""
    y = (x
         + 1)
    if y:
        return y
    return -y
'''


def test_package_globs_every_module():
    assert reach.PACKAGE.parts[-2:] == ("src", "wva_sim")
    assert sorted(path.name for path in reach.PACKAGE.glob("*.py")) == MODULES


def test_unreached_names_statements_with_no_line_run(tmp_path, monkeypatch):
    path = tmp_path / "probe.py"
    path.write_text(PROBE)
    monkeypatch.setattr(reach, "ran", set())
    assert sorted(line for _, line, _ in reach.unreached(path)) == [3, 5, 6, 7]

    # one line of a statement reaches it: the second line of 3-4, the first of 5-6
    monkeypatch.setattr(reach, "ran", {(str(path), 4), (str(path), 5)})
    assert sorted(line for _, line, _ in reach.unreached(path)) == [6, 7]
    monkeypatch.setitem(reach.ALLOWED, ("probe.py", 7), "only a child interpreter runs it")
    assert list(reach.unreached(path)) == [("probe.py", 6, "return y")]
