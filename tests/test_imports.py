"""Import cost: the package and its command-line pipeline load numpy and the standard
library only. ``scipy.stats`` is loaded by ``welch_t_test`` alone, when it is called,
since importing it takes most of the import time and memory of the package. The
autodiff library exports no function that only the tests call, and the package defines
no exception class besides its three program faults."""

import ast
import builtins
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent("""
    import math, sys
    from pathlib import Path

    import stancenet
    from stancenet import textdata as td
    from stancenet.cli import main

    try:
        main(["--help"])
    except SystemExit:
        pass
    corpus = Path(sys.argv[1]) / "corpus.jsonl"
    td.save_corpus(corpus, td.gen_synthetic(4, 2, 2, seed=0), classes=2)
    assert main(["preprocess", str(corpus), "--n", "4", "--l", "2",
                 "--output-dir", str(Path(sys.argv[1]) / "pre")]) == 0
    assert "scipy.stats" not in sys.modules, "scipy.stats loaded before welch_t_test"

    t, p = stancenet.welch_t_test([0.1, 0.2, 0.3], [0.4, 0.5, 0.7])
    assert "scipy.stats" in sys.modules
    assert math.isfinite(t) and math.isfinite(p) and 0.0 < p < 1.0, (t, p)
    print("ok")
""")


def test_scipy_stats_is_loaded_only_by_welch_t_test(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"


def _autodiff_references(path: Path) -> set[str]:
    """The names a file reads from ``stancenet.autodiff``: ``from …autodiff import <name>``,
    and ``<alias>.<name>`` for each alias the file imports the module as."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, names = {"autodiff"}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("autodiff"):
            names.update(a.name for a in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            aliases.update(a.asname or a.name for a in node.names
                           if a.name.endswith("autodiff"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add(node.attr)
    return names


def test_every_public_autodiff_function_runs_outside_the_tests():
    """The library holds no test-only op: every public function of ``stancenet.autodiff``
    is read by the package (not counting ``__init__.py``'s re-exports), the demos, the
    benchmark or the tools."""
    from stancenet import autodiff

    public = {name for name, f in inspect.getmembers(autodiff, inspect.isfunction)
              if f.__module__ == autodiff.__name__ and not name.startswith("_")}
    files = [p for d in ("src", "demos", "perfbench", "tools") for p in (ROOT / d).rglob("*.py")
             if p.name != "__init__.py"]
    used = set().union(*(_autodiff_references(p) for p in files))
    assert not public - used, f"no caller outside the tests: {sorted(public - used)}"


def test_the_only_exception_classes_are_the_three_program_faults():
    """Bad input raises ``ValueError`` and a path that cannot be used ``OSError``: the
    package defines no exception class of its own for either. Its only ones are the
    autodiff faults, which the command line tells apart from bad input."""
    defined = {}  # class name -> base names, for every class the package defines
    for path in (ROOT / "src" / "stancenet").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                defined[node.name] = {b.id if isinstance(b, ast.Name) else b.attr
                                      for b in node.bases
                                      if isinstance(b, (ast.Name, ast.Attribute))}
    builtin = {name for name, value in vars(builtins).items()
               if isinstance(value, type) and issubclass(value, BaseException)}
    exceptions: set[str] = set()
    while True:  # a class is an exception if a base is a builtin exception or one of these
        found = {name for name, bases in defined.items() if bases & (builtin | exceptions)}
        if found == exceptions:
            break
        exceptions = found
    assert exceptions == {"ShapeMismatch", "DegenerateInput", "Diverged"}
