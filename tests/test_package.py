import ast
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import chaoswpt
from chaoswpt import analytic, cli, harvester

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_rows(heading: str) -> list[list[str]]:
    """The cells of each body row of the README table under ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"{heading}\n", 1)[1]
    section = section.split("\n#", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[2:]]


def test_public_api_is_the_readme_table():
    names = {name for row in _readme_rows("### Public API")
             for name in re.findall(r"`([^`]+)`", row[0])}
    assert len(chaoswpt.__all__) == len(set(chaoswpt.__all__))
    assert set(chaoswpt.__all__) == names
    for name in chaoswpt.__all__:
        assert hasattr(chaoswpt, name)


def test_defaults_are_the_readme_table():
    # each row's key and value; the sweep grid's row only summarises it
    rows = [row[:2] for row in _readme_rows("### Defaults") if row[0] != "`sweep.*`"]
    assert rows
    for key, value in rows:
        section, name = key.strip("`").split(".")
        # a backticked value is a string, any other is a JSON number
        value = value.strip("`") if value.startswith("`") else json.loads(value)
        default = cli.DEFAULTS[section][name]
        assert (type(value), value) == (type(default), default), key


def test_input_rules_are_the_readme_table():
    named = {row[1].strip("`") for row in _readme_rows("## Input rules")}
    assert named and named <= set(harvester._RULES)


def test_reference_laws_are_the_readme_table():
    # the (atom, s, p) table under "Reference laws" in the conventions; a
    # dash is a parameter S_clt's Laplace row does not have
    section = README.read_text(encoding="utf-8").split("**Reference laws.**", 1)[1]
    section = section.split("\n- **", 1)[0]
    rows = {}
    for line in map(str.strip, section.splitlines()):
        if line.startswith("| `"):
            family, *params = (c.strip() for c in line.strip("|").split("|"))
            rows[family.strip("`")] = tuple(None if c == "—" else float(c) for c in params)
    assert rows == analytic._LAWS


def _modules_loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    src = str(pathlib.Path(chaoswpt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code += "; import sys; print(*sorted(sys.modules))"
    return set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.split())


def test_the_cli_loads_every_package_module():
    # a module the simulator never imports belongs with the tests
    loaded = _modules_loaded_by("import chaoswpt.cli")
    listed = {f"chaoswpt.{m.name}" for m in pkgutil.iter_modules(chaoswpt.__path__)}
    assert listed - loaded == set()


def test_a_run_loads_no_scipy_quadrature_or_special_functions():
    # only the reference oracles need scipy, so only they import it
    loaded = _modules_loaded_by("from chaoswpt import RunConfig, run_once; "
                                "run_once(RunConfig(beta=2, r=20.0, n_frames=1000))")
    assert "chaoswpt.montecarlo" in loaded
    assert {"scipy.integrate", "scipy.special"} & loaded == set()


def test_type_rules_live_only_in_the_rule_table():
    # an ad-hoc input check would repeat one of these texts outside the table
    phrases = ("must be an integer", "must be a finite real")
    for path in sorted(pathlib.Path(chaoswpt.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "harvester.py":
            start = text.index("_INTEGER = (")
            end = text.index("\n}\n", start)
            assert [text[start:end].count(p) for p in phrases] == [1, 1]
            text = text[:start] + text[end:]
        for phrase in phrases:
            assert phrase not in text, (path.name, phrase)


def _unread_imports(path: pathlib.Path) -> list[str]:
    """Names ``path`` imports but never reads, apart from those in its ``__all__``."""
    imported, read, exported = set(), set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_every_imported_name_is_read():
    root = README.parent
    paths = [*(root / "src" / "chaoswpt").glob("*.py"), *(root / "tests").glob("*.py"),
             *(root / "scripts").glob("*.py")]
    unread = {str(p.relative_to(root)): _unread_imports(p) for p in sorted(paths)}
    assert {k: v for k, v in unread.items() if v} == {}
