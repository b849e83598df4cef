import pathlib
import re

import chaoswpt

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_api_names() -> set[str]:
    """Every backticked name in the first column of the README's API table."""
    section = README.read_text(encoding="utf-8").split("### Public API", 1)[1]
    section = section.split("\n#", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("|"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return names


def test_public_api_is_the_readme_table():
    assert len(chaoswpt.__all__) == len(set(chaoswpt.__all__))
    assert set(chaoswpt.__all__) == _readme_api_names()
    for name in chaoswpt.__all__:
        assert hasattr(chaoswpt, name)
