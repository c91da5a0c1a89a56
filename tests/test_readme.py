"""The README's Library example runs as written, on a generated file."""

import re
from pathlib import Path

import mortforecast

from conftest import hmdgen

README = Path(__file__).resolve().parents[1] / "README.md"
DATA_PATH = '"data/ITA.Mx_1x1.txt"'


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs(tmp_path, capsys):
    code = _library_example()
    assert DATA_PATH in code
    data = tmp_path / "Mx_1x1.txt"
    hmdgen().write(str(data), 20110803)
    exec(compile(code.replace(DATA_PATH, repr(str(data))), str(README), "exec"), {})
    explained = float(capsys.readouterr().out.split("\n", 1)[0])
    assert 0.0 < explained <= 1.0


def test_package_exports_the_readme_imports():
    # the package re-exports what the example imports, which is also all
    # the benchmark imports from it, and nothing else
    names = re.search(r"from mortforecast import \(([^)]*)\)", _library_example()).group(1)
    assert sorted(mortforecast.__all__) == sorted([*re.findall(r"\w+", names), "__version__"])
