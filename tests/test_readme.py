"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert len(capsys.readouterr().out.splitlines()) == 3
    report = namespace["report"]
    assert report.converged
    assert namespace["ff"].relative_error(report.x_hat, namespace["x"]) <= 1e-6
