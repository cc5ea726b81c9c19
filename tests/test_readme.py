"""The python blocks of README.md run, and the values their comments state hold."""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"

# ``expression   # -2 ...``: a bare expression whose comment opens with an int
_STATED = re.compile(r"^(?P<expr>[^=#\s][^=#]*?)\s+#\s*(?P<value>-?\d+)\b.*$", re.M)


def test_readme_python_blocks_run_and_state_true_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        checked = _STATED.sub(r"assert (\g<expr>) == \g<value>, '''\g<0>'''", block)
        exec(compile(checked, str(README), "exec"), namespace)
    assert sum(len(_STATED.findall(block)) for block in blocks) >= 4
