"""The Python blocks of the README's "Library use" section run as written.

They run in order in one namespace, as a reader would paste them, so a
snippet that drifts from the signatures it calls fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_blocks() -> list[str]:
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)


def test_library_use_blocks_run():
    blocks = library_use_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md Library use block {k}", "exec"), namespace)
    p3 = namespace["p3"]  # the swept qubit's excitation over one transfer
    assert p3[0] > 0.95 and p3.min() < 0.05
