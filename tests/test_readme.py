"""The README's Quick example runs and does what its comments say."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_example() -> str:
    """The first ```python block under the "## Quick example" heading."""
    section = README.read_text().split("\n## Quick example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_example(capsys):
    namespace = {}
    exec(compile(quick_example(), str(README), "exec"), namespace)
    separable, nrf = capsys.readouterr().out.split()
    assert separable == "False"
    assert float(nrf) < 1.0
    image, x_r = namespace["image"], namespace["x_r"]
    assert image.normalized.max() == 1.0
    target = np.abs(namespace["double_slit"](namespace["x_t"], 40e-6, 160e-6).amplitude(-x_r / 3.0)) ** 2
    overlap = image.normalized @ target / np.sqrt((image.normalized @ image.normalized) * (target @ target))
    assert overlap >= 0.95
