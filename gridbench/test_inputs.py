"""Workload inputs are a function of the seed alone.

    python -m pytest gridbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS, write_inputs  # noqa: E402


def _written(name: str, seed: int, workdir: Path) -> dict[str, bytes]:
    write_inputs(WORKLOADS[name], seed, workdir)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_every_input_byte(name, tmp_path):
    first = _written(name, 3, tmp_path / "first")
    assert first == _written(name, 3, tmp_path / "again")
    other = _written(name, 4, tmp_path / "other")
    assert other.keys() == first.keys()
    assert all(other[f] != first[f] for f in first)
