"""The seeded corpora are a pure function of the seed."""
import os

import pytest

import run

SEED_INDEPENDENT = {os.path.join("in", "classes.json"), os.path.join("in", "cam.json")}


def _build(directory, monkeypatch, name, seed):
    directory.mkdir()
    monkeypatch.chdir(directory)
    workload = run.build(name, seed)
    files = {}
    for base, _, names in os.walk("in"):
        for n in names:
            path = os.path.join(base, n)
            with open(path, "rb") as fh:
                files[path] = fh.read()
    return [inv.argv for inv in workload.invocations], files


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, monkeypatch, name):
    first = _build(tmp_path / "a", monkeypatch, name, 7)
    again = _build(tmp_path / "b", monkeypatch, name, 7)
    other = _build(tmp_path / "c", monkeypatch, name, 8)
    assert first == again
    assert first != other
    # every generated input changes with the seed, not only some of them
    argv, files = first
    assert files.keys() == other[1].keys()
    for path, data in files.items():
        if path not in SEED_INDEPENDENT:
            assert other[1][path] != data, path
