"""atomic_write: a checkpoint is replaced whole or not at all."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.util.atomic import atomic_write


def test_text_is_written_through_path_write_text(tmp_path, monkeypatch):
    """Text writes go through Path.write_text (which the benchmark's
    suite.write span wraps) and leave only the target behind."""
    seen = []
    write_text = Path.write_text

    def spy(self, data, *args, **kwargs):
        seen.append(data)
        return write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", spy)
    target = tmp_path / "scenario.json"
    atomic_write(target, "{}\n")
    atomic_write(str(target), '{"a": 1}\n')
    assert seen == ["{}\n", '{"a": 1}\n']
    assert target.read_text(encoding="utf-8") == '{"a": 1}\n'
    assert sorted(tmp_path.iterdir()) == [target]


@pytest.mark.parametrize("old,new", [("old\n", "new\n"), (b"old", b"new")])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, old, new):
    target = tmp_path / "checkpoint"
    atomic_write(target, old)
    before = target.read_bytes()
    method = "write_text" if isinstance(new, str) else "write_bytes"
    original = getattr(Path, method)

    def dies_part_way(self, data, *args, **kwargs):
        original(self, data[:1], *args, **kwargs)
        raise OSError("interrupted")

    monkeypatch.setattr(Path, method, dies_part_way)
    with pytest.raises(OSError, match="interrupted"):
        atomic_write(target, new)
    assert target.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [target]
