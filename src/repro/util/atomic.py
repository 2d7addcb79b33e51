"""Atomic file replacement for checkpoints.

A checkpoint rewritten in place is lost if the write dies part-way:
the old contents are already truncated and the new ones incomplete.
:func:`atomic_write` writes the new contents to a temporary file in the
target's directory and renames it over the target with ``os.replace``,
which is atomic when both names are on one file system.  A reader sees
the old file or the new one, never a mix; a failed write leaves the old
file byte-identical and removes the temporary.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Union


def atomic_write(path: Union[str, Path], data: Union[str, bytes]) -> None:
    """Replace ``path`` with ``data`` (``str`` is written as UTF-8).

    Text goes through :meth:`pathlib.Path.write_text` and bytes through
    :meth:`pathlib.Path.write_bytes`, on a sibling temporary named after
    the target, the process and the thread, so concurrent writers never
    share one.
    """
    target = Path(path)
    temp = target.with_name(
        f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        if isinstance(data, str):
            temp.write_text(data, encoding="utf-8")
        else:
            temp.write_bytes(data)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
