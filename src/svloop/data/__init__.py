"""The desk corpus shipped inside the package.

Kept free of the toolkit's heavy modules, so that ``svloop init-corpus``
loads nothing but the standard library and the error types.
"""

from __future__ import annotations

import shutil
from importlib import resources
from pathlib import Path

from ..errors import ManifestError


def default_corpus_root() -> Path:
    """The desk corpus shipped inside the package."""
    return Path(str(resources.files(__name__).joinpath("corpus")))


def copy_corpus(dest) -> Path:
    dest = Path(dest)
    if dest.exists() and any(dest.iterdir()):
        raise ManifestError(f"destination {dest} exists and is not empty")
    shutil.copytree(default_corpus_root(), dest, dirs_exist_ok=True)
    return dest
