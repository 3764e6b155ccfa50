import copy
import functools
import shutil
import sys
from pathlib import Path

import pytest
import yaml

sys.path.insert(0, str(Path(__file__).parent))  # for `reference` and `conftest`

SAMPLE_DIR = Path(__file__).parent.parent / "sample"
INPUT_FILES = ("rainfall.csv", "environmental_indicators.csv",
               "econ_social_indicators.csv")
DELETE = object()   # an edit value that removes its key or list entry
# libyaml, where PyYAML has it, reads and writes projects several times faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


@functools.cache
def _project_tree(name: str) -> dict:
    return yaml.load((SAMPLE_DIR / name).read_text(), Loader=_LOADER)


def edit_project(directory: Path, edits=None, name="sports_center.yaml",
                 files=None) -> Path:
    """Copy the bundled project `name` and the input files into `directory`,
    edited, and return the copy's path. Each key path of `edits` is set to
    its value in turn: a callable value is called with the project tree,
    DELETE removes the entry, an index one past a list's end appends and a
    missing mapping key on the way is created. `files` maps a file name to
    its new text, to a function of its text, or to None to delete it."""
    for data in INPUT_FILES:
        shutil.copy(SAMPLE_DIR / data, directory / data)
    raw = copy.deepcopy(_project_tree(name))
    for keys, value in (edits or {}).items():
        owner = raw
        for key in keys[:-1]:
            owner = owner.setdefault(key, {}) if isinstance(owner, dict) else owner[key]
        if value is DELETE:
            del owner[keys[-1]]
            continue
        value = value(raw) if callable(value) else copy.deepcopy(value)
        if isinstance(owner, list) and keys[-1] == len(owner):
            owner.append(value)
        else:
            owner[keys[-1]] = value
    path = directory / name
    path.write_text(yaml.dump(raw, Dumper=_DUMPER, sort_keys=False))
    for file, text in (files or {}).items():
        if text is None:
            (directory / file).unlink()
        else:
            (directory / file).write_text(
                text((directory / file).read_text()) if callable(text) else text)
    return path


@pytest.fixture(scope="session")
def sample_dir() -> Path:
    return SAMPLE_DIR


@pytest.fixture(scope="session")
def sports_config():
    from lidscore.config import load_config

    return load_config(SAMPLE_DIR / "sports_center.yaml")


@pytest.fixture(scope="session")
def published_config():
    from lidscore.config import load_config

    return load_config(SAMPLE_DIR / "published_tables.yaml")
