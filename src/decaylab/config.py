"""Flat key-path config files, resolved section by section against a schema.

One assignment per line, `section.key = value`, each key at most once;
blank lines and #-comments are ignored.  A value is a number (int, then
float) or a string: the quoted text, or the bare text as written.  No
environment overrides: what the file says, with the schema's defaults
filled in, is what the run manifest records.
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

from .errors import DomainError, ValidationError

__all__ = ["REQUIRED", "Count", "parse_config_text", "load_config", "resolve_section",
           "did_you_mean"]

REQUIRED = object()  # schema default of a key that must be given


class Count(int):
    """Schema type of a number of points or steps, >= 1; any other int key is >= 0."""


def _parse_value(raw: str):
    text = raw.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_text(text: str) -> dict[str, dict[str, object]]:
    sections: dict[str, dict[str, object]] = {}
    first_line: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"line {lineno}: expected 'section.key = value', got {stripped!r}")
        key_path, _, raw = stripped.partition("=")
        key_path = key_path.strip()
        if "." not in key_path:
            raise ValidationError(f"line {lineno}: key {key_path!r} is missing its section prefix")
        section, _, key = key_path.partition(".")
        section, key = section.strip(), key.strip()
        if not section or not key:
            raise ValidationError(f"line {lineno}: malformed key path {key_path!r}")
        first = first_line.setdefault((section, key), lineno)
        if first != lineno:
            raise ValidationError(f"line {lineno}: {section}.{key} is already set on line {first}")
        sections.setdefault(section, {})[key] = _parse_value(raw)
    return sections


def load_config(path) -> dict[str, dict[str, object]]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def did_you_mean(what: str, name: str, valid) -> str:
    """Error message for an unknown name, with the nearest valid one.

    A name is near at a difflib ratio of 0.8 or more, which typos such as
    'tmx' for 'tmax' (0.86) pass and unrelated names that share a few
    letters, such as 'n_points' and 'n_bins' (0.71), do not.
    """
    valid = sorted(valid)
    close = difflib.get_close_matches(name, valid, n=1, cutoff=0.8)
    hint = f"did you mean {close[0]!r}?" if close else f"valid: {', '.join(map(repr, valid))}"
    return f"unknown {what} {name!r}; {hint}"


def _coerce(where: str, kind: type, value):
    if kind is str:
        return str(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{where} = {value!r} is not a number")
    if not abs(value) <= sys.float_info.max:  # nan, +-inf, or an int past the float range
        raise ValidationError(f"{where} = {value!r} is not a finite number")
    least = {int: 0, Count: 1}.get(kind)
    if least is not None and not (float(value).is_integer() and value >= least):
        raise ValidationError(f"{where} = {value!r} is not an integer >= {least}")
    return kind(value) if least is None else int(value)


def resolve_section(name: str, block: dict, keys: dict) -> dict:
    """Check ``block`` against ``keys`` ({key: (type, default)}); fill defaults.

    Unknown keys and values not of their key's type are errors.
    """
    for key in block:
        if key not in keys:
            raise ValidationError(did_you_mean(f"{name} key", key, keys))
    resolved = {}
    for key, (kind, default) in keys.items():
        if key in block:
            resolved[key] = _coerce(f"{name}.{key}", kind, block[key])
        elif default is REQUIRED:
            raise DomainError(f"{name} block is missing key '{key}'")
        else:
            resolved[key] = default
    return resolved
