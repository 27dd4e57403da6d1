"""Exception types shared across the toolkit, the one reader of input text and
the one of YAML, and the base of the record types that check their fields.

Every exception type here maps to CLI exit code 2 (data/contract errors);
usage errors are exit code 1 and are handled by the CLI layer itself.
"""

from __future__ import annotations

import os


class VruEvalError(Exception):
    """Base class for all toolkit errors."""


class ParseError(VruEvalError):
    """A malformed annotation, label, or detection line.

    Carries file path and 1-based line number when known, so CLI output
    can point at the offending ``file:line``.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(prefix + message)


class ConversionError(VruEvalError):
    """Dataset or coordinate conversion failure (hard error, not a warning)."""


class ContractError(VruEvalError):
    """An operation was called with inputs violating its preconditions."""


class SchemaError(VruEvalError):
    """A structured input file (run records, manifest, class map) violates its schema."""


class CheckedRecord(tuple):
    """Mixed in before a NamedTuple by a record type whose ``__new__`` checks its fields.

    ``_make``, and so ``_replace``, build through ``__new__`` as well.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @staticmethod
    def _one_line(what: str, name: str) -> None:
        """Reject a name that a table row cannot hold whole: one that ``str.splitlines``
        splits, or one that is not UTF-8 text (a lone surrogate, from a ``\\ud800`` escape)."""
        if name.splitlines() not in ([], [name]):
            raise SchemaError(f"{what} {name!r} is not one line")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError(f"{what} {name!r} is not UTF-8 text") from None


def read_input(path: str | os.PathLike) -> str:
    """The UTF-8 text of an input file, every line ending turned into ``\\n``.

    The bytes are read whole and decoded in one call; ``\\r\\n`` and then a lone
    ``\\r`` become ``\\n``, as text mode's universal newlines do. Undecodable
    bytes raise ParseError naming the path and the offset of the first bad byte.
    """
    with open(path, "rb", buffering=0) as fh:  # one read of the whole file needs no buffer
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: byte {exc.start}: {exc.reason}", str(path)) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


# Key tags of the safe loader that construct to a string: ``<<`` merges, ``=`` reads as "=".
_STRING_KEY_TAGS = frozenset(f"tag:yaml.org,2002:{kind}" for kind in ("str", "merge", "value"))


def read_yaml(path: str | os.PathLike, what: str, *, typed: bool):
    """The document of a YAML file, typed by PyYAML's safe loader if ``typed``, else
    kept as text by its base loader. A key written twice in one mapping is an error,
    found as the mapping is parsed, so its own key may still override one a ``<<``
    merge brings. A typed key must read as a string: ``1`` and ``0x1``, or ``yes``
    and ``true``, would build one key from two texts. Every fault raises SchemaError
    as ``<path>: invalid <what>: ...``.
    """
    import yaml

    class Loader(yaml.SafeLoader if typed else yaml.BaseLoader):
        def compose_mapping_node(self, anchor):
            node = super().compose_mapping_node(anchor)
            seen = {}
            for key, _ in node.value:
                if not isinstance(key, yaml.ScalarNode):
                    continue  # fails later as unhashable
                line = key.start_mark.line + 1
                if typed and key.tag not in _STRING_KEY_TAGS:
                    kind = key.tag.rpartition(":")[2]
                    raise ValueError(
                        f"key {key.value!r} on line {line} reads as {kind}, not a string; quote it"
                    )
                if seen.setdefault(key.value, key) is not key:
                    raise ValueError(f"key {key.value!r} repeats on line {line}")
            return node

    try:
        return yaml.load(read_input(path), Loader=Loader)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:  # a repeat, huge int, deep nesting
        raise SchemaError(f"{path}: invalid {what}: {exc}") from exc
