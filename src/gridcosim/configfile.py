"""Sectioned plain-text config parser shared by grid, topology and scenario files.

Grammar, line by line:
  [kind]            -- section header
  [kind name]       -- named section header
  key = value       -- key/value entry ('=' must stand alone as the 2nd token)
  ident k=v k=v ... -- element row: an id followed by attribute tokens
  # comment / blank -- ignored (inline '#' comments are stripped)

Option grammar: a row's attributes, and the options that follow an entry's
leading values (`Entry.split`), are `k=v` tokens with a non-empty key and
value, each key at most once; any other token is an error. A number read
from any file must be finite: `nan` and `inf` are errors at their line.

Every section, entry and row knows its file and line, and every error about
it is a `ConfigError` that names them: a bad or repeated value names its own
line; a missing required key, or a rule about the whole section, names the
section header. A single-valued key (`get`, `require`, `entry`) given twice
is an error at its second line; `get_all` reads a repeatable key. Readers
declare what they know (`check_kinds`, `Section.only`, the `options` of
`Entry.split`), so a section, key or option they do not know is an error at
its line, never silently ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_BOOLS = {**dict.fromkeys(("true", "yes", "on", "1", "closed"), True),
          **dict.fromkeys(("false", "no", "off", "0", "open"), False)}
_EXPECTED = {float: "a number", int: "an integer", bool: "a boolean"}
_REQUIRED = object()  # default of the typed reads: the key must be present


class ConfigError(Exception):
    """Malformed input; carries the file and, unless the whole file is at
    fault, the offending line number."""

    def __init__(self, message: str, source: str = "<config>", lineno: int | None = None):
        where = source if lineno is None else f"{source}:{lineno}"
        super().__init__(f"{where}: {message}")
        self.source = source
        self.lineno = lineno


def parse_value(value: str, what: str, kind: type) -> float | int | bool:
    """`value` as a float, int or bool (a str: as written), or a ValueError
    whose text names `what`; the caller adds the file and line. A float must
    be finite, so no nan or inf reaches a solve or an artifact; an int of any
    size is exact."""
    try:
        number = _BOOLS[value.lower()] if kind is bool else kind(value)
    except (KeyError, ValueError):
        raise ValueError(f"{what}: expected {_EXPECTED[kind]}, got '{value}'") from None
    if kind is not float or math.isfinite(number):
        return number
    raise ValueError(f"{what} must be finite, got '{value}'")


# slots: a large RTU file makes one Entry and one Row per datapoint line
@dataclass(slots=True)
class Located:
    """Something read from a config file."""

    source: str
    lineno: int | None  # None: not read from a file line

    def error(self, message: str) -> ConfigError:
        return ConfigError(message, self.source, self.lineno)

    def convert(self, value: str, what: str, kind: type) -> float | int | bool:
        """`value` as `kind` by `parse_value`, or a ConfigError at this line."""
        try:
            return parse_value(value, what, kind)
        except ValueError as exc:
            raise self.error(str(exc)) from None


class _Lookup:
    """Reads by key through `_typed(key, default, kind)`: the value as `kind`
    (str: as written) or `default`; without a `default` the key is required."""

    __slots__ = ()

    def get(self, key: str, default: str | None = None) -> str | None:
        return self._typed(key, default, str)

    def require(self, key: str) -> str:
        return self._typed(key, _REQUIRED, str)

    def get_float(self, key: str, default=_REQUIRED) -> float:
        return self._typed(key, default, float)

    def get_int(self, key: str, default=_REQUIRED) -> int:
        return self._typed(key, default, int)

    def get_bool(self, key: str, default=_REQUIRED) -> bool:
        return self._typed(key, default, bool)


@dataclass(slots=True)
class Row(Located, _Lookup):
    """One element row (its id plus attribute tokens), or an entry's options."""

    id: str
    attrs: dict[str, str]

    def _typed(self, key, default, kind):
        # one lookup and one conversion: a grid file makes several per row
        value = self.attrs.get(key)
        if value is None:
            if default is _REQUIRED:
                raise self.error(f"'{self.id}' is missing '{key}'")
            return default
        try:
            return value if kind is str else parse_value(value, key, kind)
        except ValueError as exc:
            raise self.error(str(exc)) from None


def _parse_row(ident: str, tokens: list[str], source: str, lineno: int,
               options=None) -> Row:
    """The row `ident k=v ...`; with `options`, a key outside it is an error."""
    attrs: dict[str, str] = {}
    for tok in tokens:
        k, eq, v = tok.partition("=")
        if not k or not v:
            raise ConfigError(f"malformed key=value token '{tok}'" if eq else
                              f"expected key=value token, got '{tok}'", source, lineno)
        if k in attrs:
            raise ConfigError(f"duplicate attribute '{k}'", source, lineno)
        if options is not None and k not in options:
            raise ConfigError(f"'{ident}': unknown option '{k}'", source, lineno)
        attrs[k] = v
    return Row(source, lineno, ident, attrs)


@dataclass(slots=True)
class Entry(Located):
    """One `key = value` line."""

    key: str
    value: str

    def split(self, count: int = 0, usage: str = "",
              options=None) -> tuple[list[str], Row]:
        """The first `count` tokens of the value, and the options after them;
        fewer than `count` tokens is an error that shows `usage`, and so is
        an option whose key is not in `options` (when given)."""
        tokens = self.value.split()
        if len(tokens) < count:
            raise self.error(usage)
        return tokens[:count], _parse_row(self.key, tokens[count:], self.source,
                                          self.lineno, options)


@dataclass(slots=True)
class Section(Located, _Lookup):
    kind: str
    name: str | None
    rows: list[Row] = field(default_factory=list)
    entries: list[Entry] = field(default_factory=list)

    def entry(self, key: str, required: bool = False) -> Entry | None:
        """The one entry for `key`; None (or, if required, an error at the
        header) when there is none, and an error at the second if repeated."""
        found = self.get_all(key)
        if len(found) > 1:
            raise found[1].error(f"'{key}' may be given only once")
        if found:
            return found[0]
        if required:
            raise self.error(f"section [{self.kind}] is missing '{key}'")
        return None

    def get_all(self, key: str) -> list[Entry]:
        return [e for e in self.entries if e.key == key]

    def only(self, *keys: str, rows: frozenset[str] | None = None) -> None:
        """Reject, at its line, an entry whose key is not in `keys`, and a
        row: any row when `rows` is None, else one with an attribute outside
        the set `rows`."""
        for entry in self.entries:
            if entry.key not in keys:
                raise entry.error(f"unknown key '{entry.key}' in [{self.kind}]")
        if rows is None:
            if self.rows:
                raise self.rows[0].error(
                    f"expected 'key = value' in [{self.kind}], got '{self.rows[0].id}'"
                )
            return
        if set().union(*[row.attrs for row in self.rows]) <= rows:
            return
        for row in self.rows:
            if not row.attrs.keys() <= rows:
                key = next(k for k in row.attrs if k not in rows)
                raise row.error(f"'{row.id}': unknown attribute '{key}'")

    def _typed(self, key, default, kind):
        entry = self.entry(key, default is _REQUIRED)
        return default if entry is None else entry.convert(entry.value, key, kind)


def parse_config(text: str, source: str = "<config>") -> list[Section]:
    sections: list[Section] = []
    current: Section | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        if tokens[0].startswith("["):
            if not tokens[-1].endswith("]"):
                raise ConfigError("unterminated section header", source, lineno)
            head = " ".join(tokens)[1:-1].split()
            if not head or len(head) > 2:
                raise ConfigError("section header must be [kind] or [kind name]", source, lineno)
            current = Section(source, lineno, head[0], head[1] if len(head) == 2 else None)
            sections.append(current)
            continue
        if current is None:
            raise ConfigError("entry before any section header", source, lineno)
        if len(tokens) >= 2 and tokens[1] == "=":
            current.entries.append(Entry(source, lineno, tokens[0], " ".join(tokens[2:])))
        else:
            current.rows.append(_parse_row(tokens[0], tokens[1:], source, lineno))
    return sections


def sections_of(sections: list[Section], kind: str) -> list[Section]:
    return [s for s in sections if s.kind == kind]


def check_kinds(sections: list[Section], kinds) -> None:
    """A section whose kind is not in `kinds` is an error at its header."""
    for section in sections:
        if section.kind not in kinds:
            raise section.error(f"unknown section [{section.kind}]")


def single_section(sections: list[Section], kind: str) -> Section | None:
    found = sections_of(sections, kind)
    if len(found) > 1:
        raise found[1].error(f"section [{kind}] may appear only once")
    return found[0] if found else None
