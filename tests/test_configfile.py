import re

import pytest

from gridcosim.configfile import ConfigError, parse_config, sections_of, single_section

SAMPLE = """
# top comment
[grid]
base_mva = 1.0

[bus]
b0  nominal_kv=20.0 type=slack   # inline comment
b1  nominal_kv=20.0 type=pq

[rtu one]
datapoint = 101 monitor bus:b0:v_pu
datapoint = 102 monitor bus:b1:v_pu
"""


def test_parse_sections_rows_and_pairs():
    sections = parse_config(SAMPLE)
    assert [s.kind for s in sections] == ["grid", "bus", "rtu"]
    grid = single_section(sections, "grid")
    assert grid.get("base_mva") == "1.0"
    bus = sections_of(sections, "bus")[0]
    assert [row.id for row in bus.rows] == ["b0", "b1"]
    assert bus.rows[0].attrs == {"nominal_kv": "20.0", "type": "slack"}
    rtu = sections_of(sections, "rtu")[0]
    assert rtu.name == "one"
    assert [entry.value for entry in rtu.get_all("datapoint")] == [
        "101 monitor bus:b0:v_pu",
        "102 monitor bus:b1:v_pu",
    ]


def test_entry_before_section_rejected():
    with pytest.raises(ConfigError, match="before any section"):
        parse_config("key = value\n")


def test_malformed_row_token_rejected():
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("[bus]\nb0 slack\n")


def test_error_carries_line_number():
    try:
        parse_config("[bus]\nb0 nominal_kv=20 nominal_kv=21\n", source="x.txt")
    except ConfigError as exc:
        assert exc.lineno == 2
        assert "x.txt" in str(exc)
    else:
        pytest.fail("expected ConfigError")


ENTRIES = """[rtu one]
host = a
period = 60
datapoint = 101 monitor bus:b0:v_pu scale=1.0
period = 30
"""


@pytest.mark.parametrize("read, lineno, message", [
    (lambda s: s.get("period"), 5, "'period' may be given only once"),
    (lambda s: s.get_int("host"), 2, "host: expected an integer, got 'a'"),
    (lambda s: s.require("missing"), 1, "section [rtu] is missing 'missing'"),
    (lambda s: s.get_all("datapoint")[0].split(5, "usage"), 4, "usage"),
    (lambda s: s.get_all("datapoint")[0].split(2)[1], 4, "expected key=value token"),
    (lambda s: s.get_all("datapoint")[0].split(3)[1].get_float("unit"), 4, "missing 'unit'"),
], ids=["repeated_key", "bad_int", "missing_key", "too_few_values", "stray_token",
        "missing_option"])
def test_entry_errors_name_their_own_line(read, lineno, message):
    section = sections_of(parse_config(ENTRIES, source="s.txt"), "rtu")[0]
    with pytest.raises(ConfigError, match=re.escape(message)) as info:
        read(section)
    assert info.value.lineno == lineno
    assert str(info.value).startswith(f"s.txt:{lineno}: ")


@pytest.mark.parametrize("options", ["x", "=1", "x=", "x=1 x=2"])
def test_option_parser_is_strict(options):
    section = parse_config(f"[s]\nkey = lead {options}\n")[0]
    with pytest.raises(ConfigError) as info:
        section.get_all("key")[0].split(1)
    assert info.value.lineno == 2


ROW = """[bus]
b0 x=1.5 n=7 on=yes off=open word=abc nan=nan inf=-inf big=1e400
"""


# (read on the row b0, the value it gives, or the message of its error)
@pytest.mark.parametrize("read, result", [
    (lambda r: r.get_float("x"), 1.5),
    (lambda r: r.get_float("n"), 7.0),
    (lambda r: r.get_float("missing"), "'b0' is missing 'missing'"),
    (lambda r: r.get_float("missing", 2.5), 2.5),
    (lambda r: r.get_float("word"), "word: expected a number, got 'abc'"),
    (lambda r: r.get_float("nan"), "nan must be finite, got 'nan'"),
    (lambda r: r.get_float("inf"), "inf must be finite, got '-inf'"),
    (lambda r: r.get_float("big"), "big must be finite, got '1e400'"),
    (lambda r: r.get_int("n"), 7),
    (lambda r: r.get_int("missing"), "'b0' is missing 'missing'"),
    (lambda r: r.get_int("missing", None), None),
    (lambda r: r.get_int("x"), "x: expected an integer, got '1.5'"),
    (lambda r: r.get_int("word"), "word: expected an integer, got 'abc'"),
    (lambda r: r.get_int("nan"), "nan: expected an integer, got 'nan'"),
    (lambda r: r.get_int("inf"), "inf: expected an integer, got '-inf'"),
    (lambda r: r.get_bool("on"), True),
    (lambda r: r.get_bool("off"), False),
    (lambda r: r.get_bool("missing"), "'b0' is missing 'missing'"),
    (lambda r: r.get_bool("missing", True), True),
    (lambda r: r.get_bool("word"), "word: expected a boolean, got 'abc'"),
    (lambda r: r.get_bool("nan"), "nan: expected a boolean, got 'nan'"),
    (lambda r: r.get_bool("inf"), "inf: expected a boolean, got '-inf'"),
], ids=["float", "float_of_int", "float_missing", "float_default", "float_not_a_number",
        "float_nan", "float_inf", "float_overflows", "int", "int_missing", "int_default",
        "int_of_float", "int_not_a_number", "int_nan", "int_inf", "bool_true", "bool_false",
        "bool_missing", "bool_default", "bool_not_a_boolean", "bool_nan", "bool_inf"])
def test_row_typed_reads(read, result):
    row = parse_config(ROW, source="g.txt")[0].rows[0]
    if not isinstance(result, str):
        value = read(row)
        assert value == result and type(value) is type(result)
        return
    with pytest.raises(ConfigError) as info:
        read(row)
    assert str(info.value) == f"g.txt:2: {result}"
