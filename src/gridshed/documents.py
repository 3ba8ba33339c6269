"""The text of every file gridshed reads or writes, except the case file.

``parse_kv`` reads the ``key = value`` lines of config files and kv result
documents, and ``render_kv`` writes result.kv and report.kv.  Each output
document is stated once, and its writer and reader both read the one table:
``_RESULT_FIELDS`` holds every result key (kv and JSON), ``_TRACE_COLUMNS``
every trace.csv column and ``_ORACLE_COLUMNS`` every oracle.csv column.
``_csv`` writes both CSV tables and ``parse_table`` reads both back.

Nothing here imports the driver: the tables read a result's, a config's and
an oracle entry's attributes by name.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FORMAT_VERSION = 3


# -- key = value text ----------------------------------------------------------

def _one_of(**values):
    """Converter that maps each allowed text to its value and rejects any other."""
    def convert(text: str):
        if text not in values:
            raise ValueError(text)
        return values[text]
    return convert


def _list_of(conv):
    """Converter of comma-separated values, each read by conv; '' is ()."""
    return lambda text: tuple(map(conv, text.split(","))) if text else ()


# value kind: (converter of the value text, expected type as named in errors);
# the config key, result key and table column tables give each entry one
_KINDS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (_one_of(true=True, false=False), "true or false"),
    "str": (str, "text"),
    "int-list": (_list_of(int), "comma-separated integers"),
    "float-list": (_list_of(float), "comma-separated numbers"),
    "int-or-none": (lambda text: None if text.lower() == "none" else int(text), "an integer or none"),
    "none-or-stress": (_one_of(none="none", stress="stress"), "none or stress"),
}


def _value(key: str, text: str, kind: str):
    """text read as kind; a text the kind rejects raises a ValueError naming
    the key and the expected type."""
    conv, expected = _KINDS[kind]
    try:
        return conv(text)
    except ValueError:
        raise ValueError(f"{key}: expected {expected}, got {text!r}") from None


def parse_kv(text: str, what: str) -> dict[str, str]:
    """The ``key = value`` lines of a config file or a kv result document, as
    {key: value text} in file order.

    '#' starts a comment and blank lines are skipped.  A line without '=' or
    without a key before it, and a key given twice, raise a ValueError that
    names the document (what, such as "config" or "result") and the line, and
    for a repeat the first line too.
    """
    out: dict[str, str] = {}
    seen: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not (eq and key):
            raise ValueError(f"{what} line {line_no}: expected key = value")
        if key in seen:
            raise ValueError(f"{what} line {line_no}: {key} already set on line {seen[key]}")
        seen[key] = line_no
        out[key] = value
    return out


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, (list, tuple)):
        return ",".join(map(_text, value))
    return str(value)


def render_kv(doc: dict) -> str:
    """One ``key = value`` line per entry of doc, in its order: true or false,
    a float's repr, a list comma-joined; parse_kv reads it back."""
    return "".join(f"{key} = {_text(value)}\n" for key, value in doc.items())


# -- output documents --------------------------------------------------------

def _typed(value, kind: str):
    """value as the Python type that kind's reader returns, so that _text
    writes a float kind's value as repr(float(v)) even when it is an int."""
    if kind.endswith("-list"):
        return [_typed(v, kind[:-len("-list")]) for v in value]
    return {"int": int, "float": float, "bool": bool, "str": str}[kind](value)


# result key: (kind, its value for a result and its config), in file order;
# the writer and the reader of both formats take every key from here
_RESULT_FIELDS = {
    "format": ("int", lambda r, c: FORMAT_VERSION),
    "variant": ("str", lambda r, c: c.variant.tag),
    "seed": ("int", lambda r, c: c.seed),
    "outer_iterations": ("int", lambda r, c: r.outer_iterations),
    "inner_iterations": ("int", lambda r, c: r.inner_iterations),
    "phi_final": ("float", lambda r, c: r.phi_final),
    "objective": ("float", lambda r, c: r.objective),
    "supplied_active": ("float", lambda r, c: r.supplied_active),
    "supplied_reactive": ("float", lambda r, c: r.supplied_reactive),
    "switches": ("int-list", lambda r, c: [round(v) for v in r.switches.y]),
    "state_v": ("float-list", lambda r, c: r.state.v),
    "state_theta": ("float-list", lambda r, c: r.state.theta),
    "input_pg": ("float-list", lambda r, c: r.input.pg),
    "input_qg": ("float-list", lambda r, c: r.input.qg),
}


def result_document(result, config) -> dict:
    """Flat mapping of everything a result file records, in file order."""
    return {key: _typed(value(result, config), kind) for key, (kind, value) in _RESULT_FIELDS.items()}


def render_result_document(doc: dict, format: str = "kv") -> str:
    if format == "json":
        return json.dumps(doc, indent=2) + "\n"
    if format != "kv":
        raise ValueError(f"unknown format {format!r}")
    return render_kv(doc)


def _unique_keys(pairs) -> dict:
    """object_pairs_hook of the JSON result reader: a key given twice raises
    the kv reader's ValueError, without line numbers."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"result: {key} already set")
        out[key] = value
    return out


def parse_result_document(text: str) -> dict:
    """Inverse of render_result_document for both formats; values are typed.

    Both formats are read by _RESULT_FIELDS, with the kv reader's errors for
    a key given twice, a key it does not hold and a value not of its key's
    kind.  A JSON value is read from its kv text, and must be written as the
    JSON writer writes the value read: "3" is text, not an integer, and 2 is
    not a float key's value, which the writer gives as 2.0.
    """
    stripped = text.lstrip()
    is_json = stripped.startswith("{")
    entries = json.loads(stripped, object_pairs_hook=_unique_keys) if is_json else parse_kv(text, "result")
    out: dict = {}
    for key, value in entries.items():
        if key not in _RESULT_FIELDS:
            raise ValueError(f"unknown result key {key!r}")
        kind = _RESULT_FIELDS[key][0]
        out[key] = _value(key, _text(value), kind)
        if is_json and json.dumps(out[key]) != json.dumps(value):
            raise ValueError(f"{key}: expected {_KINDS[kind][1]}, got {value!r}")
    return out


# -- CSV tables ----------------------------------------------------------------

# table column: its kind, in file order, read from the record field of its
# name; y is one column per demand, y_0 ... y_{n-1}, each of y's kind.  A
# trace record is an SbqpTraceRow and its stage, the index of its trace; an
# oracle record is an OracleEntry, whose switches are its y
_TRACE_COLUMNS = {"stage": "int", "iteration": "int", "y": "float", "phi": "float", "rho": "float",
                  "alpha": "float", "kind": "str", "status": "str", "psi": "float"}
_ORACLE_COLUMNS = {"y": "int", "feasible": "bool", "objective": "float"}
_TABLES = {"trace": _TRACE_COLUMNS, "oracle": _ORACLE_COLUMNS}


def _header(columns: dict, n: int) -> list[str]:
    """The columns of a table for n demands."""
    return [h for name in columns for h in ([f"y_{k}" for k in range(n)] if name == "y" else [name])]


def _csv(what: str, n: int, records) -> str:
    """The header line of table what for n demands, then one line per record
    ({column: value}), each cell by _text."""
    columns = _TABLES[what]

    def cells(rec):
        for name, kind in columns.items():
            yield from _typed(rec[name], f"{kind}-list") if name == "y" else [_typed(rec[name], kind)]

    return "".join(",".join(map(_text, row)) + "\n" for row in [_header(columns, n), *map(cells, records)])


def render_trace_table(result) -> str:
    """CSV of every switching-stage iteration across all outer passes."""
    return _csv("trace", result.switches.y.size, ({"stage": stage, **vars(row)}
                                                  for stage, trace in enumerate(result.ao2_traces)
                                                  for row in trace.rows))


def parse_table(text: str, what: str) -> list[dict]:
    """Inverse of _csv for table what, "trace" or "oracle": one {column:
    value} per row, y as an array.  A missing or unexpected header, a row
    whose cell count differs from the header's and a cell that does not read
    as its column's kind raise a ValueError that names the line, as parse_kv
    does ("trace line 3: ...")."""
    columns = _TABLES[what]
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{what} line 1: expected a header line")
    header_no, header_line = lines[0]
    header = header_line.split(",")
    n = sum(1 for h in header if h.startswith("y_"))
    if header != _header(columns, n):
        raise ValueError(f"{what} line {header_no}: unexpected header {header_line!r}")
    kinds = [columns["y" if h.startswith("y_") else h] for h in header]
    rows = []
    for line_no, line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{what} line {line_no}: expected {len(header)} cells, got {len(cells)}")
        try:
            values = dict(zip(header, map(_value, header, cells, kinds)))
        except ValueError as exc:
            raise ValueError(f"{what} line {line_no}: {exc}") from None
        rows.append({name: np.array([values[f"y_{k}"] for k in range(n)]) if name == "y" else values[name]
                     for name in columns})
    return rows


def emit_oracle(entries, out_dir) -> Path:
    """Write oracle.csv, one row per entry in the given order; returns its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "oracle.csv"
    n = len(entries[0].switches) if entries else 0
    path.write_bytes(_csv("oracle", n, ({"y": e.switches, **vars(e)} for e in entries)).encode())
    return path


def emit_outputs(result, out_dir, format: str, config) -> dict[str, Path]:
    """Write result, trace, and report files; returns {name: path}.

    The result and trace files are byte-identical across repeat runs with the
    same inputs; timing lives only in report.kv.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    suffix = "json" if format == "json" else "kv"
    paths = {
        "result": out / f"result.{suffix}",
        "trace": out / "trace.csv",
        "report": out / "report.kv",
    }
    doc = result_document(result, config)
    paths["result"].write_bytes(render_result_document(doc, format).encode())
    paths["trace"].write_bytes(render_trace_table(result).encode())
    report = {key: doc[key] for key in ("outer_iterations", "inner_iterations", "phi_final")}
    report |= {
        "wall_ao1_s": float(result.timings.get("ao1_s", 0.0)),
        "wall_ao2_s": float(result.timings.get("ao2_s", 0.0)),
        "wall_total_s": float(result.timings.get("total_s", 0.0)),
    }
    paths["report"].write_bytes(render_kv(report).encode())
    return paths
