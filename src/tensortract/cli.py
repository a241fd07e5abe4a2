"""Config-driven batch front-end producing deterministic reports.

Subcommands: count, sweep, classify, topk, audit.  Thresholds are accepted
only in log form (E = log(1/eps), or log10_inv_eps converted by ln 10) so
no epsilon ever underflows at the interface.  Output bytes are a pure
function of the config: fixed row ordering, fixed numeric formatting
(17 significant digits), and no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass, is_dataclass, fields as dc_fields
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np

from .complexity import (DEFAULT_NODE_BUDGET, Query, active_prefix, d_of_eps, info_complexity,
                         j_of_eps, top_eigenvalues)
from .errors import (BoxTooSmall, BudgetExceeded, ConfigError, DivergentTail, GuardExceeded,
                     NonCompact, SequenceError, TensorTractError, UnsupportedNotion)
from .goldens import GOLDEN_PAIRS, iterated_log_pair
from .seqcore import EigenSeq, Tabulated, WeightSeq, family_from_descriptor, load_log_table
from .tractability import DEFAULT_E_GRID, DEFAULT_J_GRID, Notion, ProbePolicy, classify
from .verify import (check_count_sandwich, check_summability_equivalence,
                     oracle_equivalence_suite, power_sum_suite)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_AUDIT = 2
EXIT_RUNTIME = 3

SCHEMA_VERSION = 1

def _dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats as "%.17g" ('inf' as a string); dataclasses
    become objects of their fields, other types their ``str``."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return "%.17g" % obj if math.isfinite(obj) else json.dumps("%.17g" % obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dc_fields(obj)}
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_dump_json(v, indent + 1)}" for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {_dump_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    return json.dumps(str(obj))


@dataclass
class RunConfig:
    lam: EigenSeq
    gam: WeightSeq
    E_list: list
    d_list: list
    notion: Notion | None
    node_budget: int
    search_cap: int | None
    k: int
    policy: ProbePolicy
    audit: dict
    out_format: str
    out_path: str | None


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _number(cast, value, what: str):
    """cast(value); a boolean, a string, a value that does not convert, or a fraction
    cast to int, is a config error."""
    try:
        if isinstance(value, (bool, str)) or (cast is int and isinstance(value, float)
                                              and not value.is_integer()):
            raise ValueError(value)
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{what} must be {kind}, got {value!r}") from None


def _numbers(cast, value, what: str, item: str) -> list:
    """[cast(v) for v in value]; a value that is not a list is a config error."""
    if not isinstance(value, (list, tuple)):  # the message reprs value: build it only here
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return [_number(cast, v, item) for v in value]


def _load_sequence(desc, base_dir: Path, role: str):
    _require(isinstance(desc, dict), f"{role} must be a family descriptor object")
    desc = dict(desc)
    if desc.get("family") == "tabulated" and "path" in desc:
        path = base_dir / str(desc.pop("path"))
        return Tabulated(load_log_table(path))
    return family_from_descriptor(desc)


def _parse_E_values(queries: dict) -> list:
    """The E grid; empty when the queries give none (only count and sweep need one)."""
    if "E" in queries and "log10_inv_eps" in queries:
        raise ConfigError("specify either 'E' or 'log10_inv_eps', not both")
    if "E" not in queries and "log10_inv_eps" not in queries:
        return []
    spec = queries.get("E", queries.get("log10_inv_eps"))
    scale = math.log(10.0) if "log10_inv_eps" in queries else 1.0
    if isinstance(spec, dict):
        kind = spec.get("kind")
        _require(kind == "double_exponential",
                 f"unknown E generator kind {kind!r} (expected 'double_exponential')")
        base = _number(float, spec.get("base", 10.0), "generator base")
        count = _number(int, spec.get("count", 5), "generator count")
        _require(base > 1.0 and count >= 1, "generator needs base > 1 and count >= 1")
        try:
            values = [scale * base**(2**i) for i in range(1, count + 1)]
        except OverflowError:
            raise ConfigError(f"E generator overflows the float range at base {base!r}") from None
    else:
        _require(isinstance(spec, list) and spec, "E grid must be a non-empty list")
        values = [scale * _number(float, v, "E value") for v in spec]
    for v in values:
        _require(math.isfinite(v) and v > 0.0, f"E values must be positive and finite, got {v!r}")
    return values


def _parse_notion(desc) -> Notion:
    _require(isinstance(desc, dict) and "kind" in desc, "notion must be an object with a 'kind'")
    kind = str(desc["kind"]).upper().replace("_", "-")
    plain = {"SPT": Notion.spt, "PT": Notion.pt, "QPT": Notion.qpt, "WT": Notion.wt}
    try:
        if kind.removeprefix("EXP-") in plain:
            return plain[kind.removeprefix("EXP-")]()
        if kind in ("EXP-(S,T)-WT", "ST-WT", "ST-WEAK"):
            _require("s" in desc and "t" in desc, "st_weak notion needs 's' and 't'")
            return Notion.st_weak(_number(float, desc["s"], "s"), _number(float, desc["t"], "t"))
    except UnsupportedNotion as exc:
        raise ConfigError(f"unsupported notion: {exc}") from None
    raise ConfigError(f"unknown notion kind {desc['kind']!r}")


_AUDIT_SUITES = ("oracle", "sandwich", "summability", "power_sum")


def load_config(path: str, overrides: argparse.Namespace) -> RunConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8
        raise ConfigError(f"config file unreadable: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "config must be a JSON object")
    schema = raw.get("schema", SCHEMA_VERSION)
    _require(schema == SCHEMA_VERSION, f"unsupported schema version {schema!r}")

    try:
        lam = EigenSeq(_load_sequence(raw.get("lambda"), p.parent, "lambda"))
        gam = WeightSeq(_load_sequence(raw.get("gamma"), p.parent, "gamma"))
    except (SequenceError, OSError, UnicodeDecodeError) as exc:  # an unreadable table file
        raise ConfigError(f"sequence rejected: {exc}") from None

    queries = raw.get("queries", {})
    _require(isinstance(queries, dict), "queries must be an object")
    E_list = _parse_E_values(queries)
    d_list = _numbers(int, queries.get("d", [1]), "d list", "dimension")
    _require(bool(d_list), "d list must be non-empty")
    for d in d_list:
        _require(d >= 1, f"dimensions must be >= 1, got {d}")

    notion = _parse_notion(raw["notion"]) if "notion" in raw else None

    limits = raw.get("limits", {})
    _require(isinstance(limits, dict), "limits must be an object")
    node_budget = overrides.node_budget
    if node_budget is None:
        node_budget = _number(int, limits.get("node_budget", DEFAULT_NODE_BUDGET), "node_budget")
    _require(node_budget >= 1, "node_budget must be positive")
    search_cap = limits.get("search_cap")
    if search_cap is not None:
        search_cap = _number(int, search_cap, "search_cap")
        _require(search_cap >= 1, "search_cap must be positive")
    k = _number(int, raw.get("k", 8), "k")
    _require(k >= 1, "k must be positive")

    probes = raw.get("probes", {})
    _require(isinstance(probes, dict), "probes must be an object")
    E_grid = tuple(_numbers(float, probes.get("E_grid", DEFAULT_E_GRID), "E_grid", "probe E"))
    j_grid = tuple(_numbers(int, probes.get("j_grid", DEFAULT_J_GRID), "j_grid", "probe j"))
    try:
        policy = ProbePolicy(E_grid, j_grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    output = raw.get("output", {})
    _require(isinstance(output, dict), "output must be an object")
    out_format = overrides.format or output.get("format", "csv")
    _require(out_format in ("csv", "json"), f"format must be csv or json, got {out_format!r}")
    out_path = overrides.out or output.get("path")
    if out_path:
        _require(isinstance(out_path, str), f"output path must be a string, got {out_path!r}")
        _require(Path(out_path).parent.is_dir(), f"output directory not found: {out_path}")
        _require(not Path(out_path).is_dir(), f"output path is a directory: {out_path}")

    audit = raw.get("audit", {})
    _require(isinstance(audit, dict), "audit section must be an object")
    suites = audit.get("suites", list(_AUDIT_SUITES))
    _require(isinstance(suites, list), f"audit suites must be a list, got {suites!r}")
    for s in suites:
        _require(s in _AUDIT_SUITES, f"unknown audit suite {s!r}")
    audit = {
        "suites": suites,
        "instances": _number(int, audit.get("instances", 200), "audit instances"),
        "seed": _number(int, audit.get("seed", overrides.seed), "audit seed"),
        "power_sum_draws": _number(int, audit.get("power_sum_draws", 1000), "power_sum_draws"),
        "c_list": _numbers(float, audit.get("c_list", [2.0, 1.0, 0.5, 0.1]),
                           "audit c_list", "audit c"),
    }
    _require(audit["instances"] >= 1, "audit instances must be positive")
    _require(audit["power_sum_draws"] >= 1, "power_sum_draws must be positive")
    _require(all(math.isfinite(c) and c > 0.0 for c in audit["c_list"]),
             "audit c values must be positive and finite")

    return RunConfig(lam, gam, E_list, d_list, notion, node_budget, search_cap,
                     k, policy, audit, out_format, out_path)


COUNT_COLUMNS = ("E", "d", "j_eps", "d_eps", "count", "nodes", "truncated_dimension", "error")
TOPK_COLUMNS = ("d", "rank", "cost", "eigenvalue", "error")
AUDIT_COLUMNS = ("suite", "check", "instance", "passed", "lhs", "rhs", "note")


def _count_row(cfg: RunConfig, E: float, d: int, j_eps: int | None, memo: dict,
               heads: dict | None) -> list:
    """One report row in COUNT_COLUMNS order; ``j_eps`` is E's eigenvalue
    index, or None where E is non-compact, ``memo`` maps E's active prefixes
    to the count or its error, and ``heads`` holds E's head steps, if shared."""
    if j_eps is None:
        return [E, d, "", "", "", "", "", "non_compact"]
    row = [E, d, j_eps, "", "", "", "", ""]
    try:
        # without a search cap, an unresolvable effective dimension reads d,
        # all that matters for the count
        row[3] = d_of_eps(cfg.gam, E, cap=d if cfg.search_cap is None else cfg.search_cap)
        q = Query(E, d)
        key = active_prefix(cfg.lam, cfg.gam, q)
        if key not in memo:
            try:
                memo[key] = info_complexity(cfg.lam, cfg.gam, q, node_budget=cfg.node_budget,
                                            _heads=heads)
            except BudgetExceeded:
                memo[key] = "budget_exceeded"
        res = memo[key]
        if isinstance(res, str):
            row[7] = res
        else:
            row[4:7] = res.count, res.nodes_visited, res.truncated_dimension
    except NonCompact:
        row[7] = "non_compact"
    return row


def run_count(cfg: RunConfig) -> tuple:
    """The rows of the COUNT_COLUMNS report, each its cells in column order,
    ordered by (d, E); returns (rows, any_runtime_error).

    Every d at or past a cell's active prefix m has the count of d = m, so
    each (E, m) is counted once per call.  The cells are counted one E at a
    time: E's eigenvalue index is searched once for all its cells, and the
    counter's head grows from coordinate 1 the same way at every d, so the
    cells of one E share its head steps, which are dropped before the next E
    (``info_complexity``'s ``_heads``).
    """
    rows = []
    for E, cells in groupby(sorted((E, d) for E in cfg.E_list for d in cfg.d_list),
                            key=itemgetter(0)):
        cells = list(cells)
        try:
            j_eps = j_of_eps(cfg.lam, E, cap=cfg.search_cap)
        except NonCompact:
            j_eps = None
        memo, heads = {}, ({} if len(cells) > 1 else None)  # a lone cell shares nothing
        rows += [_count_row(cfg, E, d, j_eps, memo, heads) for _, d in cells]
    rows.sort(key=itemgetter(1, 0))  # report order (d, E); equal cells are equal rows
    return rows, any(row[7] for row in rows)


#: What joins two rows of a report, by format.
_ROW_JOINERS = {"csv": "\n", "json": ",\n"}

#: Rows per block string of the top-K report.  Each block is one ``%`` of a
#: template over its ranks, so its rank tuple and template stay small.
_TOPK_BLOCK_ROWS = 8192


def run_topk(cfg: RunConfig) -> tuple:
    """The rows of the TOPK_COLUMNS report as ``_write_rows`` joins them: per
    d in increasing order, (d, rank, cost, exp(-cost), "") for each of the K
    largest eigenvalues, or one budget_exceeded row; returns (blocks,
    any_runtime_error), each block the rows of up to ``_TOPK_BLOCK_ROWS``
    ranks of one d, joined as ``_write_rows`` joins rows.  Equal costs are
    adjacent, so each run of one bit pattern (an int64 compare finds the
    starts) takes one ``math.exp``; one ``%`` formats the rows of all the
    runs, each with a ``%d`` left for its rank, and one ``%`` per block fills
    in the ranks of a template that repeats each run's row over its ranks.
    """
    csv_out = cfg.out_format == "csv"
    cell, cost_fmt = (_cell, "%.17g") if csv_out else (_dump_json, "%s")
    joiner = _ROW_JOINERS[cfg.out_format]
    row_fmt = _row_format(TOPK_COLUMNS, cfg.out_format)
    rows, had_error = [], False
    for d in sorted(cfg.d_list):
        try:
            costs = top_eigenvalues(cfg.lam, cfg.gam, d, cfg.k)
        except BudgetExceeded:
            rows += _render(TOPK_COLUMNS, cfg.out_format, [(d, "", "", "", "budget_exceeded")])
            had_error = True
            continue
        n = len(costs)
        arr = np.fromiter(costs, float, n)
        bits = arr.view(np.int64)
        starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
        run_costs = arr[starts].tolist()
        cells = [None] * (2 * len(run_costs))
        cells[0::2] = run_costs if csv_out else map(_dump_json, run_costs)
        cells[1::2] = map(math.exp, map(float.__neg__, run_costs))  # finite: "%.17g" in JSON too
        # TOPK_COLUMNS hold no "%", so the filled row template is a format
        # whose one "%d" is the rank.  The cells are "%.17g" numbers or JSON's
        # '"inf"', which hold no "\0" and no "%": each run's row, ended by
        # its joiner, is one piece.
        unit = row_fmt % (cell(d), "%%d", cost_fmt, "%.17g", cell("")) + joiner
        pieces = ("\0".join([unit] * len(run_costs)) % tuple(cells)).split("\0")
        # Run r holds the ranks bounds[r] + 1 to bounds[r + 1]; a block
        # repeats the pieces of the runs it meets over their ranks within it.
        bounds = np.append(starts, n)
        for first in range(0, n, _TOPK_BLOCK_ROWS):
            last = min(first + _TOPK_BLOCK_ROWS, n)
            a, b = starts.searchsorted((first, last), "right").tolist()
            ks = np.diff(bounds[a - 1:b + 1].clip(first, last)).tolist()
            block = "".join(map(str.__mul__, pieces[a - 1:b], ks))[:-len(joiner)]
            rows.append(block % tuple(range(first + 1, last + 1)))
    return rows, had_error


def run_classify(cfg: RunConfig) -> dict:
    _require(cfg.notion is not None, "classify requires a 'notion' section")
    verdict = classify(cfg.lam, cfg.gam, cfg.notion, cfg.policy)
    return {
        **_report_head(cfg, "classify"),
        "notion": {"kind": cfg.notion.label, "s": cfg.notion.s, "t": cfg.notion.t},
        "verdict": {
            "status": verdict.status.value,
            "mode": "analytic",
            "exponent": verdict.exponent,
            "evidence": verdict.evidence,
        },
    }


def run_audit(cfg: RunConfig) -> tuple:
    """The rows of the AUDIT_COLUMNS report over the requested suites, each its
    cells in column order; returns (rows, all_passed)."""
    audit = cfg.audit
    suites = audit["suites"]
    rows = []

    def emit(suite: str, report):
        rows.extend((suite, chk.name, report.instance, chk.passed, chk.lhs, chk.rhs, chk.note)
                    for chk in report.checks)

    if "oracle" in suites:
        emit("oracle", oracle_equivalence_suite(
            instances=audit["instances"], seed=audit["seed"], node_budget=cfg.node_budget))
    if "sandwich" in suites:
        for pair in GOLDEN_PAIRS:
            for E in pair.audit_E:
                for d in pair.audit_d:
                    try:
                        report = check_count_sandwich(pair.lam, pair.gam, E, d,
                                                      node_budget=cfg.node_budget)
                        emit(f"sandwich[{pair.name}]", report)
                    except (BudgetExceeded, NonCompact) as exc:
                        rows.append((f"sandwich[{pair.name}]", "count_sandwich",
                                     f"E={E!r} d={d}", False, "", "",
                                     f"{type(exc).__name__}: {exc}"))
    if "summability" in suites:
        from .seqcore import ExpPower, LogPower, PowerLaw
        families = (EigenSeq(PowerLaw(1.0)), EigenSeq(PowerLaw(2.0)),
                    EigenSeq(LogPower(2.0)), EigenSeq(ExpPower(1.0, 1.0)))
        for seq in families:
            emit("summability", check_summability_equivalence(seq, audit["c_list"]))
        pair = iterated_log_pair()
        emit("summability", check_summability_equivalence(pair.lam, (2.0, 1.0)))
    if "power_sum" in suites:
        emit("power_sum", power_sum_suite(draws=audit["power_sum_draws"], seed=audit["seed"]))
    return rows, all(row[3] for row in rows)


def _report_head(cfg: RunConfig, command: str) -> dict:
    """Opening entries of a JSON report on the configured sequences."""
    return {"schema": SCHEMA_VERSION, "command": command,
            "lambda": cfg.lam.descriptor(), "gamma": cfg.gam.descriptor()}


def _row_format(names, out_format: str) -> str:
    """The row template of a report with columns ``names``: one ``%s`` field
    per column, between commas in CSV and after its key in JSON."""
    if out_format == "csv":
        return ",".join(["%s"] * len(names))
    keys = [json.dumps(str(c)).replace("%", "%%") for c in names]
    return "    {\n" + ",\n".join(f"      {k}: %s" for k in keys) + "\n    }"


def _render(names, out_format: str, rows) -> list:
    """``rows`` (each its cells in the order of the columns ``names``) as
    strings, each one ``%`` of ``_row_format``'s template.  A cell is
    ``_dump_json`` in JSON and ``_csv_cell`` in CSV, so with two or more
    columns a CSV row is the one ``csv.writer(lineterminator="\\n")`` writes
    from ``_cell`` values."""
    cell = _csv_cell if out_format == "csv" else _dump_json
    row_fmt = _row_format(names, out_format)
    return [row_fmt % tuple(map(cell, row)) for row in rows]


def _write_rows(names, out_format: str, head: dict, rows: list, **tail) -> str:
    """The report with columns ``names`` and rows ``rows``, rendered already
    (``_render``, or ``run_topk``'s blocks, each of rows joined as below), as
    CSV under a header row, or as one JSON document: ``head``, the rows, then
    ``tail``.  The rows are joined by ``_ROW_JOINERS``, in one join that
    copies each row once."""
    if out_format == "csv":
        return _ROW_JOINERS["csv"].join([*_render(names, "csv", [names]), *rows, ""])
    # The rows fill the top-level empty "rows" array of the document without them.
    lead, trail = _dump_json({**head, "rows": [], **tail}).split('\n  "rows": []')
    if not rows:
        return f'{lead}\n  "rows": []{trail}\n'
    # The document's lead and trail join with the first and last row.
    rows = [f'{lead}\n  "rows": [\n{rows[0]}', *rows[1:]]
    rows[-1] += f"\n  ]{trail}\n"
    return _ROW_JOINERS["json"].join(rows)


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return "%.17g" % v if isinstance(v, float) else str(v)


_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_cell(v) -> str:
    """``_cell(v)`` as csv.writer writes it in a row."""
    cell = _cell(v)
    if not _CSV_SPECIAL.search(cell):
        return cell
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((cell, ""))
    return buf.getvalue()[:-2]


def _emit(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensortract",
        description="Exact information-complexity sweeps, tractability verdicts, and audits "
                    "for weighted tensor product problems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("count", "count qualifying tuples for a single query"),
            ("sweep", "count over the full (E, d) grid"),
            ("classify", "decide a tractability notion"),
            ("topk", "largest tensor eigenvalues per dimension"),
            ("audit", "run the verification suites")):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the JSON run configuration")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default=None)
        sp.add_argument("--node-budget", type=int, default=None)
        sp.add_argument("--seed", type=int, default=0)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        command = args.command
        if command == "classify":
            _require(cfg.out_format == "json", "classify emits JSON verdicts; use --format json")
            _emit(_dump_json(run_classify(cfg)) + "\n", cfg.out_path)
            return EXIT_OK
        if command == "audit":
            rows, ok = run_audit(cfg)
            head = {"schema": SCHEMA_VERSION, "command": "audit"}
            rows = _render(AUDIT_COLUMNS, cfg.out_format, rows)
            _emit(_write_rows(AUDIT_COLUMNS, cfg.out_format, head, rows, passed=ok), cfg.out_path)
            return EXIT_OK if ok else EXIT_AUDIT
        if command == "topk":
            names = TOPK_COLUMNS
            rows, had_error = run_topk(cfg)
        else:
            _require(bool(cfg.E_list), "count/sweep require an E grid")
            _require(command == "sweep" or (len(cfg.E_list) == 1 and len(cfg.d_list) == 1),
                     "count expects exactly one E value and one dimension; use sweep for grids")
            names = COUNT_COLUMNS
            rows, had_error = run_count(cfg)
            rows = _render(names, cfg.out_format, rows)
        _emit(_write_rows(names, cfg.out_format, _report_head(cfg, command), rows), cfg.out_path)
        return EXIT_RUNTIME if had_error else EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetExceeded, GuardExceeded, BoxTooSmall, DivergentTail, NonCompact) as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except TensorTractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
