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
import sys
from dataclasses import dataclass, is_dataclass, fields as dc_fields
from pathlib import Path

from .complexity import (DEFAULT_NODE_BUDGET, Query, active_prefix, d_of_eps, info_complexity,
                         j_of_eps, top_eigenvalues)
from .errors import (
    BoxTooSmall,
    BudgetExceeded,
    ConfigError,
    DivergentTail,
    GuardExceeded,
    NonCompact,
    SequenceError,
    TensorTractError,
    UnsupportedNotion,
)
from .goldens import GOLDEN_PAIRS, iterated_log_pair
from .seqcore import EigenSeq, Tabulated, WeightSeq, family_from_descriptor, load_log_table
from .tractability import DEFAULT_E_GRID, DEFAULT_J_GRID, Notion, ProbePolicy, classify
from .verify import (
    check_count_sandwich,
    check_summability_equivalence,
    oracle_equivalence_suite,
    power_sum_suite,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_AUDIT = 2
EXIT_RUNTIME = 3

SCHEMA_VERSION = 1

_LN10 = math.log(10.0)


def _fmt_real(x: float) -> str:
    xf = float(x)
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    if math.isnan(xf):
        return "nan"
    return format(xf, ".17g")


def _dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting ('inf' as a string); dataclasses
    become objects of their fields, other types their ``str``."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return _fmt_real(obj)
        return json.dumps(_fmt_real(obj))
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
    """cast(value); a boolean, a value that does not convert, or a fraction cast to int,
    is a config error."""
    try:
        if isinstance(value, bool) or (cast is int and isinstance(value, float)
                                       and not value.is_integer()):
            raise ValueError(value)
        return cast(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{what} must be {kind}, got {value!r}") from None


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
    scale = _LN10 if "log10_inv_eps" in queries else 1.0
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


def load_config(path: str, overrides: argparse.Namespace) -> RunConfig:
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _require(isinstance(raw, dict), "config must be a JSON object")
    schema = raw.get("schema", SCHEMA_VERSION)
    _require(schema == SCHEMA_VERSION, f"unsupported schema version {schema!r}")

    try:
        lam = EigenSeq(_load_sequence(raw.get("lambda"), p.parent, "lambda"))
        gam = WeightSeq(_load_sequence(raw.get("gamma"), p.parent, "gamma"))
    except (SequenceError, OSError) as exc:  # OSError: an unreadable table file
        raise ConfigError(f"sequence rejected: {exc}") from None

    queries = raw.get("queries", {})
    _require(isinstance(queries, dict), "queries must be an object")
    E_list = _parse_E_values(queries)
    d_list = [_number(int, d, "dimension") for d in queries.get("d", [1])] if queries else [1]
    _require(bool(d_list), "d list must be non-empty")
    for d in d_list:
        _require(d >= 1, f"dimensions must be >= 1, got {d}")

    notion = _parse_notion(raw["notion"]) if "notion" in raw else None

    limits = raw.get("limits", {})
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
    policy = ProbePolicy(
        E_grid=tuple(_number(float, v, "probe E") for v in probes.get("E_grid", DEFAULT_E_GRID)),
        j_grid=tuple(_number(int, v, "probe j") for v in probes.get("j_grid", DEFAULT_J_GRID)),
        promote_numeric_trends=bool(probes.get("promote_numeric_trends", False)),
    )
    _require(all(j >= 2 for j in policy.j_grid), "probe j values must be >= 2")

    output = raw.get("output", {})
    out_format = overrides.format or output.get("format", "csv")
    _require(out_format in ("csv", "json"), f"format must be csv or json, got {out_format!r}")
    out_path = overrides.out or output.get("path")

    audit = raw.get("audit", {})
    _require(isinstance(audit, dict), "audit section must be an object")
    c_list = audit.get("c_list", [2.0, 1.0, 0.5, 0.1])
    _require(isinstance(c_list, list), f"audit c_list must be a list, got {c_list!r}")
    audit = {**audit, "c_list": [_number(float, c, "audit c") for c in c_list]}
    _require(all(math.isfinite(c) and c > 0.0 for c in audit["c_list"]),
             "audit c values must be positive and finite")

    return RunConfig(lam, gam, E_list, d_list, notion, node_budget, search_cap,
                     k, policy, audit, out_format, out_path)


def _count_row(cfg: RunConfig, E: float, d: int, memo: dict) -> dict:
    """One report row; ``memo`` maps (E, active prefix) to the count or its error."""
    row = {"E": E, "d": d, "j_eps": "", "d_eps": "", "count": "", "nodes": "",
           "truncated_dimension": "", "error": ""}
    try:
        row["j_eps"] = j_of_eps(cfg.lam, E, cap=cfg.search_cap)
        try:
            row["d_eps"] = d_of_eps(cfg.gam, E, cap=cfg.search_cap)
        except NonCompact:
            # effective dimension exceeds the query dimension; d is all that
            # matters for the count
            row["d_eps"] = d_of_eps(cfg.gam, E, cap=d)
        q = Query(E, d)
        key = (E, active_prefix(cfg.lam, cfg.gam, q))
        if key not in memo:
            try:
                memo[key] = info_complexity(cfg.lam, cfg.gam, q, node_budget=cfg.node_budget)
            except BudgetExceeded:
                memo[key] = "budget_exceeded"
        res = memo[key]
        if isinstance(res, str):
            row["error"] = res
        else:
            row["count"] = res.count
            row["nodes"] = res.nodes_visited
            row["truncated_dimension"] = res.truncated_dimension
    except NonCompact:
        row["error"] = "non_compact"
    return row


def run_count(cfg: RunConfig) -> tuple:
    """Rows (E, d, j_eps, d_eps, count, nodes, truncated_dimension, error),
    ordered by (d, E); returns (rows, any_runtime_error).

    Every d at or past a cell's active prefix m has the count of d = m, so
    each (E, m) is counted once per call.
    """
    cells = sorted((d, E) for d in cfg.d_list for E in cfg.E_list)
    memo: dict = {}
    rows = [_count_row(cfg, E, d, memo) for d, E in cells]
    return rows, any(r["error"] for r in rows)


def run_topk(cfg: RunConfig) -> tuple:
    def one(d: int) -> list:
        try:
            costs = top_eigenvalues(cfg.lam, cfg.gam, d, cfg.k)
        except BudgetExceeded:
            return [{"d": d, "rank": "", "cost": "", "eigenvalue": "", "error": "budget_exceeded"}]
        return [{"d": d, "rank": i, "cost": c, "eigenvalue": math.exp(-c), "error": ""}
                for i, c in enumerate(map(float, costs), 1)]

    rows = [r for d in sorted(cfg.d_list) for r in one(d)]
    return rows, any(r["error"] for r in rows)


def run_classify(cfg: RunConfig) -> dict:
    if cfg.notion is None:
        raise ConfigError("classify requires a 'notion' section")
    verdict = classify(cfg.lam, cfg.gam, cfg.notion, cfg.policy)
    return {
        **_report_head(cfg, "classify"),
        "notion": {"kind": cfg.notion.label, "s": cfg.notion.s, "t": cfg.notion.t},
        "verdict": {
            "status": verdict.status.value,
            "mode": verdict.mode.value,
            "exponent": verdict.exponent,
            "evidence": verdict.evidence,
        },
    }


_AUDIT_SUITES = ("oracle", "sandwich", "summability", "power_sum")


def run_audit(cfg: RunConfig, seed: int) -> tuple:
    """Audit rows over the requested suites; returns (rows, all_passed)."""
    suites = cfg.audit.get("suites", list(_AUDIT_SUITES))
    _require(isinstance(suites, list), f"audit suites must be a list, got {suites!r}")
    for s in suites:
        _require(s in _AUDIT_SUITES, f"unknown audit suite {s!r}")
    rows = []

    def emit(suite: str, report):
        for chk in report.checks:
            rows.append({"suite": suite, "check": chk.name, "instance": report.instance,
                         "passed": chk.passed, "lhs": chk.lhs, "rhs": chk.rhs,
                         "note": chk.note})

    if "oracle" in suites:
        emit("oracle", oracle_equivalence_suite(
            instances=_number(int, cfg.audit.get("instances", 200), "audit instances"),
            seed=_number(int, cfg.audit.get("seed", seed), "audit seed"),
            node_budget=cfg.node_budget))
    if "sandwich" in suites:
        for pair in GOLDEN_PAIRS:
            for E in pair.audit_E:
                for d in pair.audit_d:
                    try:
                        report = check_count_sandwich(pair.lam, pair.gam, E, d,
                                                      node_budget=cfg.node_budget)
                        emit(f"sandwich[{pair.name}]", report)
                    except (BudgetExceeded, NonCompact) as exc:
                        rows.append({"suite": f"sandwich[{pair.name}]",
                                     "check": "count_sandwich", "instance": f"E={E!r} d={d}",
                                     "passed": False, "lhs": "", "rhs": "",
                                     "note": f"{type(exc).__name__}: {exc}"})
    if "summability" in suites:
        from .seqcore import ExpPower, LogPower, PowerLaw
        families = (EigenSeq(PowerLaw(1.0)), EigenSeq(PowerLaw(2.0)),
                    EigenSeq(LogPower(2.0)), EigenSeq(ExpPower(1.0, 1.0)))
        for seq in families:
            emit("summability", check_summability_equivalence(seq, cfg.audit["c_list"]))
        pair = iterated_log_pair()
        emit("summability", check_summability_equivalence(pair.lam, (2.0, 1.0)))
    if "power_sum" in suites:
        emit("power_sum", power_sum_suite(
            draws=_number(int, cfg.audit.get("power_sum_draws", 1000), "power_sum_draws"),
            seed=_number(int, cfg.audit.get("seed", seed), "audit seed")))
    return rows, all(r["passed"] for r in rows)


def _report_head(cfg: RunConfig, command: str) -> dict:
    """Opening entries of a JSON report on the configured sequences."""
    return {"schema": SCHEMA_VERSION, "command": command,
            "lambda": cfg.lam.descriptor(), "gamma": cfg.gam.descriptor()}


def _write_rows(rows, columns, cfg: RunConfig, head: dict, **tail) -> str:
    """The rows as CSV, or as one JSON document: ``head``, the rows, then ``tail``."""
    if cfg.out_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*(_csv_column([row[c] for row in rows]) for c in columns)))
        return buf.getvalue()
    doc = {**head, "rows": rows, **tail}
    return _dump_json(doc) + "\n"


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt_real(v)
    return str(v)


def _csv_column(values: list) -> list:
    """``[_cell(v) for v in values]``, or values csv.writer writes the same way.

    A column of plain floats is formatted with "%.17g" in one C-level map,
    which spells inf and nan as ``_fmt_real`` does; csv.writer writes ints
    and strs as ``str`` does.  Other columns (bools, mixed types) go through
    ``_cell``.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map("%.17g".__mod__, values))
    if kinds <= {int, str}:
        return values
    return list(map(_cell, values))


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


COUNT_COLUMNS = ("E", "d", "j_eps", "d_eps", "count", "nodes", "truncated_dimension", "error")
TOPK_COLUMNS = ("d", "rank", "cost", "eigenvalue", "error")
AUDIT_COLUMNS = ("suite", "check", "instance", "passed", "lhs", "rhs", "note")


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        if args.command in ("count", "sweep"):
            if not cfg.E_list:
                raise ConfigError("count/sweep require an E grid")
            if args.command == "count" and (len(cfg.E_list) != 1 or len(cfg.d_list) != 1):
                raise ConfigError("count expects exactly one E value and one dimension; use sweep for grids")
            rows, had_error = run_count(cfg)
            _emit(_write_rows(rows, COUNT_COLUMNS, cfg, _report_head(cfg, args.command)),
                  cfg.out_path)
            return EXIT_RUNTIME if had_error else EXIT_OK
        if args.command == "topk":
            rows, had_error = run_topk(cfg)
            _emit(_write_rows(rows, TOPK_COLUMNS, cfg, _report_head(cfg, "topk")), cfg.out_path)
            return EXIT_RUNTIME if had_error else EXIT_OK
        if args.command == "classify":
            if cfg.out_format == "csv":
                raise ConfigError("classify emits JSON verdicts; use --format json")
            doc = run_classify(cfg)
            _emit(_dump_json(doc) + "\n", cfg.out_path)
            return EXIT_OK
        if args.command == "audit":
            rows, ok = run_audit(cfg, seed=args.seed)
            head = {"schema": SCHEMA_VERSION, "command": "audit"}
            _emit(_write_rows(rows, AUDIT_COLUMNS, cfg, head, passed=ok), cfg.out_path)
            return EXIT_OK if ok else EXIT_AUDIT
        raise ConfigError(f"unknown command {args.command!r}")
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
