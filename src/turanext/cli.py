"""Batch experiment runner: every module behind one ``turanext`` command.

Subcommands take flat ``KEY=VALUE`` parameters (optionally preloaded from a
config file), emit a deterministic report as CSV or JSON, and map failures
onto stable exit codes: 2 for bad configuration or arguments, 3 for search
caps, 4 for internal invariant violations, 1 for failed verify suites.
Counts are serialized as decimal strings so arbitrarily large values survive
any consumer; graphs travel as graph6.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from . import __version__, analytic, closedform, counting, graphs, search
from . import family as family_mod
from . import verify as verify_mod
from .closedform import Params
from .errors import ConfigError, InternalCheckError, SearchCapError
from .shorthand import parse_graph

_FORMATS = ("csv", "json")
# report options a config file may set; the matching --flag wins over it
_ROUTED = ("output", "format", "export")
#: the most rows one analytic-sweep makes; every row is held until the output is written
SWEEP_ROW_CAP = 10_000


# ---------------------------------------------------------------------------
# parameter plumbing


def parse_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` starts a comment; blank lines ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = body.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = value.strip()
    return out


class ParamReader:
    """Typed access to the merged key/value parameters of one run.

    Every accepted key is echoed (with defaults resolved) into ``resolved``
    so the report alone reproduces the run; leftovers are rejected.
    """

    _REQUIRED = object()

    def __init__(self, raw: dict[str, str]):
        self._raw = dict(raw)
        self.resolved: dict[str, str] = {}

    def _pop(self, key: str, default: object) -> str | None:
        if key in self._raw:
            return self._raw.pop(key)
        if default is self._REQUIRED:
            raise ConfigError(f"missing required parameter {key!r}")
        return None

    def _parsed(
        self, key: str, default: object, parse: Callable[[str], Any], what: str
    ) -> Any:
        raw = self._pop(key, default)
        if raw is None:
            return default
        try:
            return parse(raw)
        except ValueError:
            raise ConfigError(f"parameter {key}={raw!r} is not {what}") from None

    def int_(
        self,
        key: str,
        default: object = _REQUIRED,
        *,
        minimum: int | None = None,
    ) -> int:
        value = self._parsed(key, default, lambda raw: int(raw, 10), "an integer")
        assert isinstance(value, int)
        if minimum is not None and value < minimum:
            raise ConfigError(f"parameter {key}={value} must be >= {minimum}")
        self.resolved[key] = str(value)
        return value

    def float_(self, key: str, default: object = _REQUIRED) -> float:
        value = float(self._parsed(key, default, float, "a number"))
        self.resolved[key] = repr(value)
        return value

    def str_(
        self,
        key: str,
        default: object = _REQUIRED,
        *,
        choices: tuple[str, ...] | None = None,
    ) -> str:
        raw = self._pop(key, default)
        value = str(default) if raw is None else raw
        if choices is not None and value not in choices:
            raise ConfigError(
                f"parameter {key}={value!r} must be one of {', '.join(choices)}"
            )
        self.resolved[key] = value
        return value

    def graph_(self, key: str) -> graphs.Graph:
        raw = self._pop(key, self._REQUIRED)
        assert raw is not None
        try:
            g = parse_graph(raw)
        except ValueError as exc:
            raise ConfigError(f"parameter {key}={raw!r}: {exc}") from exc
        self.resolved[key] = raw
        return g

    def has(self, key: str) -> bool:
        return key in self._raw

    def done(self) -> None:
        if self._raw:
            extra = ", ".join(sorted(self._raw))
            raise ConfigError(f"unknown parameter(s): {extra}")


def _graph_from_file(path: str) -> graphs.Graph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read graph file {path!r}: {exc}") from exc
    stripped = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not stripped:
        raise ConfigError(f"graph file {path!r} is empty")
    try:
        if stripped[0].isdigit():
            return graphs.read_edge_list(text)
        return graphs.graph6_decode(stripped[0])
    except ValueError as exc:
        raise ConfigError(f"graph file {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers


@dataclass
class CommandOutput:
    rows: list[dict[str, str]]
    export_lines: list[str] | None = None
    exit_code: int = 0


def _cmd_count(reader: ParamReader) -> CommandOutput:
    has_g, has_file = reader.has("G"), reader.has("Gfile")
    if has_g == has_file:
        raise ConfigError("count needs exactly one of G=... or Gfile=...")
    if has_g:
        host = reader.graph_("G")
    else:
        path = reader.str_("Gfile")
        host = _graph_from_file(path)
    pattern_text = reader.str_("T")
    reader.done()
    try:
        pattern = counting.Pattern(parse_graph(pattern_text))
    except ValueError as exc:
        raise ConfigError(f"parameter T={pattern_text!r}: {exc}") from exc
    row = {
        "host_vertices": str(host.n),
        "host_edges": str(host.edge_count()),
        "pattern": pattern_text,
        "copies": str(counting.count_copies(host, pattern)),
        "embeddings": str(counting.count_embeddings(host, pattern)),
        "pattern_automorphisms": str(pattern.aut_count),
    }
    return CommandOutput([row])


def _cmd_turan(reader: ParamReader) -> CommandOutput:
    n = reader.int_("n", minimum=0)
    r = reader.int_("r", minimum=1)
    m = reader.int_("m", minimum=1)
    reader.done()
    row = {
        "n": str(n),
        "r": str(r),
        "m": str(m),
        "count": str(closedform.turan_clique_count(n, r, m)),
        "edges": str(closedform.turan_edge_count(n, r)),
    }
    return CommandOutput([row])


def _cmd_f_eval(reader: ParamReader) -> CommandOutput:
    r = reader.int_("r", minimum=2)
    s = reader.int_("s", minimum=1)
    t = reader.int_("t", minimum=1)
    a = reader.int_("a", minimum=0)
    n = reader.int_("n", minimum=1)
    reader.done()
    value = closedform.anchored_degree_count(Params(r, s, t), a, n)
    row = {
        "r": str(r),
        "s": str(s),
        "t": str(t),
        "a": str(a),
        "n": str(n),
        "value": str(value),
    }
    return CommandOutput([row])


def _cmd_decomp(reader: ParamReader) -> CommandOutput:
    h = reader.graph_("H")
    reader.done()
    fam = family_mod.decomposition_family(h)
    minimal = set(map(graphs.canonical_form, fam.minimal_members))
    rows = []
    for i, member in enumerate(fam.members):
        rows.append(
            {
                "index": str(i),
                "vertices": str(member.n),
                "edges": str(member.edge_count()),
                "minimal": "true" if graphs.canonical_form(member) in minimal else "false",
                "graph6": graphs.graph6_encode(member),
            }
        )
    export = [graphs.graph6_encode(m) for m in fam.members]
    return CommandOutput(rows, export_lines=export)


def _cmd_biex(reader: ParamReader) -> CommandOutput:
    n = reader.int_("n", minimum=0)
    h = reader.graph_("H")
    reader.done()
    res = family_mod.biex(n, h)
    witness6 = graphs.graph6_encode(res.witness)
    row = {
        "n": str(n),
        "value": str(res.value),
        "exhaustive": "true" if res.exhaustive else "false",
        "witness_graph6": witness6,
    }
    return CommandOutput([row], export_lines=[witness6])


def _cmd_construct(reader: ParamReader) -> CommandOutput:
    n = reader.int_("n", minimum=1)
    h = reader.graph_("H")
    m = reader.int_("m", minimum=2)
    reader.done()
    g, count = family_mod.lower_bound_construction(n, h, m)
    encoded = graphs.graph6_encode(g)
    row = {
        "n": str(n),
        "m": str(m),
        "count": str(count),
        "edges": str(g.edge_count()),
        "graph6": encoded,
    }
    return CommandOutput([row], export_lines=[encoded])


def _cmd_exsearch(reader: ParamReader) -> CommandOutput:
    n = reader.int_("n", minimum=0)
    target = reader.graph_("T")
    forbidden = reader.graph_("H")
    mode = reader.str_("mode", "exhaustive")
    seed = reader.int_("seed", 0)
    iterations = reader.int_("iterations", 20, minimum=1)
    workers = reader.int_("workers", 1, minimum=1)
    reader.done()
    if mode == "multipartite":
        raise ConfigError(
            "mode=multipartite lives under the 'multipartite' subcommand"
        )
    if mode not in ("exhaustive", "local"):
        raise ConfigError(f"parameter mode={mode!r} must be exhaustive or local")
    cfg = search.SearchConfig(mode=mode, seed=seed, iterations=iterations, workers=workers)
    if mode == "exhaustive":
        res = search.extremal_exact(n, target, forbidden, cfg)
    else:
        res = search.extremal_local_search(n, target, forbidden, cfg)
    row = {
        "n": str(n),
        "best": str(res.best),
        "exhaustive": "true" if res.exhaustive else "false",
        "unique_up_to_iso": "true" if res.unique_up_to_iso else "false",
        "witness_count": str(len(res.witnesses)),
        "witness_graph6": graphs.graph6_encode(res.witnesses[0]) if res.witnesses else "",
    }
    export = [graphs.graph6_encode(w) for w in res.witnesses]
    return CommandOutput([row], export_lines=export)


def _cmd_multipartite(reader: ParamReader) -> CommandOutput:
    n = reader.int_("n", minimum=1)
    r = reader.int_("r", minimum=1)
    s = reader.int_("s", minimum=1)
    t = reader.int_("t", minimum=1)
    reader.done()
    comp, value, unique = search.extremal_multipartite(n, Params(r, s, t))
    row = {
        "n": str(n),
        "r": str(r),
        "s": str(s),
        "t": str(t),
        "composition": "+".join(map(str, comp)),
        "count": str(value),
        "unique": "true" if unique else "false",
    }
    return CommandOutput([row])


def _cmd_classify(reader: ParamReader) -> CommandOutput:
    r = reader.int_("r", minimum=2)
    s = reader.int_("s", minimum=1)
    t = reader.int_("t", minimum=1)
    reader.done()
    p = Params(r, s, t)
    q = p.gap
    row = {
        "r": str(r),
        "s": str(s),
        "t": str(t),
        "case": analytic.classify(p).value,
        "discriminant": str(q * q - q),
        "balance_threshold": str(2 * s),
        "imbalance_threshold": str(r * s),
    }
    return CommandOutput([row])


def _sweep_row(p: Params, n_or_x: str, a_or_alpha: str, quantity: str, value: str) -> dict[str, str]:
    return {
        "r": str(p.r),
        "s": str(p.s),
        "t": str(p.t),
        "n_or_x": n_or_x,
        "a_or_alpha": a_or_alpha,
        "quantity": quantity,
        "value": value,
    }


def _capped(grid: range) -> range:
    """``grid``, once it is known to hold at most ``SWEEP_ROW_CAP`` points."""
    if grid[SWEEP_ROW_CAP:]:
        raise ConfigError(f"analytic-sweep grid has more than {SWEEP_ROW_CAP} points")
    return grid


def _cmd_analytic_sweep(reader: ParamReader) -> CommandOutput:
    quantity = reader.str_(
        "quantity",
        choices=("step-ratio-error", "gain-rate", "profile", "offset-gain", "step-poly"),
    )
    r = reader.int_("r", minimum=2)
    s = reader.int_("s", minimum=1)
    t = reader.int_("t", minimum=1)
    p = Params(r, s, t)
    rows: list[dict[str, str]] = []

    if quantity == "step-ratio-error":
        n = reader.int_("n", minimum=4)
        amin = reader.int_("amin", max(1, 3 * n // 10), minimum=1)
        amax = reader.int_("amax", (r - 1) * n // r)
        astep = reader.int_("astep", max(1, (amax - amin) // 50), minimum=1)
        reader.done()
        for a in _capped(range(amin, amax + 1, astep)):
            err = analytic.step_ratio_error(p, a, n)
            rows.append(_sweep_row(p, str(n), str(a), quantity, repr(err)))
    elif quantity == "gain-rate":
        alpha = reader.float_("alpha")
        xmin = reader.float_("xmin", 1e3)
        xmax = reader.float_("xmax", 1e5)
        points = reader.int_("points", 13, minimum=2)
        reader.done()
        if not 0 < xmin <= xmax:
            raise ConfigError("need 0 < xmin <= xmax")
        for i in _capped(range(points)):
            x = xmin * (xmax / xmin) ** (i / (points - 1))
            value = analytic.offset_gain_rate(x, alpha, p).value
            rows.append(_sweep_row(p, repr(x), repr(alpha), quantity, repr(value)))
    elif quantity == "profile":
        top = 1.0 / (r - 1)
        xmin = reader.float_("xmin", 0.05 * top)
        xmax = reader.float_("xmax", 0.95 * top)
        points = reader.int_("points", 19, minimum=2)
        reader.done()
        for i in _capped(range(points)):
            x = xmin + (xmax - xmin) * i / (points - 1)
            value = analytic.log_count_profile(x, p)
            rows.append(_sweep_row(p, repr(x), "", quantity, repr(value)))
    elif quantity == "offset-gain":
        n = reader.int_("n", minimum=2)
        xmax_default = max(0, n // 2 - s)
        xmin = reader.int_("xmin", 0, minimum=0)
        xmax = reader.int_("xmax", xmax_default, minimum=0)
        xstep = reader.int_("xstep", max(1, (xmax - xmin) // 25), minimum=1)
        reader.done()
        for x in _capped(range(xmin, xmax + 1, xstep)):
            value = analytic.bipartite_offset_gain(n, x, p)
            rows.append(_sweep_row(p, str(n), str(x), quantity, str(value)))
    else:  # step-poly
        zmin = reader.float_("zmin", 0.0)
        zmax = reader.float_("zmax", 2.0)
        points = reader.int_("points", 21, minimum=2)
        reader.done()
        for i in _capped(range(points)):
            z = zmin + (zmax - zmin) * i / (points - 1)
            value = analytic.step_ratio_poly(z, p).value
            rows.append(_sweep_row(p, repr(z), "", quantity, repr(value)))
    return CommandOutput(rows)


def _cmd_verify(suite: str) -> CommandOutput:
    results = verify_mod.run_suite(suite)
    rows = []
    failed = 0
    for res in results:
        failed += not res.passed
        rows.append(
            {
                "criterion": res.name,
                "passed": "true" if res.passed else "false",
                "detail": " | ".join(res.lines),
            }
        )
    return CommandOutput(rows, exit_code=1 if failed else 0)


_COMMANDS = {
    "count": (_cmd_count, "count copies of a pattern in a host graph"),
    "turan": (_cmd_turan, "clique counts and edge counts of balanced multipartite graphs"),
    "f-eval": (_cmd_f_eval, "closed-form degree count of the anchored construction"),
    "decomp": (_cmd_decomp, "decomposition family of a graph with chromatic number >= 3"),
    "biex": (_cmd_biex, "exact forbidden-family edge maximum at small n"),
    "construct": (_cmd_construct, "overlay lower-bound construction and its clique count"),
    "exsearch": (_cmd_exsearch, "exact or local search for extremal graphs"),
    "multipartite": (_cmd_multipartite, "exact pattern maximum over complete multipartite hosts"),
    "classify": (_cmd_classify, "balance/imbalance classification of a parameter triple"),
    "analytic-sweep": (_cmd_analytic_sweep, "tabulate an analytic quantity over a grid"),
    "verify": (_cmd_verify, "run acceptance suites (exit 1 on any failure)"),
}


# ---------------------------------------------------------------------------
# report rendering


def render_csv(report: dict) -> str:
    buf = io.StringIO()
    buf.write(f"# command: {report['command']}\n")
    for key, value in report["parameters"].items():
        buf.write(f"# {key} = {value}\n")
    buf.write(f"# version: {report['version']}\n")
    rows = report["rows"]
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def write_atomic(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".turanext-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turanext",
        description="Exact-computation workbench for generalized extremal graph counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (handler, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if handler is _cmd_verify:
            p.add_argument(
                "suite",
                nargs="?",
                default="all",
                choices=(*verify_mod.suite_names(), "all"),
                help="suite to run (default: all)",
            )
        else:
            p.add_argument("params", nargs="*", metavar="KEY=VALUE")
        p.add_argument("--config", help="flat key = value file merged under CLI params")
        p.add_argument("--output", help="write the report to this path (atomic)")
        p.add_argument("--format", choices=_FORMATS, help="report format (default csv)")
        p.add_argument("--export", help="write graph6/export payload to this path")
    return parser


def _merged_params(args: argparse.Namespace) -> dict[str, str]:
    merged: dict[str, str] = {}
    if args.config:
        merged.update(parse_config_file(args.config))
    for token in getattr(args, "params", []) or []:
        if "=" not in token:
            raise ConfigError(f"expected KEY=VALUE, got {token!r}")
        key, value = token.split("=", 1)
        if not key:
            raise ConfigError(f"expected KEY=VALUE, got {token!r}")
        merged[key] = value
    if merged.get("command", args.command) != args.command:
        raise ConfigError(
            f"config says command={merged['command']!r} but {args.command!r} was invoked"
        )
    merged.pop("command", None)
    for key in _ROUTED:
        value = merged.pop(key, None)
        if getattr(args, key) is None:
            setattr(args, key, value)
    if args.format not in (None, *_FORMATS):
        raise ConfigError(f"format={args.format!r} must be one of {', '.join(_FORMATS)}")
    return merged


def run(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    handler, _ = _COMMANDS[args.command]
    start = time.perf_counter()
    if handler is _cmd_verify:
        if args.config:
            raise ConfigError("verify takes a suite name, not parameters")
        out = handler(args.suite)
        resolved = {"suite": args.suite}
    else:
        # _merged_params may also route output/format/export from the config
        reader = ParamReader(_merged_params(args))
        out = handler(reader)
        resolved = reader.resolved
    fmt = args.format if args.format is not None else "csv"
    elapsed = time.perf_counter() - start

    report = {
        "command": args.command,
        "parameters": resolved,
        "rows": out.rows,
        "timing_seconds": round(elapsed, 6),
        "version": __version__,
    }
    rendered = render_csv(report) if fmt == "csv" else render_json(report)
    if args.output:
        write_atomic(args.output, rendered)
    else:
        sys.stdout.write(rendered)
    if args.export and out.export_lines is not None:
        write_atomic(args.export, "\n".join(out.export_lines) + "\n")
    elif args.export:
        raise ConfigError(f"{args.command} has nothing to export")
    return out.exit_code


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    except ConfigError as exc:
        print(f"turanext: config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"turanext: invalid value: {exc}", file=sys.stderr)
        return 2
    except SearchCapError as exc:
        print(f"turanext: search cap: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"turanext: internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
