"""Command-line entry point: verification suites, tables, and scan experiments
wired into reproducible JSON/CSV reports.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import platform
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

from .characters import MinimalVectorSpec, character_table_rows, enumerate_theta
from .errors import ConfigError, MinvecError
from .global_whittaker import (ArchParams, CoefficientSource, RamifiedData,
                               scan_supnorm)
from .matgroups import Mat2Local, TorusSpec
from .minimal import convolution_check, exhaustive_fits, whittaker_unit_sweep
from .que import conductor_pair, distinguished, que_period
from .residues import _require_odd_prime, factorize

EXIT_OK, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2


def _load_config(path: str | None) -> dict:
    """Key-value config file: 'key = value' lines, '#' comments."""
    if path is None:
        return {}
    cfg = {}
    try:
        for line in Path(path).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"malformed config line: {line!r}")
            k, v = line.split("=", 1)
            cfg[k.strip()] = v.strip()
    except OSError as e:
        raise ConfigError(str(e)) from e
    return cfg


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _versions() -> dict:
    """Python, NumPy and SciPy versions; SciPy's from its installed metadata,
    so that writing a report does not import it."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": metadata.version("scipy")}


def _write_report(path: Path, command: str, config: dict, body: dict) -> None:
    doc = {"command": command, "config": config,
           "config_hash": _config_hash(config), "versions": _versions(), **body}
    path.write_text(json.dumps(doc, indent=2, default=str) + "\n")


def _odd_prime(text) -> int:
    p = int(text)
    _require_odd_prime(p)
    return p


def _depth(text) -> int:
    n = int(text)
    if n < 1:
        raise ValueError(f"level n must be >= 1, got {n}")
    return n


def _seed(text) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _odd_level(text) -> int:
    N = int(text)
    if N < 1 or N % 2 == 0:
        raise ValueError(f"N must be a positive odd integer, got {N}")
    return N


def _finite(text) -> float:
    t = float(text)
    if not math.isfinite(t):
        raise ValueError(f"must be finite, got {t}")
    return t


def _parse_pn_list(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(";"):
        p, n = part.split(",")
        out.append((_odd_prime(p), _depth(n)))
    return out


def _parse_int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s != ""]


def _pair_mode(p: int, n: int) -> str:
    """The pair-scan mode: exhaustive where it fits, random sampling beyond."""
    return "exhaustive" if exhaustive_fits(p, n) else "random"


def _build_mv(p: int, n: int, theta_index: int) -> MinimalVectorSpec:
    spec = TorusSpec(p, n)
    thetas = enumerate_theta(spec)
    if not 0 <= theta_index < len(thetas):
        raise ConfigError(f"theta index {theta_index} out of range (0..{len(thetas)-1})")
    return MinimalVectorSpec.build(spec, thetas[theta_index])


# -- subcommands --------------------------------------------------------------
#
# Each takes its option values (a namespace, see OPTIONS) and returns
# (passed, body, summary, samples): whether it passed, the report body, a
# one-line summary, and its CSV as (header, rows) or None.  main writes every
# file and prints the summary.

def cmd_verify(o):
    """run the local verification suites"""
    results, ok = [], True
    for p, n in o.pn:
        spec = TorusSpec(p, n)
        entry = {"p": p, "n": n}
        try:
            thetas = enumerate_theta(spec)
            entry["theta_count"] = len(thetas)
            mv = MinimalVectorSpec.build(spec, thetas[0])
            entry["a_theta"] = mv.a_theta
            mode = _pair_mode(p, n)
            rep = convolution_check(mv, mode=mode, seed=o.seed)
            entry["convolution"] = {
                "mode": mode, "pairs": rep.pairs_checked,
                "closure_violations": rep.closure_violations,
                "multiplicativity_violations": rep.multiplicativity_violations,
                "density": str(rep.density),
                "normalized_density": str(rep.density * p ** (2 * n)),
            }
            entry["ok"] = rep.ok
        except MinvecError as e:
            entry["ok"] = False
            entry["error"] = str(e)
            entry["error_type"] = type(e).__name__
        ok = ok and entry.get("ok", False)
        results.append(entry)
    return ok, {"results": results, "ok": ok}, f"{'pass' if ok else 'FAIL'} -> {o.out}", None


def cmd_character_table(o):
    """theta table to CSV"""
    mv = _build_mv(o.p, o.n, o.theta_index)
    rows = character_table_rows(mv)
    return (True, {"a_theta": mv.a_theta, "entries": len(rows)},
            f"{len(rows)} entries -> {o.samples}",
            (["x", "y", "phase_numerator", "phase_denominator"], rows))


def cmd_whittaker(o):
    """closed-form Whittaker support profile"""
    p, n = o.p, o.n
    mv = _build_mv(p, n, o.theta_index)
    sweep = whittaker_unit_sweep(mv, Mat2Local.identity(p, mv.torus.precision + 2 * n))
    rows = [[u, -2 * n, w.magnitude if w.in_support else 0.0,
             str(w.phase.r) if w.in_support else ""] for u, w in sweep]
    support = [u for u, w in sweep if w.in_support]
    body = {"support_unit": mv.support_unit(), "support_classes": support,
            "magnitude_squared": mv.magnitude_squared}
    return (support == [mv.support_unit()], body, f"support classes {support} -> {o.samples}",
            (["unit_class", "valuation", "magnitude", "phase"], rows))


def cmd_matrix_coeff(o):
    """idempotent matrix coefficient (convolution) report"""
    mv = _build_mv(o.p, o.n, o.theta_index)
    mode = _pair_mode(o.p, o.n)
    rep = convolution_check(mv, mode=mode, seed=o.seed)
    body = {"mode": mode, "pairs": rep.pairs_checked,
            "density": str(rep.density),
            "norm_square": str(rep.norm_square),
            "closure_violations": rep.closure_violations,
            "multiplicativity_violations": rep.multiplicativity_violations,
            "ok": rep.ok}
    return rep.ok, body, f"{'pass' if rep.ok else 'FAIL'} (delta = {rep.density})", None


def _coeff_source(text: str) -> CoefficientSource:
    kind, _, arg = text.partition(":")
    try:
        if text == "all-ones":
            return CoefficientSource.all_ones()
        if kind == "sato-tate":
            return CoefficientSource.sato_tate(int(arg or 0))
        if kind == "file":
            return CoefficientSource.from_file(arg)
    except (ValueError, OSError) as e:
        raise ConfigError(f"coefficient source {text!r}: {e}") from e
    raise ConfigError(f"unknown coefficient source {text!r}")


def cmd_scan_supnorm(o):
    """global sup-norm scan against C^(1/8) k^(1/4)"""
    if o.k is not None and o.t is not None:
        raise ConfigError("give --k (holomorphic) or --t (maass), not both")
    if o.k is not None:
        arch = ArchParams("holomorphic", k=o.k)
    elif o.t is not None:
        arch = ArchParams("maass", t=o.t)
    else:
        raise ConfigError("need --k (holomorphic) or --t (maass)")
    ram = RamifiedData.build([_build_mv(p, e, 0) for p, e in factorize(o.N)])
    rep = scan_supnorm(ram, _coeff_source(o.coeffs), arch, keep_rows=True)
    return (True, rep.as_dict(),
            f"sup={rep.sup:.6g} ratio={rep.ratio:.4g} witness={rep.witness:.6g}",
            (["y", "row_sup", "row_witness"], rep.rows))


def cmd_que(o):
    """QUE period normalization table"""
    rows = []
    for p, n in o.grid:
        rep = que_period(TorusSpec(p, n))
        for a3 in o.a3:
            rows.append({**rep.as_dict(),
                         "conductor_pair": conductor_pair(p, n),
                         "Ip_times_cond_sqrt": float(rep.normalized),
                         "a3": a3, "distinguished": distinguished(a3, n)})
    return True, {"rows": rows}, f"{len(rows)} rows -> {o.out}", None


# -- options ------------------------------------------------------------------
#
# Every option of every subcommand, declared once as (name, converter,
# default).  The name is the config-file key and, with '_' written '-', the
# flag.  The converter turns whichever value wins (the flag, else the config
# file, else the default) into what the subcommand reads, and raises
# ValueError for a value out of its range; a default of None stays None.
# The report's config is every option but the output paths.

_OUT = ("out", Path, "report.json")
_SAMPLES = ("samples", Path, "samples.csv")
_OUTPUT_PATHS = ("out", "samples")
_LOCAL = [("p", _odd_prime, 3), ("n", _depth, 1), ("theta_index", int, 0)]

OPTIONS = {
    "verify": [("pn", _parse_pn_list, "3,1"), ("seed", _seed, 0), _OUT],
    "character-table": [*_LOCAL, _OUT, _SAMPLES],
    "whittaker": [*_LOCAL, _OUT, _SAMPLES],
    "matrix-coeff": [*_LOCAL, ("seed", _seed, 0), _OUT],
    "scan-supnorm": [("N", _odd_level, 1), ("k", int, None), ("t", _finite, None),
                     ("coeffs", str, "all-ones"), _OUT, _SAMPLES],
    "que": [("grid", _parse_pn_list, "3,1;5,1;7,1"), ("a3", _parse_int_list, "0,1,2"), _OUT],
}


def _options(args: argparse.Namespace, cfg: dict) -> dict:
    """The subcommand's option values in OPTIONS order: flags win over config
    file entries, both over the default.  A value its converter rejects is a
    ConfigError naming the option."""
    values = {}
    for name, convert, default in OPTIONS[args.command]:
        raw = getattr(args, name)
        if raw is None:
            raw = cfg.get(name, default)
        try:
            values[name] = None if raw is None else convert(raw)
        except ValueError as e:
            raise ConfigError(f"option {name} = {raw!r}: {e}") from e
    return values


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="minvec",
                                 description="local minimal-vector laboratory")
    ap.add_argument("--config", help="key=value configuration file")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        sp = sub.add_parser(command, help=_DISPATCH[command].__doc__)
        for name, _, default in options:
            sp.add_argument("--" + name.replace("_", "-"), help=f"default: {default}")
    return ap


_DISPATCH = {
    "verify": cmd_verify,
    "character-table": cmd_character_table,
    "whittaker": cmd_whittaker,
    "matrix-coeff": cmd_matrix_coeff,
    "scan-supnorm": cmd_scan_supnorm,
    "que": cmd_que,
}


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        values = _options(args, _load_config(args.config))
        o = argparse.Namespace(**values)
        passed, body, summary, samples = _DISPATCH[args.command](o)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MinvecError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_FAIL
    if samples is not None:
        header, rows = samples
        with o.samples.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)
        body = {**body, "samples_file": str(o.samples)}
    config = {k: v for k, v in values.items() if k not in _OUTPUT_PATHS}
    _write_report(o.out, args.command, config, body)
    print(f"{args.command}: {summary}")
    return EXIT_OK if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
