"""Command-line entry point: verification suites, tables, and scan experiments
wired into reproducible JSON/CSV reports.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
from importlib import metadata
from pathlib import Path

import numpy as np

from .characters import MinimalVectorSpec, character_table_rows, enumerate_theta
from .errors import ConfigError, MinvecError
from .global_whittaker import (ArchParams, CoefficientSource, RamifiedData,
                               scan_supnorm)
from .matgroups import TorusSpec, a_mat
from .minimal import convolution_check, exhaustive_fits, whittaker_closed
from .que import conductor_pair, distinguished, que_period, watson_Ip
from .residues import LocalElement, factorize

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


def _resolve(cfg: dict, args: argparse.Namespace, key: str, default=None):
    """Flags win over config file entries; both win over the default."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    return default


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


def _parse_pn_list(text: str) -> list[tuple[int, int]]:
    out = []
    for part in text.split(";"):
        p, n = part.split(",")
        p, n = int(p), int(n)
        if p % 2 == 0:
            raise ConfigError("primes must be odd")
        out.append((p, n))
    return out


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

def cmd_verify(args, cfg) -> int:
    pn_list = _parse_pn_list(_resolve(cfg, args, "pn", "3,1"))
    out = Path(_resolve(cfg, args, "out", "report.json"))
    seed = int(_resolve(cfg, args, "seed", 0))
    results, ok = [], True
    for p, n in pn_list:
        spec = TorusSpec(p, n)
        entry = {"p": p, "n": n}
        try:
            thetas = enumerate_theta(spec)
            entry["theta_count"] = len(thetas)
            mv = MinimalVectorSpec.build(spec, thetas[0])
            entry["a_theta"] = mv.a_theta
            mode = _pair_mode(p, n)
            rep = convolution_check(mv, mode=mode, seed=seed)
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
        ok = ok and entry.get("ok", False)
        results.append(entry)
    _write_report(out, "verify", {"pn": pn_list, "seed": seed}, {"results": results, "ok": ok})
    print(f"verify: {'pass' if ok else 'FAIL'} -> {out}")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_character_table(args, cfg) -> int:
    p = int(_resolve(cfg, args, "p", 3))
    n = int(_resolve(cfg, args, "n", 1))
    idx = int(_resolve(cfg, args, "theta_index", 0))
    out = Path(_resolve(cfg, args, "out", "report.json"))
    samples = Path(_resolve(cfg, args, "samples", "samples.csv"))
    mv = _build_mv(p, n, idx)
    rows = character_table_rows(mv)
    with samples.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "phase_numerator", "phase_denominator"])
        w.writerows(rows)
    _write_report(out, "character-table",
                  {"p": p, "n": n, "theta_index": idx},
                  {"a_theta": mv.a_theta, "entries": len(rows),
                   "samples_file": str(samples)})
    print(f"character-table: {len(rows)} entries -> {samples}")
    return EXIT_OK


def cmd_whittaker(args, cfg) -> int:
    p = int(_resolve(cfg, args, "p", 3))
    n = int(_resolve(cfg, args, "n", 1))
    idx = int(_resolve(cfg, args, "theta_index", 0))
    out = Path(_resolve(cfg, args, "out", "report.json"))
    samples = Path(_resolve(cfg, args, "samples", "samples.csv"))
    mv = _build_mv(p, n, idx)
    M = mv.torus.precision + 2 * n
    rows = []
    for u in range(1, p**n):
        if u % p == 0:
            continue
        y = LocalElement(p, -2 * n, u, M)
        w = whittaker_closed(mv, a_mat(y))
        rows.append([u, -2 * n, w.magnitude if w.in_support else 0.0,
                     str(w.phase.r) if w.in_support else ""])
    with samples.open("w", newline="") as fh:
        wcsv = csv.writer(fh)
        wcsv.writerow(["unit_class", "valuation", "magnitude", "phase"])
        wcsv.writerows(rows)
    support = [r[0] for r in rows if r[2] > 0]
    _write_report(out, "whittaker", {"p": p, "n": n, "theta_index": idx},
                  {"support_unit": mv.support_unit(), "support_classes": support,
                   "magnitude_squared": (p - 1) * p ** (n - 1),
                   "samples_file": str(samples)})
    print(f"whittaker: support classes {support} -> {samples}")
    return EXIT_OK if support == [mv.support_unit()] else EXIT_FAIL


def cmd_matrix_coeff(args, cfg) -> int:
    p = int(_resolve(cfg, args, "p", 3))
    n = int(_resolve(cfg, args, "n", 1))
    idx = int(_resolve(cfg, args, "theta_index", 0))
    out = Path(_resolve(cfg, args, "out", "report.json"))
    seed = int(_resolve(cfg, args, "seed", 0))
    mv = _build_mv(p, n, idx)
    mode = _pair_mode(p, n)
    rep = convolution_check(mv, mode=mode, seed=seed)
    body = {"mode": mode, "pairs": rep.pairs_checked,
            "density": str(rep.density),
            "norm_square": str(rep.norm_square),
            "closure_violations": rep.closure_violations,
            "multiplicativity_violations": rep.multiplicativity_violations,
            "ok": rep.ok}
    _write_report(out, "matrix-coeff", {"p": p, "n": n, "theta_index": idx, "seed": seed}, body)
    print(f"matrix-coeff: {'pass' if rep.ok else 'FAIL'} (delta = {rep.density})")
    return EXIT_OK if rep.ok else EXIT_FAIL


def _coeff_source(text: str) -> CoefficientSource:
    if text == "all-ones":
        return CoefficientSource.all_ones()
    if text.startswith("sato-tate"):
        seed = int(text.split(":", 1)[1]) if ":" in text else 0
        return CoefficientSource.sato_tate(seed)
    if text.startswith("file:"):
        return CoefficientSource.from_file(text.split(":", 1)[1])
    raise ConfigError(f"unknown coefficient source {text!r}")


def cmd_scan_supnorm(args, cfg) -> int:
    N = int(_resolve(cfg, args, "N", 1))
    k = _resolve(cfg, args, "k")
    t = _resolve(cfg, args, "t")
    coeffs_spec = _resolve(cfg, args, "coeffs", "all-ones")
    out = Path(_resolve(cfg, args, "out", "report.json"))
    samples = Path(_resolve(cfg, args, "samples", "samples.csv"))
    if k is not None:
        arch = ArchParams("holomorphic", k=int(k))
    elif t is not None:
        arch = ArchParams("maass", t=float(t))
    else:
        raise ConfigError("need --k (holomorphic) or --t (maass)")
    if N == 1:
        ram = RamifiedData.unramified()
    else:
        mvs = []
        for p, e in factorize(N):
            if p == 2:
                raise ConfigError("N must be odd")
            mvs.append(_build_mv(p, e, 0))
        ram = RamifiedData.build(mvs)
    coeffs = _coeff_source(coeffs_spec)
    rep = scan_supnorm(ram, coeffs, arch, keep_rows=True)
    with samples.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y", "row_sup", "row_witness"])
        w.writerows(rep.rows)
    config = {"N": N, "k": k, "t": t, "coeffs": coeffs_spec}
    _write_report(out, "scan-supnorm", config, {**rep.as_dict(), "samples_file": str(samples)})
    print(f"scan-supnorm: sup={rep.sup:.6g} ratio={rep.ratio:.4g} witness={rep.witness:.6g}")
    return EXIT_OK


def cmd_que(args, cfg) -> int:
    grid = _parse_pn_list(_resolve(cfg, args, "grid", "3,1;5,1;7,1"))
    a3_list = [int(s) for s in str(_resolve(cfg, args, "a3", "0,1,2")).split(",") if s != ""]
    out = Path(_resolve(cfg, args, "out", "report.json"))
    rows = []
    for p, n in grid:
        rep = que_period(TorusSpec(p, n))
        for a3 in a3_list:
            rows.append({**rep.as_dict(),
                         "conductor_pair": conductor_pair(p, n),
                         "Ip_times_cond_sqrt": float(rep.normalized),
                         "a3": a3, "distinguished": distinguished(a3, n),
                         "watson_Ip": [watson_Ip(rep.H).real, watson_Ip(rep.H).imag]})
    _write_report(out, "que", {"grid": grid, "a3": a3_list}, {"rows": rows})
    print(f"que: {len(rows)} rows -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="minvec",
                                 description="local minimal-vector laboratory")
    ap.add_argument("--config", help="key=value configuration file")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run the local verification suites")
    sp.add_argument("--pn", help="semicolon-separated p,n pairs, e.g. '3,1;5,1'")
    sp.add_argument("--out")
    sp.add_argument("--seed", type=int)

    for name in ("character-table", "whittaker", "matrix-coeff"):
        sp = sub.add_parser(name)
        sp.add_argument("--p", type=int)
        sp.add_argument("--n", type=int)
        sp.add_argument("--theta-index", type=int)
        sp.add_argument("--samples")
        sp.add_argument("--out")
        if name == "matrix-coeff":
            sp.add_argument("--seed", type=int)

    sp = sub.add_parser("scan-supnorm")
    sp.add_argument("--N", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--t", type=float)
    sp.add_argument("--coeffs")
    sp.add_argument("--samples")
    sp.add_argument("--out")

    sp = sub.add_parser("que")
    sp.add_argument("--grid")
    sp.add_argument("--a3")
    sp.add_argument("--out")
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
        cfg = _load_config(args.config)
        return _DISPATCH[args.command](args, cfg)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except MinvecError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
