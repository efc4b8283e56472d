"""Command-line surface: compute families, run checks, list the
catalog, manage the disk cache.

Exit codes: 0 success, 1 identity failure, 2 usage error,
3 specialization collision, 141 (128 + SIGPIPE) when the reader closes
standard output early, as in `interpmac check all --json | head`.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from fractions import Fraction
from functools import partial

from .errors import (DivisionByZero, InterpmacError, SpecializationCollision,
                     UsageError)
from .identities import CATALOG, run_check
from .interpolation import (FamilyCache, binom, binom_sym, closed_d, closed_e,
                            closed_phi, disk_cache_files, e_top,
                            g_recursive, gplus, gprime, okounkov, r_sym,
                            rprime)
from .polyring import LaurentPoly
from .scalars import Scalar, dumps_canonical
from .variant import FieldConfig, qt_config, r_config

# The families of `compute`: the options each reads besides its index
# ("lambda" when it is a partition) and its builder, which looks its
# constructor up when called, so a patched or traced one is what runs.
FAMILIES = {
    "G": ((), lambda i, cfg, cache: g_recursive(i, cfg, cache)),
    "E": ((), lambda i, cfg, cache: e_top(i, cfg, cache)),
    "Gprime": ((), lambda i, cfg, cache: gprime(i, cfg, cache)),
    "Gplus": ((), lambda i, cfg, cache: gplus(i, cfg, cache)),
    "R": (("lambda",), lambda i, cfg, cache: r_sym(i, cfg, cache)),
    "Rprime": (("lambda",), lambda i, cfg, cache: rprime(i, cfg, cache)),
    "O": (("a",), lambda i, cfg, cache, a: okounkov(i, cfg, a, cache)),
    "binom": (("beta", "inverted"),
              lambda i, cfg, cache, beta: binom(i, beta, cfg, cache)),
    "binom-sym": (("lambda", "mu"),
                  lambda i, cfg, cache, mu: binom_sym(i, mu, cfg, cache)),
    "d": ((), lambda i, cfg, cache: closed_d(i, cfg)),
    "e": ((), lambda i, cfg, cache: closed_e(i, cfg)),
    "phi": (("a",), lambda i, cfg, cache, a: closed_phi(i, cfg, a)),
}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _index(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad index {text!r}; expected comma-separated "
                         f"integers") from exc


# options taking an exact rational, which may be negative
RATIONAL_OPTIONS = ("--q", "--t", "--r", "--a")


def _attach_rational_values(argv: list) -> list:
    """Rewrite `--r -1/2` as `--r=-1/2`: argparse reads a value that
    starts with '-' and is not a plain number as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in RATIONAL_OPTIONS and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="interpmac",
        description="Exact interpolation Macdonald/Jack polynomial "
                    "calculator and identity checker")
    sub = top.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="construct one family member")
    comp.add_argument("family", choices=FAMILIES)
    comp.add_argument("--n", type=int, default=None,
                      help="number of variables (default: index length)")
    comp.add_argument("--alpha", help="composition index, e.g. 0,2,1")
    comp.add_argument("--lambda", dest="lam", help="partition index")
    comp.add_argument("--beta", help="lower binomial index")
    comp.add_argument("--mu", help="lower symmetric binomial index")
    comp.add_argument("--variant", choices=("qt", "r"), default="qt")
    comp.add_argument("--symbolic", action="store_true",
                      help="force symbolic parameters (default when no "
                           "values are given)")
    comp.add_argument("--q", help="specialize q")
    comp.add_argument("--t", help="specialize t")
    comp.add_argument("--r", help="specialize r")
    comp.add_argument("--a", help="specialize the evaluation parameter a")
    comp.add_argument("--inverted", action="store_true",
                      help="binomial at reciprocal q, t")
    comp.add_argument("--json", action="store_true")
    comp.add_argument("--pretty", action="store_true")
    comp.add_argument("--cache-dir")

    chk = sub.add_parser("check", help="run catalog checks")
    chk.add_argument("id", help="check id or 'all'")
    chk.add_argument("--n", type=int, default=2)
    chk.add_argument("--deg", type=int, default=None,
                     help="degree bound (default 4 for n<=2, else 3)")
    chk.add_argument("--seed", default="0")
    chk.add_argument("--jobs", type=int, default=1)
    chk.add_argument("--symbolic", action="store_true",
                     help="symbolic q,t for the qt-side checks")
    chk.add_argument("--q", help="specialize q (default 2)")
    chk.add_argument("--t", help="specialize t (default 3)")
    chk.add_argument("--r", help="specialize r (default: symbolic)")
    chk.add_argument("--json", action="store_true",
                     help="one canonical JSON report per line")
    chk.add_argument("--timings", action="store_true",
                     help="include elapsed_ms in JSON reports (breaks "
                          "byte-for-byte reproducibility)")
    chk.add_argument("--cache-dir")

    lst = sub.add_parser("list-checks", help="list the catalog")
    lst.add_argument("--json", action="store_true")
    lst.add_argument("--filter", help="substring filter on check ids")

    cache = sub.add_parser("cache", help="inspect or clear the disk cache")
    cache.add_argument("action", choices=("info", "clear"))
    cache.add_argument("--cache-dir")
    return top


def _cache_dir(args) -> str | None:
    return getattr(args, "cache_dir", None) or os.environ.get("CACHE_DIR")


def _reject_options(args, names, reason: str):
    """A usage error naming the first given option of names: the field
    or family chosen would otherwise drop it without a word.  A flag
    counts as given when it is set."""
    for name in names:
        if getattr(args, name) not in (None, False):
            raise UsageError(f"--{name} does not apply {reason}")


def _compute_configs(args) -> FieldConfig:
    if args.symbolic:
        _reject_options(args, ("q", "t", "r"), "with --symbolic")
    _reject_options(args, ("r",) if args.variant == "qt" else ("q", "t"),
                    f"to the {args.variant} variant")
    if args.variant == "r":
        return r_config() if args.r is None else r_config(_fraction(args.r))
    if args.q is None and args.t is None:
        return qt_config()
    if args.q is None or args.t is None:
        raise UsageError("specialized qt needs both --q and --t")
    return qt_config(_fraction(args.q), _fraction(args.t))


def _a_scalar(args, cfg: FieldConfig) -> Scalar:
    if args.a is not None:
        return Scalar.from_fraction(_fraction(args.a))
    return Scalar.generator("a", cfg.gens() + ("a",))


def _lower_index(args, name: str, family: str, upper: tuple,
                 upper_option: str) -> tuple:
    """The lower index of a binomial; it must be as long as the upper."""
    text = getattr(args, name)
    if text is None:
        raise UsageError(f"{family} needs --{name}")
    lower = _index(text)
    if len(lower) != len(upper):
        raise UsageError(f"--{name} has length {len(lower)} but "
                         f"{upper_option} has length {len(upper)}")
    return lower


def cmd_compute(args) -> int:
    family = args.family
    options, build = FAMILIES[family]
    if args.json and args.pretty:
        raise UsageError("--json and --pretty are mutually exclusive")
    _reject_options(args, [name for name in ("a", "inverted", "beta", "mu")
                           if name not in options], f"to family {family}")
    cfg = _compute_configs(args)
    cache = FamilyCache(_cache_dir(args))
    if args.alpha is not None and args.lam is not None:
        raise UsageError("--alpha and --lambda are mutually exclusive")
    if "lambda" in options and args.lam is None:
        raise UsageError(f"family {family} takes its partition as --lambda")
    raw_option = "--lambda" if args.lam is not None else "--alpha"
    raw = args.lam if args.lam is not None else args.alpha
    if raw is None:
        raise UsageError(f"family {family} needs --alpha or --lambda")
    index = _index(raw)
    n = args.n if args.n is not None else len(index)
    if n != len(index):
        raise UsageError(f"--n {n} does not match index length {len(index)}")

    result: dict = {"family": family, "variant": cfg.variant,
                    "index": list(index), "config": cfg.describe()}
    values: dict = {}
    for name in options:
        if name == "a":
            values["a"] = _a_scalar(args, cfg)
            result["a"] = str(values["a"])
        elif name == "inverted":
            result["inverted"] = bool(args.inverted)
        elif name in ("beta", "mu"):
            values[name] = _lower_index(args, name, family, index, raw_option)
            result[name] = list(values[name])
    value = build(index, cfg.with_inverted() if args.inverted else cfg,
                  cache, **values)

    is_poly = isinstance(value, LaurentPoly)
    if args.json:
        result["poly" if is_poly else "scalar"] = value.to_json()
        print(dumps_canonical(result))
    else:
        print(value.pretty() if is_poly else str(value))
    return 0


def _check_configs(args) -> tuple:
    if args.symbolic:
        _reject_options(args, ("q", "t"), "with --symbolic")
        qt = qt_config()
    else:
        q = _fraction(args.q) if args.q is not None else Fraction(2)
        t = _fraction(args.t) if args.t is not None else Fraction(3)
        qt = qt_config(q, t)
    r = r_config(_fraction(args.r)) if args.r is not None else r_config()
    return qt, r


# A pool worker's one cache, kept across its checks.  Only the pool
# initializer sets it, so no command leaves a cache in the caller.
_worker_cache = None


def _init_worker(cache_dir):
    global _worker_cache
    _worker_cache = FamilyCache(cache_dir)


def _report_worker(check_id: str, n: int, d: int, seed: str,
                   qt: FieldConfig, r: FieldConfig, cache=None):
    return run_check(check_id, n, d, seed=seed, qt=qt, r=r,
                     cache=_worker_cache if cache is None else cache)


def _emit_report(report, as_json: bool, timings: bool):
    rep = report.to_json()
    if timings:
        rep["elapsed_ms"] = round(report.elapsed_ms, 3)
    if as_json:
        print(dumps_canonical(rep), flush=True)
    else:
        status = "ok  " if report.passed else "FAIL"
        line = f"{status} {rep['id']:22s} instances={rep['instances']}"
        if timings:
            line += f" elapsed={report.elapsed_ms:.0f}ms"
        if not report.passed:
            first = rep["failures"][0]
            line += f"  first failure: {first['instance']}"
        print(line, flush=True)


def cmd_check(args) -> int:
    ids = list(CATALOG) if args.id == "all" else [args.id]
    for check_id in ids:
        if check_id not in CATALOG:
            raise UsageError(f"unknown check id {check_id!r}")
    n = args.n
    d = args.deg if args.deg is not None else (4 if n <= 2 else 3)
    if d < 0:
        raise UsageError(f"--deg must be >= 0, got {d}")
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    qt, r = _check_configs(args)
    cache_dir = _cache_dir(args)
    cache = FamilyCache(cache_dir)  # an unusable directory fails here
    # built here, so that it calls the module's current _report_worker
    run = partial(_report_worker, n=n, d=d, seed=str(args.seed), qt=qt, r=r)

    pool = None
    if args.jobs > 1 and len(ids) > 1:
        # imported here: multiprocessing costs every other command start-up
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=min(args.jobs, len(ids)),
                                   initializer=_init_worker,
                                   initargs=(cache_dir,))
    all_passed = True
    try:
        for report in (pool.map(run, ids) if pool
                       else map(partial(run, cache=cache), ids)):
            _emit_report(report, args.json, args.timings)
            all_passed &= report.passed
    finally:
        if pool:
            # on an early exit (closed pipe, interrupt) start no more checks
            pool.shutdown(cancel_futures=True)
    return 0 if all_passed else 1


def cmd_list_checks(args) -> int:
    rows = [{"id": cdef.id, "statement": cdef.statement,
             "formula": cdef.formula}
            for cdef in CATALOG.values()
            if not args.filter or args.filter in cdef.id]
    if args.json:
        print(dumps_canonical(rows))
    else:
        for row in rows:
            print(f"{row['id']:22s} {row['statement']}")
            print(f"{'':22s}   {row['formula']}")
    return 0


def cmd_cache(args) -> int:
    root = _cache_dir(args)
    if not root:
        raise UsageError("cache command needs --cache-dir or CACHE_DIR")
    path = pathlib.Path(root)
    current, stale = disk_cache_files(path)
    if args.action == "info":
        size = lambda files: sum(f.stat().st_size for f in files)
        print(f"{len(current)} cached polynomials, {size(current)} bytes, "
              f"at {path}; {len(stale)} stale files, {size(stale)} bytes")
    else:
        for f in current + stale:
            f.unlink(missing_ok=True)
        print(f"removed {len(current)} cached polynomials and "
              f"{len(stale)} stale files from {path}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_rational_values(
            sys.argv[1:] if argv is None else list(argv)))
        if args.command == "compute":
            code = cmd_compute(args)
        elif args.command == "check":
            code = cmd_check(args)
        elif args.command == "list-checks":
            code = cmd_list_checks(args)
        else:
            code = cmd_cache(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send the rest of the output, including the
        # interpreter's final flush, to devnull and stop quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a process killed by the signal
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SpecializationCollision, DivisionByZero) as exc:
        print(f"specialization error: {exc}", file=sys.stderr)
        return 3
    except InterpmacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: index too deep for the recursive construction "
              "(Python recursion limit reached)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
