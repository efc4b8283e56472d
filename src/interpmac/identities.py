"""The check catalog: every supported identity as an executable exact
check with a structured, deterministic report.

Conventions shared by all entries: instances run over every index in
range (compositions of weight <= d, all operator indices, all group
elements); the tolerance is exactly zero.  Values are Scalars in
canonical form or unreduced Quotients: a/b == c/d is decided as
a*d == b*c in Z[gens] and a value is zero when its numerator is, which
is equivalent to structural equality of canonical forms.  A side is
reduced only to print a failing instance, so the report reads the
same either way.  Identities in the evaluation parameter
a run either with symbolic a (when the base field is symbolic) or at
max-a-degree + 2 seeded, pre-flighted rational values of a; the report
records which mode certified the result.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import UsageError
from .interpolation import (FamilyCache, binom, binom_sym, closed_d, closed_e,
                            closed_phi, e_top, g_oracle, g_recursive, gplus,
                            gprime, okounkov, okounkov_ratio_parts, r_sym,
                            reflect, rprime, _point)
from .operators import hecke, sigma_op, sigma_word, symmetrize
from .polyring import LaurentPoly, exact_div_check, shift_all
from .scalars import (Quotient, Scalar, linear_combination_unreduced,
                      seeded_rationals)
from .shapes import (Permutation, all_permutations, coleg_vector, contains,
                     dominant_sort, enumerate_compositions, partitions_upto,
                     rearrangements, sharp, spectral_qt,
                     spectral_r, tau_point, weight)
from .variant import FieldConfig, qt_config, r_config


# ---------------------------------------------------------------------------
# reports and context
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    id: str
    config: dict
    instances: int
    failures: list
    elapsed_ms: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"id": self.id, "config": self.config,
                "instances": self.instances, "failures": self.failures}


def _show(x) -> str:
    if isinstance(x, LaurentPoly):
        return x.pretty()
    return str(x)


class CheckContext:
    """State of one check run.  cfg is the field the check is stated in,
    the first of its catalog fields."""

    def __init__(self, check_id: str, n: int, d: int, qt: FieldConfig,
                 r: FieldConfig, seed, cache: FamilyCache, field: str = "qt"):
        self.check_id = check_id
        self.n = n
        self.d = d
        self.qt = qt
        self.r = r
        self.cfg = {"qt": qt, "r": r}[field]
        self.seed = seed
        self.cache = cache
        self.rng = random.Random(f"{seed}|{check_id}")
        self.failures: list = []
        self.instances = 0
        self.a_certification: Optional[str] = None
        self._max_sampled = 0

    # -- assertions -----------------------------------------------------------

    def eq(self, instance: str, lhs, rhs):
        self.instances += 1
        if lhs != rhs:
            self.failures.append({"instance": instance,
                                  "lhs": _show(lhs), "rhs": _show(rhs)})

    def zero(self, instance: str, value):
        self.instances += 1
        if not value.is_zero():
            self.failures.append({"instance": instance,
                                  "lhs": _show(value), "rhs": "0"})

    def true(self, instance: str, flag: bool):
        self.instances += 1
        if not flag:
            self.failures.append({"instance": instance,
                                  "lhs": "false", "rhs": "true"})

    # -- shared generators ------------------------------------------------------

    def compositions(self, extra: int = 0) -> list:
        return enumerate_compositions(self.n, self.d + extra)

    def random_polys(self, cfg: FieldConfig, count: int = 3,
                     max_deg: int = 2) -> list:
        """Seeded random polynomials with small integer coefficients."""
        monos = enumerate_compositions(self.n, max_deg)
        out = []
        for _ in range(count):
            terms = {}
            while not terms:
                for e in monos:
                    if self.rng.random() < 0.5:
                        c = self.rng.randint(-6, 6)
                        if c:
                            terms[e] = cfg.scalar(c)
            out.append(LaurentPoly(self.n, terms))
        return out

    # -- evaluation parameter handling ---------------------------------------------

    def symbolic_a(self, base: FieldConfig) -> Scalar:
        gens = tuple(g for g in ("q", "t", "r") if g in base.gens()) + ("a",)
        self.a_certification = "symbolic"
        return Scalar.generator("a", gens)

    def a_values(self, base: FieldConfig, k: int,
                 nonzero: Sequence[LaurentPoly] = ()) -> list:
        """Pairs (a, values): either the symbolic a or, per the base
        field, k distinct seeded rationals a that pass the pre-flight, and
        the values of the nonzero polynomials at a acting on the base
        point.  No sampled a makes one of those values zero, so an
        expansion over them never reduces to 0 == 0."""
        origin = base.base_point(self.n) if nonzero else None

        def values(a):
            point = base.act(origin, a) if nonzero else None
            return [p.evaluate(point) for p in nonzero]

        if base.symbolic:
            a = self.symbolic_a(base)
            return [(a, values(a))]
        out = []
        stream = seeded_rationals(self.rng)
        while len(out) < k:
            a = Scalar.from_fraction(next(stream))
            vals = values(a)
            if not any(v.is_zero() for v in vals):
                out.append((a, vals))
        self._max_sampled = max(k, self._max_sampled)
        self.a_certification = f"sampled(k<={self._max_sampled})"
        return out


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _cofactor_products(vals: list) -> list:
    """W_i = product of vals[j] for j != i, without divisions."""
    m = len(vals)
    one = vals[0].__class__.one(vals[0].gens)
    pre = [one] * (m + 1)
    for i in range(m):
        pre[i + 1] = pre[i] * vals[i]
    suf = [one] * (m + 1)
    for i in range(m - 1, -1, -1):
        suf[i] = vals[i] * suf[i + 1]
    return [pre[i] * suf[i + 1] for i in range(m)]


def _scaled_unreduced(f: LaurentPoly, c: Scalar) -> LaurentPoly:
    """f.scale(c) with every coefficient left an unreduced Quotient."""
    if c.is_zero():
        return LaurentPoly.zero(f.n)
    return LaurentPoly(f.n, {e: Quotient.of(x) * c for e, x in f.terms.items()},
                       _clean=True)


def _check_expansion(ctx: CheckContext, instance: str, lhs: LaurentPoly,
                     pos: int, terms: list, dens: list):
    """lhs / dens[pos] == sum_j c_j P_j / dens[j] over terms = [(P_j, c_j)],
    checked with the denominators cleared: lhs W_pos == sum_j c_j W_j P_j,
    W_j the product of the dens other than dens[j], monomial by monomial
    on unreduced coefficients."""
    cof = _cofactor_products(dens)
    rhs = LaurentPoly(ctx.n, linear_combination_unreduced(
        [c * w for (_, c), w in zip(terms, cof)], [p.terms for p, _ in terms]),
        _clean=True)
    ctx.eq(instance, _scaled_unreduced(lhs, cof[pos]), rhs)


def _check_nonvanishing(ctx: CheckContext, label: str, down: list,
                        dens: list):
    for b, v in zip(down, dens):
        ctx.true(f"{label}={b}", not v.is_zero())


def _down_set(alpha: tuple, n: int) -> list:
    """All beta contained in alpha (beta <= |alpha|), graded-lex order."""
    return [b for b in enumerate_compositions(n, weight(alpha))
            if contains(alpha, b)]


def _swap(v: tuple, i: int) -> tuple:
    out = list(v)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def check_hecke_quadratic(ctx: CheckContext):
    cfg = ctx.qt
    t = cfg.gen("t")
    for fi, f in enumerate(ctx.random_polys(cfg)):
        for i in range(1, ctx.n):
            u = hecke(i, f, cfg) + f
            v = hecke(i, u, cfg) - u.scale(t)
            ctx.zero(f"f#{fi}, i={i}", v)


def check_hecke_braid(ctx: CheckContext):
    cfg = ctx.qt
    for fi, f in enumerate(ctx.random_polys(cfg)):
        for i in range(1, ctx.n - 1):
            lhs = hecke(i, hecke(i + 1, hecke(i, f, cfg), cfg), cfg)
            rhs = hecke(i + 1, hecke(i, hecke(i + 1, f, cfg), cfg), cfg)
            ctx.eq(f"f#{fi}, i={i}", lhs, rhs)
        for i in range(1, ctx.n):
            for j in range(i + 2, ctx.n):
                lhs = hecke(i, hecke(j, f, cfg), cfg)
                rhs = hecke(j, hecke(i, f, cfg), cfg)
                ctx.eq(f"f#{fi}, commute i={i}, j={j}", lhs, rhs)


def check_sigma_braid(ctx: CheckContext):
    cfg = ctx.r
    perms = list(all_permutations(ctx.n))
    for fi, f in enumerate(ctx.random_polys(cfg)):
        for i in range(1, ctx.n):
            ctx.eq(f"f#{fi}, involution i={i}",
                   sigma_op(i, sigma_op(i, f, cfg), cfg), f)
        for i in range(1, ctx.n - 1):
            lhs = sigma_op(i, sigma_op(i + 1, sigma_op(i, f, cfg), cfg), cfg)
            rhs = sigma_op(i + 1, sigma_op(i, sigma_op(i + 1, f, cfg), cfg), cfg)
            ctx.eq(f"f#{fi}, braid i={i}", lhs, rhs)
        for _ in range(2):
            u = perms[ctx.rng.randrange(len(perms))]
            v = perms[ctx.rng.randrange(len(perms))]
            lhs = sigma_word(u * v, f, cfg)
            rhs = sigma_word(u, sigma_word(v, f, cfg), cfg)
            ctx.eq(f"f#{fi}, sigma({u.word})sigma({v.word})", lhs, rhs)


def check_eigen(ctx: CheckContext):
    cfg = ctx.cfg
    for alpha in ctx.compositions():
        g = g_recursive(alpha, cfg, ctx.cache)
        bar = cfg.bar(alpha)
        for i in range(1, ctx.n + 1):
            ctx.eq(f"alpha={alpha}, i={i}", cfg.xi(i, g),
                   g.scale(cfg.eigenvalue(bar, i)))


def check_discr(ctx: CheckContext):
    cfg = ctx.cfg
    base = cfg.base_point(ctx.n)
    fs = ctx.random_polys(cfg, count=2)
    for a, _ in ctx.a_values(cfg, k=max(f.total_degree() for f in fs) + 3):
        for fi, f in enumerate(fs):
            pf = cfg.raise_op(f)
            xf = [cfg.exchange_op(i, f) for i in range(1, ctx.n)]
            for v in ctx.compositions():
                bar = cfg.bar(v)
                pt = cfg.act(bar, a)
                lhs = pf.evaluate(pt)
                # the raising operator's factor x_n - tau_n (x_n - rho_n)
                rhs = (pt[-1] - base[-1]) * f.evaluate(
                    cfg.act(cfg.bar(sharp(v)), a))
                ctx.eq(f"raise: f#{fi}, v={v}, a={a}", lhs, rhs)
                fv = f.evaluate(pt)
                for i in range(1, ctx.n):
                    c_v, c_swap = cfg.discr_exchange(bar, i)
                    lhs = xf[i - 1].evaluate(pt)
                    rhs = c_v * fv + c_swap * f.evaluate(
                        cfg.act(cfg.bar(_swap(v, i)), a))
                    ctx.eq(f"exchange: f#{fi}, v={v}, i={i}, a={a}", lhs, rhs)


def check_recur_oracle(ctx: CheckContext):
    for alpha in ctx.compositions():
        ctx.eq(f"alpha={alpha}",
               g_recursive(alpha, ctx.cfg, ctx.cache),
               g_oracle(alpha, ctx.cfg, ctx.cache))


def check_vanish_extra(ctx: CheckContext):
    cfg = ctx.qt
    for alpha in ctx.compositions():
        g = g_recursive(alpha, cfg, ctx.cache)
        for beta in ctx.compositions(extra=1):
            if beta == alpha or contains(beta, alpha):
                continue
            ctx.zero(f"alpha={alpha}, beta={beta}",
                     g.evaluate(_point("bar", beta, cfg, ctx.cache)))


def check_spectral_closed_form(ctx: CheckContext):
    cfg = ctx.qt
    for alpha in ctx.compositions():
        bar = spectral_qt(alpha, cfg)
        ks = coleg_vector(alpha)
        for i in range(ctx.n):
            want = cfg.gen_power("q", alpha[i]) * cfg.gen_power("t", -ks[i])
            ctx.eq(f"alpha={alpha}, i={i+1}", bar[i], want)


def check_eval(ctx: CheckContext):
    cfg = ctx.cfg
    base = cfg.base_point(ctx.n)
    for alpha in ctx.compositions():
        g = g_recursive(alpha, cfg, ctx.cache)
        d_a = closed_d(alpha, cfg)
        e_a = closed_e(alpha, cfg)
        for a, _ in ctx.a_values(cfg, k=weight(alpha) + 2):
            lhs = d_a * g.evaluate(cfg.act(base, a))
            rhs = e_a * closed_phi(alpha, cfg, a)
            ctx.eq(f"alpha={alpha}, a={a}", lhs, rhs)


def check_inva(ctx: CheckContext):
    cfg = ctx.qt
    tau = tau_point(ctx.n, cfg)
    perms = list(all_permutations(ctx.n))
    for alpha in ctx.compositions():
        d_a = closed_d(alpha, cfg)
        g_a = g_recursive(alpha, cfg, ctx.cache)
        for a, _ in ctx.a_values(cfg, k=weight(alpha) + 2):
            base = d_a * g_a.evaluate(tau.scale(a))
            for w in perms:
                beta = w.act(alpha)
                val = closed_d(beta, cfg) * g_recursive(
                    beta, cfg, ctx.cache).evaluate(tau.scale(a))
                ctx.eq(f"alpha={alpha}, w={w.word}, a={a}", val, base)


def check_zerosp(ctx: CheckContext):
    cfg = ctx.qt
    origin = (cfg.zero(),) * ctx.n
    for alpha in ctx.compositions():
        lhs = closed_d(alpha, cfg) * g_recursive(
            alpha, cfg, ctx.cache).evaluate(origin)
        rhs = closed_e(alpha, cfg) * closed_phi(alpha, cfg, 0)
        ctx.eq(f"alpha={alpha}", lhs, rhs)


def check_derecur(ctx: CheckContext):
    cfg = ctx.cfg
    perms = list(all_permutations(ctx.n))
    for alpha in ctx.compositions():
        bar = cfg.bar(alpha)
        if alpha[-1] > 0:
            sa = sharp(alpha)
            d_ratio, e_ratio, phi0_ratio = cfg.derecur_raise(alpha, bar, ctx.n)
            ctx.eq(f"d-raise alpha={alpha}", closed_d(alpha, cfg),
                   d_ratio * closed_d(sa, cfg))
            ctx.eq(f"e-raise alpha={alpha}", closed_e(alpha, cfg),
                   e_ratio * closed_e(sa, cfg))
            if phi0_ratio is not None:
                ctx.eq(f"phi0-raise alpha={alpha}", closed_phi(alpha, cfg, 0),
                       phi0_ratio * closed_phi(sa, cfg, 0))
        for i in range(1, ctx.n):
            if alpha[i - 1] > alpha[i]:
                lf, rf = cfg.derecur_exchange(bar, i)
                ctx.eq(f"d-exchange alpha={alpha}, i={i}",
                       closed_d(alpha, cfg) * lf,
                       rf * closed_d(_swap(alpha, i), cfg))
        e_a = closed_e(alpha, cfg)
        for w in perms:
            beta = w.act(alpha)
            ctx.eq(f"e-invariance alpha={alpha}, w={w.word}",
                   closed_e(beta, cfg), e_a)
        for a, _ in ctx.a_values(cfg, k=weight(alpha) + 2):
            phi_a = closed_phi(alpha, cfg, a)
            for w in perms:
                beta = w.act(alpha)
                ctx.eq(f"phi-invariance alpha={alpha}, w={w.word}, a={a}",
                       closed_phi(beta, cfg, a), phi_a)


def check_oko(ctx: CheckContext):
    """Reciprocity, symbolically in a: construct the interpolating
    polynomial from the ratios at degree <= |alpha|, then verify it
    reproduces the ratio (denominator-cleared) at every gamma up to
    two degrees higher."""
    cfg = ctx.cfg
    kind = cfg.o_kind
    a = ctx.symbolic_a(cfg)
    for alpha in ctx.compositions():
        deg = weight(alpha)
        o = okounkov(alpha, cfg, a, ctx.cache)
        for gamma in enumerate_compositions(ctx.n, deg + 2):
            num_g, den_g = okounkov_ratio_parts(alpha, gamma, cfg, a,
                                                ctx.cache)
            lhs = o.evaluate_unreduced(_point(kind, gamma, cfg, ctx.cache))
            ctx.eq(f"alpha={alpha}, gamma={gamma}", lhs * den_g, num_g)


def check_binom(ctx: CheckContext):
    cfg = ctx.cfg
    for alpha in ctx.compositions():
        down = _down_set(alpha, ctx.n)
        g_a = g_recursive(alpha, cfg, ctx.cache)
        gs = [g_recursive(b, cfg, ctx.cache) for b in down]
        gps = [gprime(b, cfg, ctx.cache) for b in down]
        coefs = [binom(alpha, b, cfg, ctx.cache, inverted=cfg.binom_inverted)
                 for b in down]
        for a, dens in ctx.a_values(cfg, k=weight(alpha) + 2, nonzero=gs):
            terms = [(gp, cfg.binom_weight(a, weight(b)) * c)
                     for b, gp, c in zip(down, gps, coefs)]
            _check_expansion(ctx, f"alpha={alpha}, a={a}", cfg.act_all(g_a, a),
                             down.index(alpha), terms, dens)


def check_binom_sym_r(ctx: CheckContext):
    cfg = ctx.r
    for lam in partitions_upto(ctx.n, ctx.d):
        down = [m for m in partitions_upto(ctx.n, weight(lam))
                if contains(lam, m)]
        r_l = r_sym(lam, cfg, ctx.cache)
        rs = [r_sym(m, cfg, ctx.cache) for m in down]
        rps = [rprime(m, cfg, ctx.cache) for m in down]
        coefs = [binom_sym(lam, m, cfg, ctx.cache) for m in down]
        for a, dens in ctx.a_values(cfg, k=weight(lam) + 2, nonzero=rs):
            _check_expansion(ctx, f"lambda={lam}, a={a}", shift_all(r_l, a),
                             down.index(lam), list(zip(rps, coefs)), dens)


def _check_cor(ctx: CheckContext, where: str, point: tuple, den_family,
               basis_family, lhs: Callable):
    """lhs(alpha)/D_alpha(point) == sum over beta inside alpha of
    [alpha,beta] B_beta(x)/D_beta(point), D the den family and B the basis
    family, once the D_beta(point) are seen to be nonzero."""
    cfg = ctx.cfg
    inverted = cfg.binom_inverted
    for alpha in ctx.compositions():
        down = _down_set(alpha, ctx.n)
        dens = [den_family(b, cfg, ctx.cache).evaluate(point) for b in down]
        _check_nonvanishing(ctx, f"nonvanishing at {where}: beta", down, dens)
        terms = [(basis_family(b, cfg, ctx.cache),
                  binom(alpha, b, cfg, ctx.cache, inverted=inverted))
                 for b in down]
        _check_expansion(ctx, f"alpha={alpha}", lhs(alpha, cfg, ctx.cache),
                         down.index(alpha), terms, dens)


def check_cor_first(ctx: CheckContext):
    _check_cor(ctx, "0", (ctx.cfg.zero(),) * ctx.n, g_recursive, e_top,
               g_recursive)


def check_cor_gprime(ctx: CheckContext):
    _check_cor(ctx, "tau", tau_point(ctx.n, ctx.cfg), e_top, gprime, e_top)


def check_cor_las(ctx: CheckContext):
    _check_cor(ctx, "ones", (ctx.cfg.one(),) * ctx.n, e_top, e_top,
               lambda alpha, cfg, cache: shift_all(e_top(alpha, cfg, cache),
                                                   cfg.one()))


def check_cor_plus(ctx: CheckContext):
    cfg = ctx.r
    wo = Permutation.longest(ctx.n)
    for alpha in ctx.compositions():
        down = _down_set(alpha, ctx.n)
        gs = [g_recursive(b, cfg, ctx.cache) for b in down]
        terms = [(gplus(b, cfg, ctx.cache).permute_vars(wo),
                  binom(alpha, b, cfg, ctx.cache)) for b in down]
        for a, dens in ctx.a_values(cfg, k=weight(alpha) + 2, nonzero=gs):
            shifted = shift_all(g_recursive(alpha, cfg, ctx.cache), a)
            _check_expansion(ctx, f"alpha={alpha}, a={a}",
                             sigma_word(wo, shifted, cfg), down.index(alpha),
                             terms, dens)


def check_cor_rel(ctx: CheckContext):
    cfg = ctx.r
    for alpha in ctx.compositions():
        lam, _ = dominant_sort(alpha)
        for mu in partitions_upto(ctx.n, ctx.d):
            total = None
            for beta in rearrangements(mu):
                term = binom(alpha, beta, cfg, ctx.cache)
                total = term if total is None else total + term
            ctx.eq(f"alpha={alpha}, mu={mu}", total,
                   binom_sym(lam, mu, cfg, ctx.cache))


def check_relate(ctx: CheckContext):
    cfg = ctx.r
    wo = Permutation.longest(ctx.n)
    for alpha in ctx.compositions():
        h = reflect(g_recursive(alpha, cfg, ctx.cache), weight(alpha), cfg)
        ctx.eq(f"alpha={alpha}", gprime(alpha, cfg, ctx.cache),
               sigma_word(wo, h.permute_vars(wo), cfg))


def check_relate2(ctx: CheckContext):
    cfg = ctx.r
    for lam in partitions_upto(ctx.n, ctx.d):
        ctx.eq(f"lambda={lam}", rprime(lam, cfg, ctx.cache),
               reflect(r_sym(lam, cfg, ctx.cache), weight(lam), cfg))


def check_dom(ctx: CheckContext):
    cfg = ctx.r
    wo = Permutation.longest(ctx.n)
    r = cfg.gen("r")
    for beta in ctx.compositions():
        neg = tuple(-x for x in reversed(beta))
        _, w_neg = dominant_sort(neg)
        _, w_b = dominant_sort(beta)
        ctx.eq(f"w-conjugation beta={beta}", w_neg.word,
               (wo * w_b * wo).word)
        tl = cfg.tilde(beta)
        lhs = tuple(-tl[ctx.n - 1 - i] for i in range(ctx.n))
        bar = spectral_r(beta, cfg)
        rhs = tuple(bar[i] + r * (ctx.n - 1) for i in range(ctx.n))
        ctx.eq(f"reflection beta={beta}", lhs, rhs)


def check_sym_lemma(ctx: CheckContext):
    cfg = ctx.r
    for fi, f in enumerate(ctx.random_polys(cfg)):
        sf = symmetrize(f, cfg)
        for i in range(1, ctx.n):
            ctx.eq(f"f#{fi}, output symmetric i={i}", sf.swap_adjacent(i), sf)
            ctx.eq(f"f#{fi}, projector i={i}",
                   symmetrize(sigma_op(i, f, cfg), cfg), sf)


def check_symm_lemma(ctx: CheckContext):
    cfg = ctx.r
    for alpha in ctx.compositions():
        lam, _ = dominant_sort(alpha)
        r_l = r_sym(lam, cfg, ctx.cache)
        rp_l = rprime(lam, cfg, ctx.cache)
        g_a = g_recursive(alpha, cfg, ctx.cache)
        gp_a = gprime(alpha, cfg, ctx.cache)
        for a, (val_r, val_g) in ctx.a_values(cfg, k=weight(alpha) + 2,
                                              nonzero=(r_l, g_a)):
            lhs = _scaled_unreduced(symmetrize(shift_all(g_a, a), cfg), val_r)
            rhs = _scaled_unreduced(shift_all(r_l, a), val_g)
            ctx.eq(f"shifted: alpha={alpha}, a={a}", lhs, rhs)
            lhs = _scaled_unreduced(symmetrize(gp_a, cfg), val_r)
            rhs = _scaled_unreduced(rp_l, val_g)
            ctx.eq(f"primed: alpha={alpha}, a={a}", lhs, rhs)


def check_sym_binomial(ctx: CheckContext):
    cfg = ctx.r
    ones = (cfg.one(),) * ctx.n
    for lam in partitions_upto(ctx.n, ctx.d):
        down = [m for m in partitions_upto(ctx.n, weight(lam))
                if contains(lam, m)]
        tops = [r_sym(m, cfg, ctx.cache).top_part(weight(m)) for m in down]
        dens = [p.evaluate(ones) for p in tops]
        _check_nonvanishing(ctx, "nonvanishing at ones: mu", down, dens)
        pos = down.index(lam)
        terms = [(p, binom_sym(lam, m, cfg, ctx.cache))
                 for m, p in zip(down, tops)]
        _check_expansion(ctx, f"lambda={lam}", shift_all(tops[pos], cfg.one()),
                         pos, terms, dens)


def check_jack_eval_one(ctx: CheckContext):
    cfg = ctx.r
    ones = (cfg.one(),) * ctx.n
    for alpha in ctx.compositions():
        lhs = closed_d(alpha, cfg) * e_top(alpha, cfg, ctx.cache).evaluate(ones)
        ctx.eq(f"alpha={alpha}", lhs, closed_e(alpha, cfg))


def check_binom_sum_support(ctx: CheckContext):
    for alpha in ctx.compositions():
        for beta in ctx.compositions():
            if weight(beta) > weight(alpha) or contains(alpha, beta):
                continue
            ctx.zero(f"qt: alpha={alpha}, beta={beta}",
                     binom(alpha, beta, ctx.qt, ctx.cache))
            ctx.zero(f"qt-inverted: alpha={alpha}, beta={beta}",
                     binom(alpha, beta, ctx.qt, ctx.cache, inverted=True))
            ctx.zero(f"r: alpha={alpha}, beta={beta}",
                     binom(alpha, beta, ctx.r, ctx.cache))


def check_divided_difference(ctx: CheckContext):
    cfg = ctx.qt
    for fi, f in enumerate(ctx.random_polys(cfg)):
        for i in range(1, ctx.n):
            ctx.true(f"f#{fi}, i={i}",
                     exact_div_check(f, f.divided_difference(i), i))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckDef:
    id: str
    statement: str
    formula: str
    fields: tuple  # which of qt / r the check draws on
    fn: Callable


_CATALOG_ROWS = [
    ("hecke-quadratic", "Hecke operators satisfy the quadratic relation",
     "(H_i - t)(H_i + 1) f = 0", ("qt",), check_hecke_quadratic),
    ("hecke-braid", "Hecke operators satisfy the braid relations",
     "H_i H_{i+1} H_i = H_{i+1} H_i H_{i+1}", ("qt",), check_hecke_braid),
    ("sigma-braid", "sigma operators give a symmetric-group representation",
     "sigma_i^2 = 1, sigma_i sigma_{i+1} sigma_i = sigma_{i+1} sigma_i "
     "sigma_{i+1}, sigma(uv) = sigma(u) sigma(v)", ("r",), check_sigma_braid),
    ("eigen-qt", "interpolation polynomials are joint eigenfunctions",
     "Xi_i G_alpha = bar(alpha)_i^{-1} G_alpha", ("qt",), check_eigen),
    ("eigen-r", "the r-variant eigen-equations",
     "Xi~_i G_alpha = bar(alpha)(r)_i G_alpha", ("r",), check_eigen),
    ("discr-qt", "operator evaluations at scaled spectral points",
     "Phi f(a v-bar) = (a v-bar_n - t^{1-n}) f(a (v#)-bar); two-term "
     "H_i evaluation rule", ("qt",), check_discr),
    ("discr-r", "operator evaluations at shifted spectral points",
     "Phi~ f(a + v-bar) = (a + v-bar_n + nr - r) f(a + (v#)-bar); two-term "
     "sigma_i evaluation rule", ("r",), check_discr),
    ("recur-oracle-qt", "recursion equals the vanishing-condition solve",
     "G via raising/exchange recursion == G via exact linear solve",
     ("qt",), check_recur_oracle),
    ("recur-oracle-r", "r-variant recursion equals the solve",
     "G via raising/exchange recursion == G via exact linear solve",
     ("r",), check_recur_oracle),
    ("vanish-extra", "vanishing beyond the defining degree",
     "G_alpha(beta-bar) = 0 unless alpha fits inside beta",
     ("qt",), check_vanish_extra),
    ("spectral-closed-form", "spectral coordinates in closed form",
     "bar(alpha)_i = q^{alpha_i} t^{-k_i}", ("qt",),
     check_spectral_closed_form),
    ("eval-qt", "principal evaluation in product form",
     "d_alpha G_alpha(a tau) = e_alpha phi_alpha(a)", ("qt",), check_eval),
    ("eval-r", "r-variant principal evaluation",
     "d_alpha(r) G_alpha(a + rho) = e_alpha(r) phi_alpha(a; r)", ("r",),
     check_eval),
    ("inva", "d-weighted principal values are symmetric in the index",
     "d_{w alpha} G_{w alpha}(a tau) = d_alpha G_alpha(a tau)", ("qt",),
     check_inva),
    ("zerosp", "principal evaluation at the origin",
     "d_alpha G_alpha(0) = e_alpha phi_alpha(0)", ("qt",), check_zerosp),
    ("derecur", "scalar ratio recursions for d, e, phi",
     "d_alpha/d_{alpha#} = 1 - t^n bar(alpha)_n and companions", ("qt",),
     check_derecur),
    ("derecur2", "r-variant scalar ratio recursions",
     "d_alpha(r)/d_{alpha#}(r) = rn + bar(alpha)(r)_n = e ratio", ("r",),
     check_derecur),
    ("oko-qt", "reciprocity: one polynomial interpolates all ratios",
     "O_alpha(beta-bar^{-1}) = G_beta(a alpha~)/G_beta(a tau) also at "
     "|beta| = |alpha|+1, |alpha|+2", ("qt",), check_oko),
    ("oko-r", "r-variant reciprocity",
     "O_alpha(beta-bar) = G_beta(a + alpha~)/G_beta(a + rho) also at "
     "|beta| = |alpha|+1, |alpha|+2", ("r",), check_oko),
    ("binom-qt", "the binomial expansion of scaled polynomials",
     "G_alpha(ax)/G_alpha(a tau) = sum over beta inside alpha of a^{|beta|} "
     "[alpha,beta]_{1/q,1/t} G'_beta(x)/G_beta(a tau)", ("qt",),
     check_binom),
    ("binom-r", "the r-variant binomial expansion",
     "G_alpha(a+x)/G_alpha(a+rho) = sum [alpha,beta]_r G'_beta(x)/"
     "G_beta(a+rho)", ("r",), check_binom),
    ("binom-sym-r", "the symmetric r-variant binomial expansion",
     "R_lambda(a+x)/R_lambda(a+rho) = sum (lambda,mu)_r R'_mu(x)/"
     "R_mu(a+rho)", ("r",), check_binom_sym_r),
    ("cor-first", "binomial expansion at a = 0",
     "G_alpha(x)/G_alpha(0) = sum [alpha,beta]_{1/q,1/t} E_beta(x)/"
     "G_beta(0)", ("qt",), check_cor_first),
    ("cor-gprime", "binomial expansion of the top parts",
     "E_alpha(x)/E_alpha(tau) = sum [alpha,beta]_{1/q,1/t} G'_beta(x)/"
     "E_beta(tau)", ("qt",), check_cor_gprime),
    ("cor-las", "the shifted expansion of Jack top parts",
     "E_alpha(1+x)/E_alpha(1) = sum [alpha,beta]_r E_beta(x)/E_beta(1)",
     ("r",), check_cor_las),
    ("cor-plus", "the reflected r-variant expansion",
     "sigma(w_o) G_alpha(a+x)/G_alpha(a+rho) = sum [alpha,beta]_r "
     "w_o G+_beta(x)/G_beta(a+rho)", ("r",), check_cor_plus),
    ("cor-rel", "nonsymmetric binomials sum to symmetric ones",
     "sum over rearrangements beta of mu of [alpha,beta]_r = "
     "(lambda,mu)_r", ("r",), check_cor_rel),
    ("relate", "primed family as a reflected image",
     "G'_alpha(x) = (-1)^{|alpha|} sigma(w_o) w_o G_alpha(-x-(n-1)r)",
     ("r",), check_relate),
    ("relate2", "symmetric primed family as a reflected image",
     "R'_lambda(x) = (-1)^{|lambda|} R_lambda(-x-(n-1)r)", ("r",),
     check_relate2),
    ("dom", "reflection of spectral data",
     "w_{-w_o beta} = w_o w_beta w_o and -w_o beta~ = beta-bar + (n-1)r",
     ("r",), check_dom),
    ("sym-lemma", "the averaged operator projects onto symmetric polynomials",
     "S f is symmetric and S sigma_i = S", ("r",), check_sym_lemma),
    ("symm-lemma", "symmetrization matches the symmetric family",
     "S G_alpha(a+x)/G_alpha(a+rho) = R_lambda(a+x)/R_lambda(a+rho), and "
     "primed analogue", ("r",), check_symm_lemma),
    ("sym-binomial-OO", "classical symmetric binomial formula for top parts",
     "P_lambda(1+x)/P_lambda(1) = sum (lambda,mu)_r P_mu(x)/P_mu(1)",
     ("r",), check_sym_binomial),
    ("jack-eval-one", "top parts evaluated at the all-ones point",
     "d_alpha(r) E_alpha(1) = e_alpha(r)", ("r",), check_jack_eval_one),
    ("binom-sum-support", "binomials vanish off the containment order",
     "[alpha,beta] = 0 whenever beta does not fit inside alpha", ("qt", "r"),
     check_binom_sum_support),
    ("divided-difference", "exact division by the root difference",
     "(1 - s_i) f is divisible by x_i - x_{i+1}", ("qt",),
     check_divided_difference),
]

CATALOG = {row[0]: CheckDef(*row) for row in _CATALOG_ROWS}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_check(check_id: str, n: int, d: int, seed=0,
              cache: Optional[FamilyCache] = None,
              qt: Optional[FieldConfig] = None,
              r: Optional[FieldConfig] = None) -> CheckReport:
    """Execute one catalog entry over every instance in range."""
    cdef = CATALOG.get(check_id)
    if cdef is None:
        raise UsageError(f"unknown check id {check_id!r}")
    fields = {"qt": qt or qt_config(2, 3), "r": r or r_config()}
    cache = cache if cache is not None else FamilyCache()
    ctx = CheckContext(check_id, n, d, fields["qt"], fields["r"], seed, cache,
                       field=cdef.fields[0])
    start = time.perf_counter()
    cdef.fn(ctx)
    elapsed = (time.perf_counter() - start) * 1000.0
    config = {"n": n, "deg": d, "seed": str(seed),
              "field": {f: fields[f].describe() for f in cdef.fields}}
    if ctx.a_certification:
        config["a_certification"] = ctx.a_certification
    return CheckReport(check_id, config, ctx.instances, ctx.failures, elapsed)
