"""Seeded inputs, program calls and exact output checks for the workloads.

A workload is a seeded stream of *passes*, each a list of items, and
the timed loop runs passes until the time is up.  Every pass holds
fresh inputs: within a run no input comes back, except where a
workload says so below.  The generators here are the benchmark's own:
they decide which inputs are valid, which must be rejected and with
which error code, without asking the program.  The program only ever
sees the generated tuples.

Each workload provides:

* ``passes(seed)`` -- an endless iterator of passes, deterministic per
  seed;
* ``warmup(items)`` -- one item per layer the workload touches, taken
  from (or beside) a pass that is then not timed;
* ``run(item)`` -- the program calls for one item, the only timed part;
* ``check(item, result)`` -- exact verdict on the result;
* ``observe(rec, item, result, seed)`` -- extra per-layer measurements
  taken outside the timed call in a traced run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, replace

from g2cm import cli, cm_field, frobenius, oracle, sylow
from g2cm.errors import G2CMError

# ------------------------------------------------------- exact reference

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _squarefree_int(n: int) -> bool:
    if n <= 1:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def weil_exact(p: int, coeffs) -> bool:
    """Whether X⁴ + a3X³ + a2X² + a1X + a0 is a genus-2 Weil polynomial.

    coeffs is low degree first.  Shape a0 = p², a1 = p·a3, monic; then
    |a3| ≤ 4√p and 2|a3|√p − 2p ≤ a2 ≤ a3²/4 + 2p, each decided on
    squared integers.
    """
    a0, a1, a2, a3, lead = coeffs
    if lead != 1 or a0 != p * p or a1 != p * a3:
        return False
    if a3 * a3 > 16 * p or 4 * a2 > a3 * a3 + 8 * p:
        return False
    lower = a2 + 2 * p
    return lower >= 0 and lower * lower >= 4 * a3 * a3 * p


# --------------------------------------------------------------- cm_grid

GRID_D_MAX = 20
GRID_AB_MAX = 8
#: The sweep's ω box.  |cᵢ| ≤ 6 gives the 5518 cases of the test-suite
#: grid; a 20 s run makes about 65k requests, so the sweep goes on to
#: |cᵢ| ≤ 60, about 270k cases, and a run does not revisit an ω.  An
#: item's cost does not depend on the size of its coefficients here.
GRID_C_MAX = 60
#: Grid cases in one pass.
GRID_PASS = 900
#: ω requests of one pass that must be rejected, beyond the grid's own
#: c2 = 0 cases, as a share of all ω requests.
REJECT_SHARE = 0.10
#: ω requests of one pass routed through ``g2cm.cli.main``.  At ~12x the
#: cost of a library call this makes the CLI about a third of the time.
CLI_SHARE = 0.04
CLI_COMMANDS = ("analyze", "charpoly", "field")


class RealQuad:
    """Z + ξZ for one squarefree D, on (x, y) pairs meaning x + yξ."""

    def __init__(self, D: int):
        self.D = D
        self.q0, self.q1 = ((D - 1) // 4, 1) if D % 4 == 1 else (D, 0)

    def mul(self, u, v):
        yy = u[1] * v[1]
        return (u[0] * v[0] + yy * self.q0,
                u[0] * v[1] + u[1] * v[0] + yy * self.q1)

    def trace(self, u) -> int:
        return 2 * u[0] + u[1] * self.q1

    def norm(self, u) -> int:
        return u[0] * u[0] + self.q1 * u[0] * u[1] - self.q0 * u[1] * u[1]

    def totally_positive(self, u) -> bool:
        t = self.trace(u)
        disc = self.D if self.D % 4 == 1 else 4 * self.D
        return t > 0 and t * t > u[1] * u[1] * disc

    def relative_norm(self, t, c):
        """α² + β²·t for ω = (c1 + c2ξ) + (c3 + c4ξ)η, η² = −t."""
        alpha, beta = (c[0], c[1]), (c[2], c[3])
        a2 = self.mul(alpha, alpha)
        b2t = self.mul(self.mul(beta, beta), t)
        return (a2[0] + b2t[0], a2[1] + b2t[1])


def classify_field(D: int, a: int, b: int) -> str:
    """'primitive', 'biquadratic' or the error code validate_field owes."""
    if not _squarefree_int(D):
        return "invalid-discriminant"
    R = RealQuad(D)
    t = (a, b)
    if not R.totally_positive(t):
        return "not-totally-imaginary"
    P, Q = R.trace(t), R.norm(t)
    if b != 0:
        if _is_square(P * P - 4 * Q):
            return "reducible-quartic"
        if _is_square(Q):
            s = math.isqrt(Q)
            if any(u > 0 and _is_square(u) for u in (2 * s - P, -2 * s - P)):
                return "reducible-quartic"
    return "biquadratic" if _is_square(Q) else "primitive"


def field_box():
    """Every (D, a, b) with 2 ≤ D ≤ 20 and |a|, |b| ≤ 8, by class."""
    out: dict[str, list] = {}
    r = range(-GRID_AB_MAX, GRID_AB_MAX + 1)
    for D in range(2, GRID_D_MAX + 1):
        for a in r:
            for b in r:
                out.setdefault(classify_field(D, a, b), []).append((D, a, b))
    return out


def grid_cases(fields, c_max=GRID_C_MAX):
    """Every ω with |cᵢ| ≤ c_max and prime relative norm, per field.

    Yields (D, a, b, (c1, c2, c3, c4), p) in field then coefficient
    order.  α² and β²·t are tabulated once per field and matched on
    the ξ-coordinate, which must cancel.
    """
    cr = range(-c_max, c_max + 1)
    pairs = [(i, j) for i in cr for j in cr]
    for D, a, b in fields:
        R = RealQuad(D)
        by_y: dict[int, list] = {}
        for c34 in pairs:
            x, y = R.mul(R.mul(c34, c34), (a, b))
            by_y.setdefault(y, []).append((c34, x))
        for c12 in pairs:
            x, y = R.mul(c12, c12)
            for c34, bx in by_y.get(-y, ()):
                if is_prime(x + bx):
                    yield (D, a, b, c12 + c34, x + bx)


@dataclass(frozen=True)
class CMItem:
    """One cm_grid request.

    kind is 'lib' (library pipeline), 'cli' (``cli.main`` with cmd) or
    'lemma2' (``verify_lemma2``).  p is the prime norm of a valid ω;
    code is the error code the request must be rejected with.
    """

    kind: str
    cmd: str = ""
    D: int = 0
    a: int = 0
    b: int = 0
    c: tuple[int, int, int, int] = (0, 0, 0, 0)
    p: int = 0
    code: str = ""


def sweep(fields, rng):
    """Grid cases field by field, each field's ω in a seeded order.

    Endless: after the last field it starts again, which a run reaches
    only at about four times today's speed.
    """
    while True:
        for field in fields:
            cases = list(grid_cases([field]))
            rng.shuffle(cases)
            yield from cases


def _random_c(rng):
    return tuple(rng.randint(-GRID_C_MAX, GRID_C_MAX) for _ in range(4))


def _rejected_inputs(rng, box, count, seen):
    """count new requests spread evenly over five rejection classes.

    seen holds the hashes of the requests made so far and is extended.
    The box holds no reducible quartic, so reducible-quartic is absent.
    """
    primitive = box["primitive"]
    out = []
    while len(out) < count:
        kind = len(out) % 5
        c = _random_c(rng)
        if kind == 0:  # c2 ≠ 0 but ωω̄ is not a rational prime
            D, a, b = rng.choice(primitive)
            nx, ny = RealQuad(D).relative_norm((a, b), c)
            if c[1] == 0 or (ny == 0 and is_prime(nx)):
                continue
            item = CMItem("lib", D=D, a=a, b=b, c=c, code="norm-not-prime")
        elif kind == 1:
            D, a, b = rng.choice(primitive)
            c = (c[0], 0, c[2], c[3])
            item = CMItem("lib", D=D, a=a, b=b, c=c, code="c2-zero")
        elif kind == 2:
            D, a, b = rng.choice(box["biquadratic"])
            item = CMItem("lib", D=D, a=a, b=b, c=c, code="not-primitive")
        else:
            code = ("invalid-discriminant", "not-totally-imaginary")[kind - 3]
            D, a, b = rng.choice(box[code])
            item = CMItem("lib", D=D, a=a, b=b, c=c, code=code)
        if hash(item) not in seen:
            seen.add(hash(item))
            out.append(item)
    return out


def _cli_argv(item: CMItem) -> list[str]:
    if item.cmd == "lemma2":
        return ["lemma2"]
    # "-c=<list>": argparse reads "-c -1,2,3,4" as two options.
    argv = [item.cmd, f"-D={item.D}", f"-a={item.a}", f"-b={item.b}"]
    if item.cmd != "field":
        argv.append("-c=" + ",".join(str(x) for x in item.c))
    return argv


def _poly_payload(P) -> dict:
    return {"coeffs_low_first": [str(c) for c in P.coeffs],
            "p": str(P.p), "display": str(P)}


def library_envelope(item: CMItem) -> tuple[dict, int]:
    """The CLI report for item, assembled from direct library calls."""
    if item.cmd == "lemma2":
        inputs = {"rows": False}
    else:
        inputs = {"D": item.D, "a": item.a, "b": item.b}
        if item.cmd != "field":
            inputs["c"] = list(item.c)
    env = {"command": item.cmd, "inputs": inputs}
    try:
        results, code = _library_results(item)
    except G2CMError as exc:
        env.update(results=None, status="error",
                   error={"code": exc.code, "message": exc.message})
        return env, 2
    env.update(results=results, status="ok")
    return env, code


def _library_results(item: CMItem) -> tuple[dict, int]:
    if item.cmd == "lemma2":
        rep = sylow.verify_lemma2()
        return {"row_count": len(rep.rows),
                "expected_row_count": rep.expected_row_count,
                "counterexample_count": len(rep.counterexamples),
                "holds": rep.holds()}, 0 if rep.holds() else 1
    field = cm_field.validate_field(item.D, item.a, item.b)
    if item.cmd == "field":
        P, Q = field.min_poly_coeffs()
        return {"galois_type": field.galois_type.value,
                "primitive": field.primitive(),
                "min_poly": {"P": str(P), "Q": str(Q),
                             "display": f"X^4{P:+d}X^2{Q:+d}"}}, 0
    c1, c2, c3, c4 = item.c
    w = cm_field.FrobeniusElement(c1, c2, c3, c4, field)
    if item.cmd == "analyze":
        v = sylow.analyze(field, w)
        closed = frobenius.char_poly_closed(v.p, c1, c2, item.D)
        prod = frobenius.char_poly_product(w)
        return {"p": str(v.p),
                "char_poly_closed": _poly_payload(closed),
                "char_poly_product": _poly_payload(prod),
                "forms_agree": closed == prod,
                "N": str(v.N), "v_p": v.v,
                "sylow_order": str(v.sylow_order),
                "theorem_holds": v.theorem_holds}, 0 if v.theorem_holds else 1
    prod = frobenius.char_poly_product(w)
    closed = frobenius.char_poly_closed(prod.p, c1, c2, item.D)
    weil = frobenius.weil_validate(prod)
    return {"p": str(prod.p),
            "char_poly_closed": _poly_payload(closed),
            "char_poly_product": _poly_payload(prod),
            "forms_agree": closed == prod,
            "N": str(frobenius.group_order(prod)),
            "weil": {"constant_term_ok": weil.constant_term_ok,
                     "functional_equation_ok": weil.functional_equation_ok,
                     "root_moduli_ok": weil.root_moduli_ok}}, 0


def _lemma2_order(p, D, c1, c2) -> int:
    if D % 4 == 1:
        c = 2 * c1 + c2
        return (1 + p - c) ** 2 - c2 * c2 * D
    return (1 + p - 2 * c1) ** 2 - 4 * c2 * c2 * D


class CMGrid:
    name = "cm_grid"

    def passes(self, seed: int):
        """Passes of GRID_PASS new grid cases, new rejections and CLI calls.

        The sweep visits the 243 fields in a seeded order, so a field
        comes back with each of its ω (as in any sweep) but an ω does
        not.  verify_lemma2 takes no input: its two calls per pass repeat.
        """
        rng = random.Random(f"cm_grid-{seed}")
        box = field_box()
        fields = list(box["primitive"])
        rng.shuffle(fields)
        cases = sweep(fields, rng)
        rejected: set = set()
        n_reject = round(GRID_PASS * REJECT_SHARE / (1 - REJECT_SHARE))
        while True:
            items = [CMItem("lib", D=D, a=a, b=b, c=c, p=p,
                            code="c2-zero" if c[1] == 0 else "")
                     for D, a, b, c, p in itertools.islice(cases, GRID_PASS)]
            items += _rejected_inputs(rng, box, n_reject, rejected)
            rng.shuffle(items)
            chosen = rng.sample(range(len(items)),
                                round(len(items) * CLI_SHARE))
            for k, idx in enumerate(chosen):
                cmd = CLI_COMMANDS[k % len(CLI_COMMANDS)]
                items[idx] = replace(items[idx], kind="cli", cmd=cmd)
            for extra in (CMItem("lemma2"), CMItem("cli", "lemma2")):
                items.insert(rng.randrange(len(items) + 1), extra)
            yield items

    def warmup(self, items):
        lib = next(i for i in items if i.kind == "lib" and not i.code)
        bad = next(i for i in items if i.kind == "lib" and i.code)
        yield lib
        yield bad
        yield CMItem("lemma2")
        for cmd in CLI_COMMANDS + ("lemma2",):
            yield replace(lib, kind="cli", cmd=cmd)

    def run(self, item: CMItem):
        if item.kind == "lemma2":
            return sylow.verify_lemma2()
        if item.kind == "cli":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(_cli_argv(item))
            return code, out.getvalue()
        c1, c2, c3, c4 = item.c
        field = cm_field.validate_field(item.D, item.a, item.b)
        w = cm_field.FrobeniusElement(c1, c2, c3, c4, field)
        verdict = sylow.analyze(field, w)
        closed = frobenius.char_poly_closed(verdict.p, c1, c2, item.D)
        prod = frobenius.char_poly_product(w)
        return verdict, closed, prod, frobenius.weil_validate(prod)

    def check(self, item: CMItem, result) -> bool:
        if isinstance(result, Exception):
            return (item.kind == "lib" and isinstance(result, G2CMError)
                    and result.code == item.code)
        if item.kind == "lemma2":
            return _lemma2_ok(result)
        if item.kind == "cli":
            return _cli_ok(item, result)
        if item.code:
            return False
        verdict, closed, prod, weil = result
        p = item.p
        N = sum(prod.coeffs)
        return (closed == prod and prod.p == p and verdict.p == p
                and verdict.N == N
                and (p == 2 or N % 4 == 0)
                and verdict.sylow_order in (1, p)
                and verdict.sylow_order == p ** verdict.v
                and N % verdict.sylow_order == 0
                and N % (verdict.sylow_order * p) != 0
                and verdict.theorem_holds == (verdict.v <= 1)
                # root_moduli_ok is a float diagnostic that misreads
                # repeated roots (ROADMAP item 4); weil_exact decides.
                and weil.constant_term_ok and weil.functional_equation_ok
                and weil_exact(p, prod.coeffs))

    def observe(self, rec, item, result, seed) -> bool:
        if item.kind == "cli" and isinstance(result, tuple):
            rec.add("cli.json_bytes", len(result[1].encode()))
        return True


def _lemma2_ok(rep) -> bool:
    if not rep.holds() or rep.counterexamples or \
            len(rep.rows) != rep.expected_row_count:
        return False
    for r in rep.rows:
        N = _lemma2_order(r.p, r.D, r.c1, r.c2)
        if (r.N != N or r.div_p != (N % r.p == 0)
                or r.div_p2 != (N % (r.p * r.p) == 0)):
            return False
    return True


def _cli_ok(item: CMItem, result) -> bool:
    code, text = result
    try:
        env = json.loads(text)
    except ValueError:
        return False
    want, want_code = library_envelope(item)
    if env != want or code != want_code:
        return False
    if item.cmd == "analyze":
        if item.code:
            return env["status"] == "error" and env["error"]["code"] == item.code
        return code == 0 and env["results"]["p"] == str(item.p)
    return True


# ---------------------------------------------------------------- oracle

def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmod(a, b, p):
    r = list(a)
    inv = pow(b[-1], p - 2, p)
    while len(_trim(r)) >= len(b):
        q = r[-1] * inv % p
        k = len(r) - len(b)
        for i, bi in enumerate(b):
            r[k + i] = (r[k + i] - q * bi) % p
    return r


def squarefree_mod_p(f, p) -> bool:
    """gcd(f, f') = 1 over F_p, f low degree first with f[-1] ≠ 0."""
    a = list(f)
    b = _trim([i * f[i] % p for i in range(1, len(f))])
    while b:
        a, b = b, _pmod(a, b, p)
    return len(a) == 1


def squarefree_quintic_count(p: int) -> int:
    """Squarefree degree-5 polynomials over F_p: (p − 1)(p⁵ − p⁴)."""
    return (p - 1) * (p ** 5 - p ** 4)


def random_quintics(p: int, count: int, rng) -> list[tuple[int, ...]]:
    """count distinct random squarefree quintics over F_p.

    Refuses a count above the number that exist, so it always ends.
    """
    if count > squarefree_quintic_count(p):
        raise ValueError(f"only {squarefree_quintic_count(p)} squarefree "
                         f"quintics exist over F_{p}, asked for {count}")
    seen: set = set()
    out = []
    while len(out) < count:
        f = tuple(rng.randrange(p) for _ in range(5)) + (rng.randrange(1, p),)
        if f not in seen and squarefree_mod_p(f, p):
            seen.add(f)
            out.append(f)
    return out


def change_coordinates(f, p, lam, mu, nu):
    """ν⁻²·f(λx + μ): the same curve after x ↦ λx + μ, y ↦ νy."""
    acc: list[int] = []
    for c in reversed(f):  # Horner in the polynomial ring
        nxt = [0] * (len(acc) + 1)
        for i, a in enumerate(acc):
            nxt[i] = (nxt[i] + a * mu) % p
            nxt[i + 1] = (nxt[i + 1] + a * lam) % p
        nxt[0] = (nxt[0] + c) % p
        acc = nxt
    s = pow(nu * nu, p - 2, p)
    return tuple(a * s % p for a in _trim(acc))


def _chi_table(p: int) -> list[int]:
    """Legendre symbol of each residue mod p."""
    return [0] + [1 if pow(z, (p - 1) // 2, p) == 1 else -1
                  for z in range(1, p)]


def legendre_count(f, p) -> int:
    """#C(F_p) of y² = f, deg f = 5, by Euler's criterion."""
    chi = _chi_table(p)
    total = 1  # the point at infinity
    for x in range(p):
        z = 0
        for c in reversed(f):
            z = (z * x + c) % p
        total += 1 + chi[z]
    return total


def jacobian_order(f, p) -> int:
    """#Jac(C)(F_p) = P(1) from the point counts over F_p and F_p².

    F_p² is F_p(√r) for a non-residue r; z in it is a square exactly
    when its norm is a square in F_p.
    """
    chi = _chi_table(p)
    r = chi.index(-1)
    n2 = 1
    for a in range(p):
        for b in range(p):
            x0 = x1 = 0  # Horner at a + b√r
            for c in reversed(f):
                x0, x1 = (x0 * a + x1 * b * r + c) % p, (x0 * b + x1 * a) % p
            n2 += 1 + chi[(x0 * x0 - r * x1 * x1) % p]
    s1 = p + 1 - legendre_count(f, p)
    s2 = p * p + 1 - n2
    return 1 - s1 + (s1 * s1 - s2) // 2 - p * s1 + p * p


def p_parts(factors, p):
    out = []
    for n in factors:
        q = 1
        while n % p == 0:
            n //= p
            q *= p
        if q > 1:
            out.append(q)
    return tuple(out)


WARMUP_CURVE = (3, (1, 0, 0, 0, 0, 1), 10)  # y² = x⁵ + 1 over F_3, order 10


class OracleEnumerate:
    """Full pipeline per curve: enumeration, counts, P(X), P(1) == order.

    An item is (p, f, N) with N the group order the benchmark computed
    itself.  Enumeration cost follows the group: at p = 7 from 25 ms for
    order 32 to 145 ms for order 60.  So the passes of a run hold fresh
    curves of the same groups, and the work per pass does not depend on
    the seed.
    """

    def warmup(self, items):
        yield WARMUP_CURVE

    def run(self, item):
        p, f, _ = item
        curve = oracle.GenusTwoCurve(p=p, f=f)
        structure = oracle.enumerate_jacobian(curve)
        n1 = oracle.count_points(curve, 1)
        n2 = oracle.count_points(curve, 2)
        return structure, oracle.char_poly_from_counts(n1, n2, p)

    def check(self, item, result) -> bool:
        if isinstance(result, Exception):
            return False
        p, _, N = item
        s, P = result
        inv = s.invariant_factors
        return (s.order == N == sum(P.coeffs)
                and math.prod(inv) == s.order
                and all(inv[i + 1] % inv[i] == 0 for i in range(len(inv) - 1))
                and s.p_sylow_factors == p_parts(inv, p)
                and weil_exact(p, P.coeffs))

    def observe(self, rec, item, result, seed) -> bool:
        """Time cantor_add on seeded random pairs of enumerated divisors."""
        divisors = rec.last_divisors
        rec.last_divisors = None
        if not divisors:
            return True
        p, f, _ = item
        curve = oracle.GenusTwoCurve(p=p, f=f)
        rng = random.Random(f"cantor-{seed}-{rec.items}")
        pairs = [(rng.choice(divisors), rng.choice(divisors))
                 for _ in range(CANTOR_PAIRS)]
        group = set(divisors)
        add = oracle.cantor_add
        t0 = time.perf_counter_ns()
        sums = [add(d1, d2, curve) for d1, d2 in pairs]
        rec.add("oracle.cantor_add.ns", time.perf_counter_ns() - t0)
        rec.add("oracle.cantor_add.ops", len(pairs))
        return all(d in group for d in sums)


CANTOR_PAIRS = 32

#: Group orders of each pass of oracle_scan at p = 5 and 7.  Squarefree,
#: so the group is cyclic and its order fixes an item's cost to within
#: a few percent (a non-cyclic group of the same order can cost 1.5x);
#: each is about 2% of random curves, so rejection sampling is quick.
#: The pass's median item, order 35 at p = 5, sits between two close
#: costs, which keeps item_ms_p50 steady.
SCAN_ORDERS = {5: (22, 30, 35), 7: (38, 46, 66)}
#: Curves at p = 3 per pass of oracle_scan.
SCAN_P3_PER_PASS = 3


class OracleScan(OracleEnumerate):
    """Random squarefree quintics at p = 3, 5, 7, as 'g2cm scan' draws them.

    At p = 5 and 7 each pass holds one new random curve of each order
    in SCAN_ORDERS; the smallest class, order 35 at p = 5, has 200
    curves, and a run today uses up to 95 of them.  p = 3 has only 324
    squarefree quintics: the run goes through all of them but the
    warm-up curve in a seeded order, SCAN_P3_PER_PASS a pass, and a
    curve comes back only after the other 322 (at today's speed, after
    about two runs).
    """

    name = "oracle_scan"

    def passes(self, seed: int):
        rng = random.Random(f"{self.name}-{seed}")
        p3 = [f for f in random_quintics(3, squarefree_quintic_count(3), rng)
              if f != WARMUP_CURVE[1]]
        p3_cycle = itertools.cycle(p3)
        used: dict = {}
        while True:
            items = [(3, f, jacobian_order(f, 3))
                     for f in itertools.islice(p3_cycle, SCAN_P3_PER_PASS)]
            for p, orders in SCAN_ORDERS.items():
                for N in orders:
                    items.append((p, _curve_of_order(p, N, rng, used), N))
            rng.shuffle(items)
            yield items


#: Draws of used curves of the wanted order after which _curve_of_order
#: takes that order's curves as used up and lets them come back.
USED_UP_AFTER = 100


def _curve_of_order(p, N, rng, used):
    """A new random squarefree quintic over F_p whose Jacobian has order N.

    used maps (p, N) to the curves returned so far and is extended.  A
    class of curves is finite, so once USED_UP_AFTER draws in one call
    hit used curves of order N, nearly all are used: they may come back.
    """
    done = used.setdefault((p, N), set())
    hits = 0
    while True:
        f = random_quintics(p, 1, rng)[0]
        if jacobian_order(f, p) != N:
            continue
        if f in done:
            hits += 1
            if hits >= USED_UP_AFTER:
                done.clear()
            continue
        done.add(f)
        return f


#: Base curves of oracle_large, from the seeded generator's draws:
#: cyclic groups of order 2q for a prime q, among the smallest such
#: orders at each prime: 346 = 2·173 and 358 = 2·179 at p = 23,
#: 458 = 2·229 at p = 29 and 622 = 2·311 at p = 31.  Element orders take
#: ~15 Cantor steps per element (doublings and additions of general
#: divisors, with reduction), 5k-9k per curve, beside the O(p⁴) divisor
#: enumeration.  A curve costs 0.4-1.2 s, so a run times two dozen of
#: them, and three of the four cost about the same, where the median
#: item falls; curves of typical order (1.5-2.5 s) gave too few items
#: for a steady median.
LARGE_BASE_CURVES = (
    (23, (10, 7, 3, 21, 14, 15), 346),
    (23, (0, 2, 9, 15, 19, 19), 358),
    (29, (19, 10, 24, 23, 0, 8), 458),
    (31, (15, 1, 27, 2, 26, 14), 622),
)


class OracleLarge(OracleEnumerate):
    """Each pass: a new change of coordinates of each base curve.

    x ↦ λx + μ, y ↦ νy keeps the group, and so the work, while the
    coefficients are new: at p = 23 there are 22·23·11 = 5566 distinct
    changes, and a run uses a dozen.
    """

    name = "oracle_large"

    def passes(self, seed: int):
        rng = random.Random(f"{self.name}-{seed}")
        seen: set = set()
        while True:
            items = []
            for p, f, N in LARGE_BASE_CURVES:
                g = None
                while g is None or (p, g) in seen:
                    g = change_coordinates(f, p, rng.randrange(1, p),
                                           rng.randrange(p), rng.randrange(1, p))
                seen.add((p, g))
                items.append((p, g, N))
            yield items


class OracleCount:
    """Point counts only: count_points k = 1, 2 and P(X) per curve.

    Each pass holds one new random curve for each prime; the cost of a
    count depends on p alone.
    """

    name = "oracle_count"
    primes = (53, 67, 79)

    def passes(self, seed: int):
        rng = random.Random(f"{self.name}-{seed}")
        seen: set = set()
        while True:
            items = []
            for p in self.primes:
                f = random_quintics(p, 1, rng)[0]
                while (p, f) in seen:
                    f = random_quintics(p, 1, rng)[0]
                seen.add((p, f))
                items.append((p, f))
            yield items

    def warmup(self, items):
        yield WARMUP_CURVE[:2]

    def run(self, item):
        p, f = item
        curve = oracle.GenusTwoCurve(p=p, f=f)
        n1 = oracle.count_points(curve, 1)
        n2 = oracle.count_points(curve, 2)
        return n1, oracle.char_poly_from_counts(n1, n2, p)

    def check(self, item, result) -> bool:
        if isinstance(result, Exception):
            return False
        p, f = item
        n1, P = result
        return n1 == legendre_count(f, p) and weil_exact(p, P.coeffs)

    def observe(self, rec, item, result, seed) -> bool:
        return True


WORKLOADS = {
    "cm_grid": CMGrid(),
    "oracle_scan": OracleScan(),
    "oracle_large": OracleLarge(),
    "oracle_count": OracleCount(),
}
