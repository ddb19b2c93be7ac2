"""The four workloads: inputs from the seed, library set-up, and the round
of checked operations.

A workload's round is one fixed list of operations.  Its make-up of
operation shapes does not depend on the seed; the seed only chooses which
instance of each shape runs (which pair, which twist of a class, which
datum) and the order, so runs with different seeds do the same kind and
amount of work.  A run repeats the same round, each time against a fresh
import of the library, so every repeat does the same work from the same
cold state.  Each operation carries its own check, computed by `oracle`
from the benchmark's inputs, by a digest committed in `expected.json`, or
by the documented CLI contract.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import oracle as O
import spans
from reference import timed

ENUM_CAP = 1_000_000     # explicit cap= on every enumeration
TABLE_CAP = 1_000_000    # explicit cap= on every group-algebra and table call
REPEAT_SHARE = 0.3       # query: share of operations that reuse an earlier key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"   # bytecode, spec files and child spans


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Op:
    """One timed operation: `call` runs the library, `check` returns None
    when the answer is right and a reason when it is not."""

    __slots__ = ("kind", "key", "call", "check", "known")

    def __init__(self, kind, key, call, check, known=None):
        self.kind, self.key, self.call, self.check = kind, key, call, check
        self.known = known  # the failure reason of a known defect this input hits


def check(op, result):
    """None if the op's answer is right, else the reason it is not."""
    try:
        return op.check(result)
    except Exception as exc:  # a checker that cannot read the answer fails the op
        return f"check raised {type(exc).__name__}: {exc}"


def run_ops(ops, defer=False):
    """Closed loop, one client: each op starts when the previous one and
    its check are done.  With `defer` the answers are kept and checked
    after the loop, so a traced pass does not trace its checks.  Returns
    (latency of each op, failures, kept answers)."""
    latencies, failures, kept = [], [], []
    for op in ops:
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an unexpected exception is a failed op
            latencies.append(perf_counter() - t0)
            failures.append((op, f"{type(exc).__name__}: {exc}"))
        else:
            latencies.append(perf_counter() - t0)
            if defer:
                kept.append((op, result))
            elif reason := check(op, result):
                failures.append((op, reason))
            del result
    return latencies, failures, kept


def import_library():
    """A fresh import of the library from src/: new modules, empty caches."""
    for name in [m for m in sys.modules if m == "qsubgroups" or m.startswith("qsubgroups.")]:
        del sys.modules[name]
    pkg = importlib.import_module("qsubgroups")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "qsubgroups":
        raise BenchError(f"qsubgroups imported from {pkg.__file__}, not from src/")
    return SimpleNamespace(**spans.library_modules())


def child_env():
    """Environment of every child: the library from src/, bytecode in CACHE."""
    return {"PYTHONPATH": str(ROOT / "src"), "PYTHONPYCACHEPREFIX": str(CACHE / "pycache"),
            "PYTHONHASHSEED": "0", "LC_ALL": "C.UTF-8"}


class InProcess:
    """A workload whose operations call the library in this process."""

    rusage_who = resource.RUSAGE_SELF   # whose peak memory is peak_rss_mb

    def setup(self, L):
        """The library calls made before the first op: one twist per datum."""
        for dt in self.data:
            dt.tw = L.twist.require_twist(L.lie.cartan_matrix(dt.type, dt.n), dt.y)

    def verify_setup(self, L):
        for dt in self.data:
            if dt.tw.cd.A.to_lists() != dt.a or list(dt.tw.cd.d) != dt.d:
                return f"Cartan datum of {dt.label} differs from the benchmark's"
        return None

    def load(self):
        """Import the library afresh and make the set-up calls; returns it."""
        L = import_library()
        self.setup(L)
        return L

    def setup_seconds(self):
        """One `load` in a fresh interpreter (setup_child.py), so no garbage
        or warm state of an earlier import is timed; seconds at the
        reference speed."""
        out = subprocess.run([sys.executable, str(HERE / "setup_child.py"), self.name,
                              str(self.seed), str(int(self.tiny))], env=child_env(),
                             cwd=ROOT, capture_output=True, check=True, timeout=120)
        return float(out.stdout)

    def traced_pass(self):
        """One round against a fresh import with every layer wrapped.
        Returns (latencies, failures, kept answers, span snapshot, extra
        metrics)."""
        L = self.load()
        tracer = spans.Tracer(spans.library_modules())
        tracer.install()
        try:
            lat, failures, kept = run_ops(self.round(L), defer=True)
        finally:
            tracer.uninstall()
        spans.check_pristine(spans.library_modules())
        return lat, failures, kept, tracer.snapshot(), {}

    def notes(self):
        return []

    def known_defects(self):
        return []


def subsets(n):
    return [tuple(i + 1 for i in range(n) if m >> i & 1) for m in range(1 << n)]


def pairs(n):
    return [(p, m) for p in subsets(n) for m in subsets(n)]


def random_antisymmetric(rng, n):
    """A nonzero antisymmetric matrix with entries in {-1, 0, 1}."""
    k = [[0] * n for _ in range(n)]
    while not any(map(any, k)):
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-1, 1)
                k[i][j], k[j][i] = v, -v
    return k


def c3_family(a, b, c):
    rows = [[a + Fraction(b, 2), -a + Fraction(c, 2), -Fraction(b, 2) - Fraction(c, 2)],
            [2 * a + b, -a + c, -Fraction(b, 2) - c],
            [2 * a + Fraction(3 * b, 2), -a + Fraction(3 * c, 2), -Fraction(b, 2) - c]]
    return [[int(x) for x in row] for row in rows]


B2_CRIT7 = [[-1, 2], [-1, 1]]   # the B2 bound-2 twist of acceptance criterion 7
A2_BOUND4 = ([[-1, 2], [-2, 1]], [[1, -2], [2, -1]])
G2_TWISTS = ([[-3, 2], [-6, 3]], [[3, -2], [6, -3]], [[-6, 4], [-12, 6]],
             [[6, -4], [12, -6]])


class Datum:
    """A twist given by its own parameter matrix; `tw` is filled by set-up."""

    def __init__(self, label, lie_type, n, y):
        self.label, self.type, self.n = label, lie_type, n
        self.a = O.cartan(lie_type, n)
        self.d = O.symmetrizers(self.a)
        self.y = y if y is not None else [[0] * n for _ in range(n)]
        if O.dx_asymmetry(self.a, self.d, self.y):
            raise ValueError(f"benchmark input {label} is not a valid twist")
        self.tw = None


def k_twist(rng, lie_type, n):
    a = O.cartan(lie_type, n)
    y = O.twist_from_antisymmetric(a, O.symmetrizers(a), random_antisymmetric(rng, n))
    return Datum(f"{lie_type}{n}:K{y}", lie_type, n, y)


# ---------------------------------------------------------------------------
# classify

class Classify(InProcess):
    name = "classify"

    def __init__(self, seed, tiny, expected):
        rng = random.Random(seed)
        self.seed, self.tiny, self.expected = seed, tiny, expected

        def zero(lie_type, n):
            return Datum(f"{lie_type}{n}:0", lie_type, n, None)

        c3 = Datum("C3:c3(1,2,0)", "C", 3, c3_family(1, 2, 0))
        b2 = Datum("B2:crit7", "B", 2, B2_CRIT7)
        a2 = Datum("A2:b4", "A", 2, A2_BOUND4[0])
        g2 = Datum("G2:tw", "G", 2, rng.choice(G2_TWISTS))
        self.rank4 = [k_twist(rng, "A", 4), zero("D", 4)]
        self.composite9 = [c3, zero("A", 3)]
        self.composite15 = [zero("A", 2), b2, a2]
        self.rank3 = [zero("A", 3), c3, k_twist(rng, "A", 3), zero("C", 3)]
        self.rank2 = [zero("G", 2), g2, b2, a2, zero("A", 2), zero("B", 2)]
        # C4 bound 1 (about 1 s) stays out: it would outweigh the pairs.
        self.searches = [("A", 4, 1), ("D", 4, 1), ("C", 3, 2), ("G", 2, 2),
                         ("B", 3, 2), ("A", 3, 2), ("B", 2, 3)]
        everything = self.rank4 + self.composite9 + self.composite15 + self.rank3 + self.rank2
        self.data = list({id(dt): dt for dt in everything}.values())

    def round(self, L):
        """One pair of each rank-4 datum at ell=5 (about 1 s each; they carry
        most of the time), one pair of each datum at ell=9 and ell=15, five
        pairs of each rank-3 datum and three of each rank-2 datum at each of
        ell=3, 5, 7, and each twist search once: 131 ops.  Pairs are drawn
        without replacement, so no key (twist, ell, I+, I-) repeats."""
        rng = random.Random(self.seed * 7919 + 1)
        picks = []

        def draw(data, ell, count):
            for dt in data:
                if dt.type == "G" and ell % 3 == 0:
                    continue
                picks.extend((dt, ell, pr) for pr in rng.sample(pairs(dt.n), count))

        if self.tiny:
            draw(self.rank3[:1], 5, 1)
            draw(self.rank2[:1], 7, 1)
            draw(self.composite15[:1], 15, 1)
            searches = [("G", 2, 2)]
        else:
            draw(self.rank4, 5, 1)
            draw(self.composite9, 9, 1)
            draw(self.composite15, 15, 1)
            for ell in (3, 5, 7):
                draw(self.rank3, ell, 5)
                draw(self.rank2, ell, 3)
            searches = self.searches
        ops = [self.pair_op(L, *p) for p in picks] + [self.search_op(L, *s) for s in searches]
        rng.shuffle(ops)
        return ops

    def pair_op(self, L, dt, ell, pair):
        iplus, iminus = pair
        tw = dt.tw
        key = f"{dt.label}|{ell}|{list(iplus)}|{list(iminus)}"

        def call():
            return L.datum.enumerate_triples(tw, ell, fixed_pair=(iplus, iminus),
                                             cap=ENUM_CAP)

        def check(recs):
            rows = O.coefficient_rows(dt.y, ell, iplus, iminus)
            for rec in recs:
                if (tuple(rec.iplus), tuple(rec.iminus)) != (iplus, iminus):
                    return "record for another pair"
                if not O.kills(rows, rec.N.generators, ell):
                    return f"N {rec.N.generators} is not in the character kernel"
                if rec.dims.sigma_order * rec.N.order != ell**dt.n:
                    return "|Sigma| * |N| != ell^n"
            if O.is_prime(ell):
                k = dt.n - O.rank_mod_p(rows, ell)
                want = O.subgroup_count(k, ell)
                return None if len(recs) == want else \
                    f"{len(recs)} triples, Gaussian-binomial count is {want}"
            want = self.expected["classify"].get(key)
            got = O.digest(triple_rows(recs))
            return None if got == want else f"digest {got} != committed {want}"

        return Op("enumerate_triples", key, call, check)

    def search_op(self, L, lie_type, n, bound):
        key = f"{lie_type}{n}|{bound}"
        a = O.cartan(lie_type, n)
        d = O.symmetrizers(a)

        def call():
            cd = L.lie.cartan_matrix(lie_type, n)
            return list(L.twist.enumerate_valid_twists(cd, bound, limit=None))

        def check(found):
            ys = [t.Y.to_lists() for t in found]
            if not ys or any(map(any, ys[0])):
                return "the zero twist is not first"
            if len({json.dumps(y) for y in ys}) != len(ys):
                return "repeated twist"
            if any(O.dx_asymmetry(a, d, y) for y in ys):
                return "a returned twist has D X not antisymmetric"
            want = self.expected["search"].get(key)
            return None if len(ys) == want else f"{len(ys)} twists, committed {want}"

        return Op("enumerate_valid_twists", key, call, check)

    def capture(self, L):
        """Digests of every composite-level pair this workload can draw."""
        out = {}
        for dt in self.composite9 + self.composite15:
            ell = 9 if dt in self.composite9 else 15
            for iplus, iminus in pairs(dt.n):
                recs = L.datum.enumerate_triples(dt.tw, ell, fixed_pair=(iplus, iminus),
                                                 cap=ENUM_CAP)
                out[f"{dt.label}|{ell}|{list(iplus)}|{list(iminus)}"] = \
                    O.digest(triple_rows(recs))
        searches = {}
        for t, n, b in self.searches:
            searches[f"{t}{n}|{b}"] = sum(
                1 for _ in L.twist.enumerate_valid_twists(L.lie.cartan_matrix(t, n), b))
        return {"classify": out, "search": searches}


def triple_rows(recs):
    return [[list(r.iplus), list(r.iminus), [list(g) for g in r.N.generators],
             r.N.order, r.dims.sigma_order, r.dims.roots_plus, r.dims.roots_minus]
            for r in recs]


# ---------------------------------------------------------------------------
# query

QUERY_SHAPES = [("A", 2), ("A", 5), ("B", 3), ("C", 4), ("D", 5), ("E", 6),
                ("E", 7), ("E", 8), ("F", 4), ("G", 2), ("A", 8), ("D", 8)]
QUERY_LEVELS = [3, 5, 7, 11, 13, 9, 15, 45, 1001]
QUERY_KINDS = ["build_twist", "s_phi", "chain", "build_twist_invalid", "datum", "order"]
OPS_PER_STREAM = 5       # query: ops of each (shape, kind) stream in a block
BLOCKS = 2               # query: blocks in a round
MIN_TWISTS = 4           # query: distinct twists per shape, at least
KEY_SPACE = 8192         # query: distinct fresh keys each stream can draw, at least

# Entry growth (ROADMAP item 3).  The twist K D A of the fixed dense K below
# on D8 makes the library's Smith form grow its entries at ell = 45: one
# kernel takes from 1 ms to minutes depending on (I+, I-).  Of 2400 (I+, I-)
# bitmasks tried, 237 gave kernels of 25-50 ms in three timings at the
# commit that added the benchmark (Python 3.11 on a 2-vCPU x86-64 VM); cases
# of seconds or more stay out, since one would outlast a run.  GROWTH_PAIRS
# are the 14 of those 237 whose median of three timings, scaled to the
# reference speed, lay nearest their median (25-26 ms; the 237 ranged over
# 11-52 ms), so the tail does not depend on which of them a seed draws.
# GROWTH_PER_BLOCK of them run as `s_phi` queries in every block, 20 of the
# 740 ops of a round (14 keys and 6 repeats), so the tail (10 ops beyond
# it) falls in the middle of them.
GROWTH_K = [[0, -1, 1, -1, 0, -1, 0, 0], [1, 0, 0, 1, 0, -1, -1, 0],
            [-1, 0, 0, -1, 0, 0, 1, -1], [1, -1, 1, 0, 1, 0, 0, 1],
            [0, 0, 0, -1, 0, -1, 1, -1], [1, 1, 0, 0, 1, 0, 0, -1],
            [0, 1, -1, 0, -1, 0, 0, -1], [0, 0, 1, -1, 1, 1, 1, 0]]
GROWTH_LEVEL = 45
GROWTH_PER_BLOCK = 10
GROWTH_PAIRS = [(27, 70), (63, 245), (75, 250), (78, 24), (81, 13), (85, 253), (133, 68),
                (156, 157), (187, 247), (211, 242), (216, 102), (218, 61), (223, 232),
                (238, 203)]


def distinct_twists(rng, lie_type, n, count):
    """`count` distinct twists K (D A), each K with one nonzero pair +-v;
    v runs over 1, 2, ... only as far as `count` needs."""
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    choices, v = [], 0
    while len(choices) < count:
        v += 1
        choices += [(i, j, s * v) for i, j in cells for s in (1, -1)]
    a = O.cartan(lie_type, n)
    out = []
    for i, j, v in rng.sample(choices, count):
        k = [[0] * n for _ in range(n)]
        k[i][j], k[j][i] = v, -v
        y = O.twist_from_antisymmetric(a, O.symmetrizers(a), k)
        out.append(Datum(f"{lie_type}{n}:K{y}", lie_type, n, y))
    return out


def levels_for(lie_type):
    return [e for e in QUERY_LEVELS if not (lie_type == "G" and e % 3 == 0)]


def build_range(n):
    """Smallest R for which K with entries in [-R, R] gives KEY_SPACE matrices."""
    r = 1
    while (2 * r + 1) ** (n * (n - 1) // 2) <= KEY_SPACE:
        r += 1
    return r


def build_y(params, kind):
    """(key, Y, expected violations) of a `build_twist` query."""
    dt, k, (i, j), half = params
    y = O.twist_from_antisymmetric(dt.a, dt.d, k)
    expect = []
    if kind == "build_twist_invalid":
        y = [row[:] for row in y]
        if half:     # a non-integral entry, reported where it sits
            y[i][j] += Fraction(1, 2)
            expect = [("integral_parameters", (i + 1, j + 1))]
        else:        # one more unit in Y breaks D X antisymmetry
            y[i][j] += 1
            expect = [("dx_antisymmetric", p) for p in O.dx_asymmetry(dt.a, dt.d, y)]
    return f"{dt.type}{dt.n}|{json.dumps(y, default=str)}", y, expect


class Stream:
    """Keys of one (shape, kind) stream.  Of every ten ops, three reuse the
    key of an earlier op of the stream (uniformly chosen) and seven draw a
    key the stream has not used, so the share of repeated keys is
    REPEAT_SHARE.  `fresh` returns (key, params), or None when it has no
    more keys; then the op reuses a key, and `Query.notes` shows the share."""

    def __init__(self, rng, fresh):
        self.rng, self.fresh = rng, fresh
        self.seen, self.past, self.count = set(), [], 0

    def next(self):
        """(params, whether the key was used before)."""
        self.count += 1
        if int(self.count * REPEAT_SHARE) == int((self.count - 1) * REPEAT_SHARE) \
                or not self.past:
            for _ in range(100):
                drawn = self.fresh()
                if drawn is None:
                    break
                if drawn[0] not in self.seen:
                    self.seen.add(drawn[0])
                    self.past.append(drawn[1])
                    return drawn[1], False
        return self.rng.choice(self.past), True


class Query(InProcess):
    name = "query"

    def __init__(self, seed, tiny, expected):
        rng = random.Random(seed)
        self.seed, self.tiny = seed, tiny
        # One K pair per twist: that keeps every kernel cheap (about 1 ms);
        # the Smith-form entry growth of denser twists is the growth share.
        # Rank-2 and rank-3 shapes need more twists for KEY_SPACE keys.
        self.shapes = [
            distinct_twists(rng, t, n, max(MIN_TWISTS, -(-KEY_SPACE // (
                len(levels_for(t)) * 4**n)))) for t, n in QUERY_SHAPES]
        a = O.cartan("D", 8)
        self.growth = Datum("D8:growth", "D", 8,
                            O.twist_from_antisymmetric(a, O.symmetrizers(a), GROWTH_K))
        self.data = [dt for shape in self.shapes for dt in shape] + [self.growth]
        self.repeated = self.drawn = 0

    def round(self, L):
        """BLOCKS blocks; a block is OPS_PER_STREAM ops of every (shape, kind)
        stream and GROWTH_PER_BLOCK growth kernels, in seeded order."""
        rng = random.Random(self.seed * 7919 + 2)
        streams = [[Stream(rng, self.fresh_key(rng, shape, kind)) for kind in QUERY_KINDS]
                   for shape in self.shapes]
        order = list(GROWTH_PAIRS)
        rng.shuffle(order)
        pool = iter(order)
        growth = Stream(rng, lambda: self.growth_key(next(pool, None)))
        per_stream = 1 if self.tiny else OPS_PER_STREAM
        self.repeated = self.drawn = 0
        ops = []
        for _ in range(1 if self.tiny else BLOCKS):
            draws = [(kind, s.next()) for row in streams
                     for kind, s in zip(QUERY_KINDS, row) for _ in range(per_stream)]
            draws += [("s_phi", growth.next()) for _ in range(1 if self.tiny else
                                                               GROWTH_PER_BLOCK)]
            rng.shuffle(draws)
            for kind, (params, repeat) in draws:
                self.drawn += 1
                self.repeated += repeat
                family = "build" if kind.startswith("build") else "keyed"
                ops.append(getattr(self, "op_" + family)(L, params, kind))
        return ops

    def notes(self):
        return [f"# query keys: {self.repeated} of {self.drawn} ops "
                f"({self.repeated / max(self.drawn, 1):.4f}) reuse an earlier key"]

    def fresh_key(self, rng, shape, kind):
        if kind.startswith("build"):
            n = shape[0].n
            r = build_range(n)

            def fresh():
                k = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        v = rng.randint(-r, r)
                        k[i][j], k[j][i] = v, -v
                params = (shape[0], k, (rng.randrange(n), rng.randrange(n)),
                          rng.random() < 0.5)
                return build_y(params, kind)[0], params
            return fresh

        def fresh():
            dt = rng.choice(shape)
            ell = rng.choice(levels_for(dt.type))
            iplus, iminus = rng.choice(subsets(dt.n)), rng.choice(subsets(dt.n))
            return (dt.label, ell, iplus, iminus), self.keyed_params(rng, dt, ell, iplus, iminus)
        return fresh

    def growth_key(self, masks):
        if masks is None:
            return None
        dt, (pm, mm) = self.growth, masks
        iplus = tuple(i + 1 for i in range(dt.n) if pm >> i & 1)
        iminus = tuple(i + 1 for i in range(dt.n) if mm >> i & 1)
        rng = random.Random(pm * 256 + mm)
        return ((dt.label, GROWTH_LEVEL, iplus, iminus),
                self.keyed_params(rng, dt, GROWTH_LEVEL, iplus, iminus))

    @staticmethod
    def keyed_params(rng, dt, ell, iplus, iminus):
        extra = [rng.randrange(ell) for _ in range(dt.n)]
        mask = rng.getrandbits(16)
        m = rng.choice((2, 3, 4))
        col = [rng.randrange(m) for _ in range(dt.n)]
        col[rng.randrange(dt.n)] = 1
        shrink_plus = rng.random() < 0.5
        return (dt, ell, iplus, iminus, extra, mask, m, col, shrink_plus)

    # -- build_twist, valid and invalid --------------------------------------

    def op_build(self, L, params, kind):
        dt = params[0]
        key, y, expect = build_y(params, kind)

        def call():
            return L.twist.build_twist(dt.tw.cd, y)

        def check(res):
            if not expect:
                if res.twist is None or res.violations:
                    return "valid parameter matrix rejected"
                return None if res.twist.Y.to_lists() == y else "twist Y differs"
            if res.twist is not None:
                return "invalid parameter matrix accepted"
            got = [(v.condition, v.indices) for v in res.violations
                   if v.condition == expect[0][0]]
            if got != expect or not all(v.detail for v in res.violations):
                return f"violations {got} != expected witnesses {expect}"
            return None

        return Op(kind, key, call, check)

    # -- keyed point queries ---------------------------------------------------

    def op_keyed(self, L, params, kind):
        dt, ell, iplus, iminus, extra, mask, m, col, shrink_plus = params
        tw, n = dt.tw, dt.n
        rows = O.coefficient_rows(dt.y, ell, iplus, iminus)
        key = f"{dt.label}|{ell}|{list(iplus)}|{list(iminus)}"
        T, D = L.torus, L.datum

        def make_datum():
            kernel = T.t_hat_I_complement(tw, ell, iplus, iminus)
            gens = [g for b, g in enumerate(kernel.generators) if mask >> b & 1]
            N = T.TorusSubgroup.from_generators(ell, n, gens)
            group = D.FiniteAbelianGroup((m,))
            emb = D.TorusEmbedding.make(group, [[c] for c in col], n)
            return D.TwistedSubgroupDatum.make(iplus, iminus, N, emb), gens

        if kind == "s_phi":
            def call():
                return (T.s_phi_matrix(tw, ell, iplus, iminus),
                        T.t_hat_I_complement(tw, ell, iplus, iminus))

            def check(res):
                s, kernel = res
                if s.to_lists() != rows:
                    return "coefficient matrix differs from e_i -/+ 2Y[:, i]"
                if not O.kills(rows, kernel.generators, ell):
                    return "kernel generator not killed by the rows"
                want = O.kernel_order(rows, n, ell)
                return None if kernel.order == want else \
                    f"kernel order {kernel.order} != {want}"
        elif kind == "chain":
            gens = rows + [extra]

            def call():
                triple = T.Triple.make(tw, ell, iplus, iminus, sigma_gens=gens)
                return (T.n_phi_from_sigma(tw, ell, triple),
                        T.sigma_order_identity(tw, ell, triple),
                        T.omega_order(tw, ell, triple))

            def check(res):
                N, (sigma, norder, ok), omega = res
                want_sigma = O.span_order(gens, ell)
                if not ok or sigma * norder != ell**n or N.order != norder:
                    return "|Sigma| * |N| != ell^n"
                if sigma != want_sigma:
                    return f"|Sigma| {sigma} != {want_sigma}"
                if not (O.kills(gens, N.generators, ell) and O.kills(rows, N.generators, ell)):
                    return "N does not annihilate Sigma or leaves the kernel"
                t_order = O.span_order(rows, ell)
                return None if omega * t_order == sigma else "omega != |Sigma|/|T_I|"
        elif kind == "datum":
            def call():
                d, gens = make_datum()
                return (gens, d.N, D.validate_datum(tw, ell, d),
                        D.dim_H(tw, ell, iplus, iminus, d.N),
                        D.dim_A(tw, ell, d), D.predicates(tw, ell, d))

            def check(res):
                gens, N, report, dim, dim_a, pred = res
                if not report.ok:
                    return f"valid datum rejected: {report.violations}"
                if not O.kills(rows, N.generators, ell) or \
                        N.order != O.span_order(gens, ell):
                    return "N is wrong"
                rp = O.positive_root_count(dt.a, iplus) if iplus else 0
                rm = O.positive_root_count(dt.a, iminus) if iminus else 0
                if dim.sigma_order * N.order != ell**n or \
                        (dim.roots_plus, dim.roots_minus) != (rp, rm):
                    return "dim_H differs"
                if dim_a != m * dim.sigma_order * ell ** (rp + rm):
                    return "dim_A differs"
                if pred.pointed_necessary != (not set(iplus) & set(iminus)) or \
                        pred.semisimple != (not iplus and not iminus):
                    return "predicates differ"
                return None
        else:  # order: datum_leq both ways and datum_equiv on nested data
            ip2 = iplus[1:] if shrink_plus else iplus
            im2 = iminus if shrink_plus else iminus[1:]

            def call():
                d, _ = make_datum()
                dp = D.TwistedSubgroupDatum.make(ip2, im2, d.N, d.embedding)
                return (D.datum_leq(tw, ell, d, dp), D.datum_leq(tw, ell, dp, d),
                        D.datum_equiv(tw, ell, d, d))

            def check(res):
                fwd, back, equiv = res
                same = (ip2, im2) == (iplus, iminus)
                if fwd.status != "true" or not equiv:
                    return "d <= d' or d == d failed on nested data"
                return None if back.status == ("true" if same else "false") else \
                    f"d' <= d is {back.status}"

        return Op(kind, key, call, check)


# ---------------------------------------------------------------------------
# twist_algebra

class TwistAlgebra(InProcess):
    name = "twist_algebra"

    def __init__(self, seed, tiny, expected):
        rng = random.Random(seed)
        self.seed, self.tiny = seed, tiny
        sign = rng.choice((1, -1))
        b2 = Datum(f"B2:{sign}*crit7", "B", 2, [[sign * x for x in r] for r in B2_CRIT7])
        b2neg = Datum(f"B2:{-sign}*crit7", "B", 2, [[-sign * x for x in r] for r in B2_CRIT7])
        a2 = Datum("A2:b4", "A", 2, rng.choice(A2_BOUND4))
        g2, g2b = (Datum(f"G2:tw{i}", "G", 2, y)
                   for i, y in enumerate(rng.sample(G2_TWISTS, 2)))
        c3 = Datum("C3:c3(1,2,0)", "C", 3, c3_family(1, 2, 0))
        zero = {s: Datum(f"{s}:0", s[0], int(s[1]), None)
                for s in ("A2", "B2", "G2", "A3", "B3", "C3", "A4", "D4")}
        if tiny:
            self.dense = [(b2, 3)]
            self.sparse = [(zero["A2"], 3), (zero["A2"], 9)]
            self.tables = [(b2, 3)]
        else:
            # The one dense ell=5 op (625 x 625 support pairs) carries most
            # of a round's time; the rest keep the sparse share and the
            # table export in every round.
            self.dense = [(b2, 5), (b2, 3), (b2neg, 3), (a2, 3), (c3, 3)]
            self.sparse = [(zero[s], ell) for s, levels in (
                ("A2", (3, 5, 7, 9)), ("B2", (3, 5, 7)), ("G2", (5, 7)), ("A3", (3, 5)),
                ("B3", (3,)), ("C3", (3,)), ("A4", (3,)), ("D4", (3,))) for ell in levels]
            self.tables = [(dt, ell) for dt in (b2, b2neg, a2, c3) for ell in (3, 5)] + [
                (g2, 5), (g2b, 5)]
        self.data = list({id(dt): dt for dt, _ in self.dense + self.sparse + self.tables}.values())

    def round(self, L):
        rng = random.Random(self.seed * 7919 + 3)
        ops = [self.algebra_op(L, dt, ell) for dt, ell in self.dense + self.sparse]
        ops += [self.table_op(L, dt, ell) for dt, ell in self.tables]
        rng.shuffle(ops)
        return ops

    def algebra_op(self, L, dt, ell):
        tw, n = dt.tw, dt.n

        def call():
            ga = L.cocycle.twist_J_group_algebra(tw, ell, cap=TABLE_CAP)
            left = ga.element.convolve(ga.inverse)
            right = ga.inverse.convolve(ga.element)
            flags = (left.is_identity(), right.is_identity(),
                     ga.element.counit_is_one("left"), ga.element.counit_is_one("right"))
            return ga, left, right, flags

        def check(res):
            ga, left, right, flags = res
            if not all(flags):
                return f"identity/counit flags {flags}"
            phi = O.euler_phi(ell)
            one = (1,) + (0,) * (phi - 1)
            zero_key = ((0,) * n, (0,) * n)
            for prod in (left, right):
                support = prod.support()
                if zero_key not in support:
                    return "product has no identity coefficient"
                for key in support:
                    want = one if key == zero_key else (0,) * phi
                    if prod.coefficient(*key).coeffs != want:
                        return f"J*J^-1 coefficient at {key} is not {want}"
            for side in ("left", "right"):
                table = ga.element.counit_side(side)
                for g, c in table.items():
                    want = one if g == (0,) * n else (0,) * phi
                    if c.coeffs != want:
                        return f"{side} counit at {g} is not {want}"
            return None

        return Op("group_algebra", f"{dt.label}|{ell}", call, check)

    def table_op(self, L, dt, ell):
        n = dt.n
        # B = Y^T D A mod ell: entry (z1, z2) is z1^T B z2
        bil = [[sum(dt.y[j][s] * dt.d[j] * dt.a[j][t] for j in range(n)) % ell
                for t in range(n)] for s in range(n)]

        def call():
            return list(L.cocycle.twist_J(dt.tw, ell).table_lines(cap=TABLE_CAP))

        def check(lines):
            vecs = list(itertools.product(range(ell), repeat=n))
            if len(lines) != len(vecs):
                return "wrong number of table rows"
            for z1, line in zip(vecs, lines):
                u = [sum(z1[s] * bil[s][t] for s in range(n)) for t in range(n)]
                want = " ".join(str(O.dot(u, z2, ell)) for z2 in vecs)
                if line != want:
                    return f"table row {z1} differs"
            return None

        return Op("table_lines", f"{dt.label}|{ell}", call, check)


# ---------------------------------------------------------------------------
# cli

C3_SPEC = {"type": "C", "rank": 3, "ell": 11, "family_c3": [1, 2, 0]}

# Each shape: (subcommand, variants); a variant is (inline flags, spec doc).
CLI_SHAPES = {
    "validate-phi": [
        (["--type", "C", "--rank", "3", "--ell", "11", "--family-c3", "1,2,0"], C3_SPEC),
        (["--type", "B", "--rank", "2", "--ell", "5", "--y", "[[-1,2],[-1,1]]"],
         {"type": "B", "rank": 2, "ell": 5, "y": B2_CRIT7}),
        (["--type", "A", "--rank", "3", "--ell", "7", "--y", "[[1,1,1],[1,1,1],[1,1,1]]"],
         {"type": "A", "rank": 3, "ell": 7, "y": [[1, 1, 1]] * 3}),
    ],
    "kernel": [
        (["--type", "C", "--rank", "3", "--ell", "11", "--family-c3", "1,2,0",
          "--iplus", "2", "--iminus", "1"], dict(C3_SPEC, iplus=[2], iminus=[1])),
        (["--type", "C", "--rank", "3", "--ell", "11", "--family-c3", "1,2,0",
          "--iplus", "2", "--sigma-gen", "5,8,10", "--sigma-gen", "2,3,2"],
         dict(C3_SPEC, iplus=[2], sigma={"generators": [[5, 8, 10], [2, 3, 2]]})),
        (["--type", "E", "--rank", "8", "--ell", "1001", "--iplus", "1,2"],
         {"type": "E", "rank": 8, "ell": 1001, "iplus": [1, 2]}),
    ],
    "datum": [
        (["--type", "C", "--rank", "3", "--ell", "11", "--family-c3", "1,2,0",
          "--iplus", "2", "--iminus", "1", "--sigma-sym", "kbar:2", "--sigma-sym",
          "ktilde:1", "--sigma-sym", "tau:3", "--sigma-sym", "tau:2"],
         dict(C3_SPEC, iplus=[2], iminus=[1], sigma={"symbols": [
             ["kbar", 2], ["ktilde", 1], ["tau", 3], ["tau", 2]]})),
        (["--type", "A", "--rank", "2", "--ell", "5", "--iplus", "1"],
         {"type": "A", "rank": 2, "ell": 5, "iplus": [1]}),
        (["--type", "C", "--rank", "3", "--ell", "11", "--family-c3", "1,2,0",
          "--iplus", "2"],
         dict(C3_SPEC, iplus=[2], datum={
             "n_generators": [[3, 1, 1]],
             "gamma": {"factors": [2], "embedding": [[1], [0], [0]]},
             "delta": [[0]]})),
    ],
    "enumerate": [
        (["--type", "A", "--rank", "2", "--ell", "3", "--max-results", "50"],
         {"type": "A", "rank": 2, "ell": 3}),
        (["--type", "C", "--rank", "3", "--ell", "9", "--family-c3", "1,2,0",
          "--iplus", "1,2", "--iminus", "3"],
         {"type": "C", "rank": 3, "ell": 9, "family_c3": [1, 2, 0], "iplus": [1, 2],
          "iminus": [3]}),
        (["--type", "B", "--rank", "2", "--ell", "5", "--y", "[[-1,2],[-1,1]]",
          "--iplus", "1"], {"type": "B", "rank": 2, "ell": 5, "y": B2_CRIT7, "iplus": [1]}),
    ],
    "twist-table": [
        (["--type", "B", "--rank", "2", "--ell", "3", "--y", "[[-1,2],[-1,1]]",
          "--cap", "100000"], {"type": "B", "rank": 2, "ell": 3, "y": B2_CRIT7}),
        (["--type", "A", "--rank", "2", "--ell", "5", "--y", "[[-1,2],[-2,1]]",
          "--cap", "100000"], {"type": "A", "rank": 2, "ell": 5, "y": A2_BOUND4[0]}),
    ],
}
PAPER_VARIANTS = [[], ["--ell", "11"], ["--family-c3", "1,2,0"]]

# Malformed inputs and the exit codes the documented contract allows.
# The last field is the failure reason of the ROADMAP item 5 defect each
# input hits at the commit that added this benchmark: those inputs fail
# with exactly that reason until item 5 is fixed; any other failure of
# them is unexpected.
MALFORMED = [
    # 0.5 in Y is coerced to 0
    ("y-fraction", ["validate-phi", "--type", "B", "--rank", "2", "--ell", "5",
                    "--y", "[[0.5,0],[0,0]]"], None, {1, 3}, "exit 0, contract allows [1, 3]"),
    # JSON true is read as 1, and the twist it makes is rejected with exit 1
    ("y-bool", ["validate-phi", "--spec"], {"type": "B", "rank": 2, "ell": 5,
                                             "y": [[True, 0], [0, 0]]}, {3},
     "exit 1, contract allows [3]"),
    # kbar:9 at rank 2 raises IndexError
    ("sigma-index", ["datum", "--type", "A", "--rank", "2", "--ell", "5",
                     "--sigma-sym", "kbar:9"], None, {1, 3}, "traceback on stderr"),
    ("ell-str", ["validate-phi", "--spec"], {"type": "A", "rank": 2, "ell": "abc"}, {3},
     "exit 1, contract allows [3]"),
    ("max-results-negative", ["enumerate", "--type", "A", "--rank", "2", "--ell", "3",
                              "--max-results", "-1"], None, {1, 3},
     "exit 0, contract allows [1, 3]"),
    ("iplus-text", ["kernel", "--type", "A", "--rank", "2", "--ell", "5", "--iplus", "x"],
     None, {3}, None),
    ("type-unknown", ["validate-phi", "--type", "Q", "--rank", "2", "--ell", "5"], None,
     {1, 3}, None),
    ("spec-missing", ["validate-phi", "--spec", "missing.json"], None, {3}, None),
    ("ell-missing", ["enumerate", "--type", "A", "--rank", "2"], None, {1, 3}, None),
]

CHILD_BOOT = "import sys; from qsubgroups.cli import main; sys.exit(main())"
IMPORT_TIMER = ("import time; t = time.perf_counter(); import qsubgroups.cli; "
                "print(time.perf_counter() - t)")
CHILD_REPS = 7           # samples of cli.interp_ms and cli.import_ms


class Cli:
    name = "cli"
    rusage_who = resource.RUSAGE_CHILDREN   # peak_rss_mb is the largest child

    def __init__(self, seed, tiny, expected):
        self.seed, self.tiny, self.expected = seed, tiny, expected
        self.trace_dir = None  # set while the traced pass runs

    def write_specs(self):
        specs = CACHE / "specs"
        specs.mkdir(parents=True, exist_ok=True)
        for sub, variants in CLI_SHAPES.items():
            for v, (_, doc) in enumerate(variants):
                (specs / f"{sub}-{v}.json").write_text(json.dumps(doc))
        for name, _, doc, _, _ in MALFORMED:
            if doc is not None:
                (specs / f"{name}.json").write_text(json.dumps(doc))

    def spawn(self, argv, timeout=120):
        """Run one child to completion; returns (exit code, stdout, stderr, wall s)."""
        if self.trace_dir is None:
            cmd = [sys.executable, "-S", "-c", CHILD_BOOT, *argv]
        else:
            out = self.trace_dir / f"span-{len(os.listdir(self.trace_dir))}.json"
            cmd = [sys.executable, "-S", str(HERE / "cli_child.py"), str(out), *argv]
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=CACHE,
                              timeout=timeout, check=False)
        return proc.returncode, proc.stdout, proc.stderr, perf_counter() - t0

    def setup_seconds(self):
        """One warm child that imports the CLI (the first also compiles its
        bytecode), timed at the reference speed."""
        return timed(lambda: self.spawn(["--help"]))[1]

    def load(self):
        self.write_specs()
        return None

    def verify_setup(self, L):
        return None

    def traced_pass(self):
        """One round with each child running cli_child.py, which wraps every
        layer and writes its spans; then the interpreter and import timings.
        Returns what `InProcess.traced_pass` returns."""
        self.trace_dir = CACHE / "spans"
        shutil.rmtree(self.trace_dir, ignore_errors=True)
        self.trace_dir.mkdir()
        try:
            lat, failures, kept = run_ops(self.round(None), defer=True)
            snap = {}
            for path in sorted(self.trace_dir.iterdir()):
                with open(path, encoding="utf-8") as fh:
                    snap = spans.merge(snap, json.load(fh))
        finally:
            shutil.rmtree(self.trace_dir)
            self.trace_dir = None
        reps = 1 if self.tiny else CHILD_REPS
        interp, imports = [], []
        for _ in range(reps):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-S", "-c", "pass"], env=child_env(), cwd=CACHE,
                           check=True, timeout=60)
            interp.append(perf_counter() - t0)
            out = subprocess.run([sys.executable, "-S", "-c", IMPORT_TIMER], env=child_env(),
                                 cwd=CACHE, check=True, timeout=60, capture_output=True)
            imports.append(float(out.stdout))
        stdout = sum(len(res[1]) for _, res in kept)
        extra = {"cli.interp_ms": (statistics.median(interp) * 1e3, reps),
                 "cli.import_ms": (statistics.median(imports) * 1e3, reps),
                 "cli.stdout_bytes": (stdout, len(kept))}
        return lat, failures, kept, snap, extra

    def notes(self):
        return []

    def invocations(self):
        """Every valid invocation the workload can draw: (key, argv)."""
        out = []
        for sub, variants in CLI_SHAPES.items():
            for v, (flags, _) in enumerate(variants):
                out.append((f"{sub}/inline/{v}", [sub, *flags]))
                out.append((f"{sub}/spec/{v}", [sub, "--spec", f"specs/{sub}-{v}.json"]))
        out += [(f"paper-examples/{v}", ["paper-examples", *flags])
                for v, flags in enumerate(PAPER_VARIANTS)]
        return out

    def round(self, L):
        """Every valid invocation and every malformed input that no known
        defect hits, once each, in seeded order."""
        rng = random.Random(self.seed * 7919 + 4)
        calls = self.invocations()
        if self.tiny:
            calls = [c for c in calls if c[0].endswith("inline/0") or c[0] == "paper-examples/0"]
        ops = [self.valid_op(key, argv) for key, argv in calls]
        ops += [self.malformed_op(*m) for m in MALFORMED if m[4] is None]
        rng.shuffle(ops)
        return ops

    def known_defects(self):
        """The malformed inputs that hit a known ROADMAP item 5 defect.  They
        run outside the round, since they fail until item 5 is fixed."""
        return [self.malformed_op(*m) for m in MALFORMED if m[4] is not None]

    def valid_op(self, key, argv):
        def check(res):
            code, out, err, _ = res
            if b"Traceback" in err:
                return "traceback on stderr"
            want = self.expected["cli"].get(key)
            got = O.digest([code, out.decode()])
            return None if got == want else f"transcript digest {got} != committed {want}"

        return Op(argv[0], key, lambda: self.spawn(argv), check)

    def malformed_op(self, name, argv, doc, allowed, known):
        if doc is not None:
            argv = [*argv, f"specs/{name}.json"]

        def check(res):
            code, out, err, _ = res
            if b"Traceback" in err:
                return "traceback on stderr"
            if code not in allowed:
                return f"exit {code}, contract allows {sorted(allowed)}"
            if code and not err.strip():
                return "nonzero exit without a message"
            for line in out.decode().splitlines():
                try:
                    json.loads(line)
                except ValueError:
                    return "stdout line is not JSON"
            return None

        return Op("malformed", f"malformed/{name}", lambda: self.spawn(argv), check, known)

    def capture(self, L):
        out = {}
        for key, argv in self.invocations():
            code, stdout, err, _ = self.spawn(argv)
            if b"Traceback" in err:
                raise RuntimeError(f"{key} prints a traceback")
            out[key] = O.digest([code, stdout.decode()])
        return {"cli": out}


WORKLOADS = {w.name: w for w in (Classify, Query, TwistAlgebra, Cli)}
