"""The benchmark's workloads, built only from synthtop's public functions.

Each workload turns a seed into a fixed input set in its constructor (the
set-up) and runs that whole set once per `run_pass` call (one timed pass).
Every answer is checked against an independent truth: the finite oracle
(``hyper-carriers``), the truncation oracle and interval arithmetic
(``repair``), or the laws' own verdicts plus the golden reports
(``gate``).  A pass also yields its logical-step total and a digest of
every answer it observed, which are compared with the goldens recorded
for the seed and between the passes of one run.

Why these three, and what they leave out, is recorded in BENCHMARK.json
and bench/README.md.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback
from fractions import Fraction
from typing import Callable

from calib import Clock
from synthtop.bases import kolmogorov_completion
from synthtop.hyper import (OpenSet, box_embed, box_invert, closed_image,
                            compact_image, compact_intersection,
                            compact_open_embed, compact_open_invert,
                            compact_union, filter_embed, filter_invert,
                            neighborhood_filter, overt_project, overt_union,
                            point_to_closed, point_to_compact, product_closed,
                            product_open, section, trace_embed, trace_invert)
from synthtop.kernel import Name, NameReader, decode_enum
from synthtop.laws import LAWS, run_law_suite
from synthtop.oracle import (FiniteSpace, bits, closure,
                             compact_family_of_compacts, continuous_maps,
                             coproduct_space, enumerate_spaces, family_compact,
                             family_overt, finite_point, finite_repr,
                             full_mask, image_mask, leaf_compact, leaf_open,
                             leaf_overt, mask_of, product_space, saturate,
                             specialization, up_sets)
from synthtop.reals import (DecimalSpec, enum_subbase_name, decimal_point,
                            decimal_to_cauchy_direct, interval_for_index,
                            interval_open_decimal, repair_decimal)
from synthtop.sierpinski import DEFAULT_FUEL, SValue, bot, top
from synthtop.spaces import (Point, apply_fun, fun_point, on_value,
                             pair_point, product, read_first)

HYPER_OPS = ("neighborhood_filter", "point_to_closed", "point_to_compact",
             "compact_image", "closed_image", "section", "overt_project",
             "product_open", "product_closed", "overt_union",
             "compact_intersection", "compact_union", "filter_embed",
             "filter_invert", "trace_embed", "trace_invert", "box_embed",
             "box_invert", "compact_open_embed", "compact_open_invert")
ORACLE_FNS = ("up_sets", "specialization", "saturate", "closure",
              "product_space", "coproduct_space", "continuous_maps")
LAYERS = ("laws", "hyper", "sierpinski", "oracle", "reals")
MODULES = ("kernel", "sierpinski", "spaces", "hyper", "bases", "oracle",
           "laws", "reals", "cli")
# the law size synthtop verify uses, except where one law alone would
# take minutes at size 3
GATE_SIZES = {law: 2 if law == "hyper-ops-vs-oracle" else 3 for law in LAWS}

# the laws whose reports count logical steps (fuel_used > 0)
FUEL_LAWS = ("completion-idempotence", "decimal-repair", "galois-roundtrip",
             "hyper-ops-vs-oracle", "presubbase-representation",
             "scheduler-fairness")

# status spans carry their hyper op, so eval time is attributable per op
BUILD_SPAN = {op: f"hyper.{op}.build" for op in HYPER_OPS}
EVAL_SPAN = {op: f"sierpinski.status.{op}" for op in HYPER_OPS}
EVAL_SPAN["compact_open_invert"] = "spaces.read_first.compact_open_invert"
_ORACLE = {fn: f"oracle.{fn}" for fn in ORACLE_FNS}
_MODULE_OF_FILE = {f"{m}.py": m for m in MODULES}


class Run:
    """Counters of one or more passes: checks, errors per layer, logical
    steps, observed answers, op times and status-call figures."""

    def __init__(self, tracer, clock: Clock | None = None):
        self.tr = tracer
        self.clock = clock if clock is not None else Clock()
        self.attempted = 0
        self.failed = 0
        self.errors = {m: 0 for m in MODULES + ("bench",)}
        self.steps = 0
        self.answers = bytearray()
        self.lines: list[str] = []
        self.op_ms: list[float] = []
        self.status_calls = 0
        self.status_accepted = 0
        self.status_steps = 0
        self.pending_steps = 0
        self.fuel: dict[str, int] = {}

    # -- bookkeeping -------------------------------------------------------

    def op_done(self, t0: float) -> None:
        """Close one op that started at ``t0`` (perf_counter seconds)."""
        t1 = time.perf_counter()
        self.op_ms.append((t1 - t0) * 1000.0)
        self.clock.tick(t0, t1)

    def check(self, ok: bool, layer: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors[layer] += 1

    def fail_exception(self, exc: BaseException) -> None:
        """An unexpected exception is one failed check, charged to the
        synthtop module whose frame raised it."""
        layer = "bench"
        for frame in traceback.extract_tb(exc.__traceback__):
            mod = _MODULE_OF_FILE.get(frame.filename.rsplit("/", 1)[-1])
            if mod is not None and "synthtop" in frame.filename:
                layer = mod
        self.check(False, layer)
        if self.tr.enabled:
            self.tr.unwind()

    def pass_summary(self, start_steps: int, start_answers: int) -> dict:
        return {"steps": self.steps - start_steps,
                "digest": hashlib.sha256(
                    bytes(self.answers[start_answers:])).hexdigest()[:16]}

    # -- traced calls into the layers ---------------------------------------

    def oracle(self, fn: str, f, *args):
        i = self.tr.begin(_ORACLE[fn])
        out = f(*args)
        self.tr.end(i)
        return out

    def make(self, op: str, f, *args):
        i = self.tr.begin(BUILD_SPAN[op])
        out = f(*args)
        self.tr.end(i)
        return out

    def ask(self, op: str, build: Callable[[], SValue], want: bool) -> None:
        """Build one query, run it to its certified horizon (else to
        ``DEFAULT_FUEL``, as the laws do), and check the answer against
        the oracle's."""
        tr = self.tr
        i = tr.begin(BUILD_SPAN[op])
        sv = build()
        tr.end(i)
        budget = DEFAULT_FUEL if sv.bound is None else sv.bound
        i = tr.begin(EVAL_SPAN[op])
        at = sv.status(budget)
        tr.end(i)
        got = at is not None
        self.status_calls += 1
        if got:
            self.status_accepted += 1
            self.steps += at
            self.status_steps += at
        else:
            self.steps += budget
            self.status_steps += budget
            self.pending_steps += budget
        self.answers.append(got)
        self.check(got == want, "hyper")


def _sample(rng: random.Random, items, cap: int, keep=()) -> list:
    items = list(items)
    if len(items) <= cap:
        return items
    picked = sorted(rng.sample(range(len(items)), cap))
    out = [items[i] for i in picked]
    out.extend(k for k in keep if k not in out)
    return out


# ---------------------------------------------------------------------------
# gate


class Gate:
    """Every registered law through `run_law_suite`, one call per law,
    with the arguments `synthtop verify` passes."""

    name = "gate"

    def __init__(self, seed: int):
        self.seed = seed
        self.laws = sorted(LAWS)

    def run_pass(self, run: Run) -> None:
        tr = run.tr
        for law in self.laws:
            tr.new_op()
            t0 = time.perf_counter()
            i = tr.begin(f"laws.{law}")
            try:
                rep = run_law_suite(law, max_size=GATE_SIZES[law],
                                    fuel=DEFAULT_FUEL, seed=self.seed)
            except Exception as exc:  # a crashing law is a failed check
                run.fail_exception(exc)
                run.op_done(t0)
                run.lines.append(f"{law}: {type(exc).__name__}")
                continue
            tr.end(i)
            run.op_done(t0)
            run.fuel[law] = rep.fuel_used
            run.check(rep.passed, "laws")
            run.steps += rep.fuel_used
            line = rep.stable_json()
            run.lines.append(line)
            run.answers.extend(line.encode())


# ---------------------------------------------------------------------------
# hyper-carriers


def _product_leaf_open(spx, spy, g_n: int, mask: int) -> OpenSet:
    """A subset of a product carrier (element (i, j) coded i * g_n + j) as
    a membership semidecider: read both coordinates, then decide."""

    def chi(p: Point) -> SValue:
        xp, yp = p.payload
        hy = yp.payload.cost(0) if yp.payload.cost else None
        return on_value(xp, lambda i: on_value(
            yp, lambda j: top() if mask >> (i * g_n + j) & 1 else bot(),
            inner_bound=0), inner_bound=hy)

    return OpenSet(product(spx, spy), chi)


def _finite_map_point(spx, spy, fmap: tuple) -> Point:
    """A finite map as a function point: the image's name re-emits each
    value of the argument's name through the table."""

    def transform(p: Point) -> Point:
        src = p.payload

        def gen():
            r = NameReader(src)
            while True:
                v = r.step()
                yield None if v is None else fmap[v]

        return Point(spy, Name(gen, cost=src.cost))

    return fun_point(spx, spy, transform)


class HyperCarriers:
    """Seeded (f, g) pairs over the 35 spaces with at most 3 points.  The
    pairs come from ``PERMUTATIONS`` seeded permutations pi, pair i being
    (space i, space pi(i)), so every space is a left and a right factor
    equally often and seeds differ only in which spaces meet."""

    name = "hyper-carriers"
    PERMUTATIONS = 2
    CAP = 8           # sampled opens / closed / compact sets per space
    CAP_CARRIER = 12  # the same on the derived carriers f x g and f + g
    CAP_MAPS = 3      # continuous maps per pair, self-maps per carrier

    def __init__(self, seed: int):
        self.seed = seed
        self.spaces = [f for n in range(4) for f in enumerate_spaces(n)]
        rng = random.Random(seed)
        idx = list(range(len(self.spaces)))
        self.pairs: list[tuple[int, int, int]] = []
        for _ in range(self.PERMUTATIONS):
            perm = rng.sample(idx, len(idx))
            self.pairs.extend((i, perm[i], rng.randrange(1 << 30)) for i in idx)

    def run_pass(self, run: Run) -> None:
        for a, b, op_seed in self.pairs:
            run.tr.new_op()
            t0 = time.perf_counter()
            i = run.tr.begin("bench.op")
            try:
                self.pair(run, self.spaces[a], self.spaces[b],
                          random.Random(op_seed))
            except Exception as exc:
                run.fail_exception(exc)
            else:
                run.tr.end(i)
            run.op_done(t0)

    # -- one op ---------------------------------------------------------------

    def pair(self, run: Run, f: FiniteSpace, g: FiniteSpace,
             rng: random.Random) -> None:
        cap = self.CAP
        spx, spy = finite_repr(f), finite_repr(g)
        ptsx = [finite_point(spx, e) for e in range(f.n)]
        ptsy = [finite_point(spy, e) for e in range(g.n)]
        opens_x = _sample(rng, f.opens, cap)
        opens_y = _sample(rng, g.opens, cap)
        losx = {u: leaf_open(spx, u) for u in f.opens}
        losy = {v: leaf_open(spy, v) for v in g.opens}

        for pts, los, opens_s in ((ptsx, losx, opens_x), (ptsy, losy, opens_y)):
            self.point_ops(run, pts, los, opens_s)

        fg = run.oracle("product_space", product_space, f, g)
        prod_w = _sample(rng, fg.opens, cap, keep=(0, full_mask(fg.n)))
        wopen = {w: _product_leaf_open(spx, spy, g.n, w) for w in prod_w}

        # sections and the overt projection of opens of the product
        for w in prod_w:
            for i in range(f.n):
                sec = run.make("section", section, ptsx[i], wopen[w])
                for j in range(g.n):
                    run.ask("section", lambda: sec.chi(ptsy[j]),
                            bool(w >> (i * g.n + j) & 1))
            proj = run.make("overt_project", overt_project, wopen[w])
            for i in range(f.n):
                run.ask("overt_project", lambda: proj.chi(ptsx[i]),
                        any(w >> (i * g.n + j) & 1 for j in range(g.n)))

        # products of opens and of overt closed sets
        for u in opens_x:
            for v in opens_y:
                pu = run.make("product_open", product_open, losx[u], losy[v])
                for i in range(f.n):
                    for j in range(g.n):
                        run.ask("product_open",
                                lambda: pu.chi(pair_point(ptsx[i], ptsy[j])),
                                bool(u >> i & 1) and bool(v >> j & 1))
        closeds_x = [full_mask(f.n) & ~u for u in opens_x]
        closeds_y = [full_mask(g.n) & ~v for v in opens_y]
        for a in closeds_x[:3]:
            for b in closeds_y[:3]:
                pv = run.make("product_closed", product_closed,
                              leaf_overt(spx, a), leaf_overt(spy, b))
                for w in prod_w:
                    run.ask("product_closed", lambda: pv.exists_(wopen[w]),
                            any(w >> (i * g.n + j) & 1
                                for i in bits(a) for j in bits(b)))

        # images and the compact-open embedding along continuous maps
        ups_x = _sample(rng, run.oracle("up_sets", up_sets, f), cap)
        maps = _sample(rng, run.oracle("continuous_maps", continuous_maps, f, g),
                       self.CAP_MAPS)
        for fmap in maps:
            fpt = _finite_map_point(spx, spy, fmap)
            w = self.map_ops(run, g, spx, fmap, fpt, ups_x, closeds_x,
                             losy, opens_y)
            # the inverse needs the codomain's Kolmogorov witness, which a
            # finite space carries exactly when it is T0
            if g.n > 0 and spy.filter_inverse is not None:
                f2 = run.make("compact_open_invert", compact_open_invert, w,
                              DEFAULT_FUEL)
                for x in range(f.n):
                    i = run.tr.begin(EVAL_SPAN["compact_open_invert"])
                    got = read_first(apply_fun(f2, ptsx[x]), DEFAULT_FUEL)
                    run.tr.end(i)
                    run.answers.append(255 if got is None else got)
                    run.check(got == fmap[x], "hyper")

        for h in (fg, run.oracle("coproduct_space", coproduct_space, f, g)):
            self.carrier(run, h, rng)

    def point_ops(self, run: Run, pts, los, opens_s) -> None:
        for x, p in enumerate(pts):
            flt = run.make("neighborhood_filter", neighborhood_filter, p)
            pc = run.make("point_to_closed", point_to_closed, p)
            pk = run.make("point_to_compact", point_to_compact, p)
            for u in opens_s:
                inu = bool(u >> x & 1)
                lo = los[u]
                run.ask("neighborhood_filter", lambda: flt.chi(lo.as_point()), inu)
                run.ask("point_to_closed", lambda: pc.exists_(lo), inu)
                run.ask("point_to_compact", lambda: pk.forall_(lo), inu)

    def map_ops(self, run: Run, g: FiniteSpace, spx, fmap, fpt, ups,
                closeds, los_cod, opens_cod) -> OpenSet:
        """Compact and closed images along one map, and its compact-open
        embedding, each checked per open of the codomain; returns the
        embedding."""
        w = run.make("compact_open_embed", compact_open_embed, fpt)
        for k in ups:
            img = run.make("compact_image", compact_image, fpt,
                           leaf_compact(spx, k))
            want = run.oracle("saturate", saturate, g, image_mask(fmap, k))
            kpt = leaf_compact(spx, k).as_point()
            for v in opens_cod:
                inside = want & ~v == 0
                run.ask("compact_image", lambda: img.forall_(los_cod[v]), inside)
                run.ask("compact_open_embed",
                        lambda: w.chi(pair_point(kpt, los_cod[v].as_point())),
                        inside)
        for a in closeds:
            img = run.make("closed_image", closed_image, fpt, leaf_overt(spx, a))
            want = run.oracle("closure", closure, g, image_mask(fmap, a))
            for v in opens_cod:
                run.ask("closed_image", lambda: img.exists_(los_cod[v]),
                        bool(want & v))
        return w

    def carrier(self, run: Run, h: FiniteSpace, rng: random.Random) -> None:
        """Point, set and map operations over one derived carrier."""
        cap = self.CAP_CARRIER
        sp = finite_repr(h)
        pts = [finite_point(sp, e) for e in range(h.n)]
        full = full_mask(h.n)
        opens_s = _sample(rng, h.opens, cap, keep=(0, full))
        ups_s = _sample(rng, run.oracle("up_sets", up_sets, h), cap,
                        keep=(0, full))
        los = {u: leaf_open(sp, u) for u in opens_s}
        self.point_ops(run, pts, los, opens_s)

        for _ in range(3):
            fam = [u for u in opens_s if rng.random() < 0.5]
            union_mask, inter_mask = 0, full
            for u in fam:
                union_mask |= u
                inter_mask &= u
            members = [los[u] for u in fam]
            uni = run.make("overt_union", overt_union, family_overt(sp, members))
            inter = run.make("compact_intersection", compact_intersection,
                             family_compact(sp, members))
            for x in range(h.n):
                run.ask("overt_union", lambda: uni.chi(pts[x]),
                        bool(union_mask >> x & 1))
                run.ask("compact_intersection", lambda: inter.chi(pts[x]),
                        bool(inter_mask >> x & 1))
            kfam = [k for k in ups_s if rng.random() < 0.5]
            want = run.oracle("saturate", saturate, h,
                              mask_of(e for k in kfam for e in bits(k)))
            ku = run.make("compact_union", compact_union,
                          compact_family_of_compacts(
                              sp, [leaf_compact(sp, k) for k in kfam]))
            for u in opens_s:
                run.ask("compact_union", lambda: ku.forall_(los[u]),
                        want & ~u == 0)

        for k in ups_s:
            w = run.make("filter_embed", filter_embed, leaf_compact(sp, k))
            back = run.make("filter_invert", filter_invert, w)
            for u in opens_s:
                inside = k & ~u == 0
                run.ask("filter_embed", lambda: w.chi(los[u].as_point()), inside)
                run.ask("filter_invert", lambda: back.forall_(los[u]), inside)
        for u in opens_s:
            w = run.make("box_embed", box_embed, los[u])
            back = run.make("box_invert", box_invert, w)
            for k in ups_s:
                run.ask("box_embed",
                        lambda: w.chi(leaf_compact(sp, k).as_point()),
                        k & ~u == 0)
            for x in range(h.n):
                run.ask("box_invert", lambda: back.chi(pts[x]),
                        bool(u >> x & 1))
            a = full & ~u
            tw = run.make("trace_embed", trace_embed, leaf_overt(sp, a))
            tback = run.make("trace_invert", trace_invert, tw)
            for v in opens_s:
                run.ask("trace_embed", lambda: tw.chi(los[v].as_point()),
                        bool(a & v))
                run.ask("trace_invert", lambda: tback.exists_(los[v]),
                        bool(a & v))

        # a few monotone self-maps: images and the compact-open open
        maps = [tuple(range(h.n))]
        rows = run.oracle("specialization", specialization, h)
        for _ in range(12):
            if len(maps) >= self.CAP_MAPS or h.n == 0:
                break
            cand = tuple(rng.randrange(h.n) for _ in range(h.n))
            if cand not in maps and all(
                    not (rows[i] >> j & 1) or (rows[cand[i]] >> cand[j] & 1)
                    for i in range(h.n) for j in range(h.n)):
                maps.append(cand)
        for fmap in maps:
            fpt = _finite_map_point(sp, sp, fmap)
            self.map_ops(run, h, sp, fmap, fpt, ups_s[:4],
                         [full & ~k for k in ups_s[:4]], los, opens_s[:4])


# ---------------------------------------------------------------------------
# repair


class Repair:
    """Seeded eventually-periodic decimals, repaired at 200 bits, queried
    at their own boundary and decoded through the interval subbase."""

    name = "repair"
    COUNT = 32
    BITS = 200
    BOUNDARY_FUEL = 10_000
    DECODE_FUEL = 10_000
    MEMBER_FUEL = 10_000

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(seed)
        self.inputs: list[tuple[DecimalSpec, int]] = []
        for i in range(self.COUNT):
            digits = lambda k: tuple(rng.randrange(10) for _ in range(k))
            spec = DecimalSpec(sign=rng.choice((1, -1)),
                               int_part=rng.randrange(2),
                               fixed=digits(rng.randrange(4)),
                               repetend=digits(1 + i % 6))
            delay = rng.randrange(1, 3) if i % 4 == 3 else 0
            self.inputs.append((spec, delay))

    def run_pass(self, run: Run) -> None:
        for spec, delay in self.inputs:
            run.tr.new_op()
            t0 = time.perf_counter()
            i = run.tr.begin("bench.op")
            try:
                self.one(run, spec, delay)
            except Exception as exc:
                run.fail_exception(exc)
            else:
                run.tr.end(i)
            run.op_done(t0)

    def one(self, run: Run, spec: DecimalSpec, delay: int) -> None:
        tr = run.tr
        v = spec.value
        d = decimal_point(spec, delay)

        i = tr.begin("reals.repair_decimal")
        levels = repair_decimal(d, self.BITS)
        tr.end(i)
        i = tr.begin("reals.direct_oracle")
        direct = decimal_to_cauchy_direct(spec)
        truth = [direct.level(k) for k in range(1, self.BITS + 1)]
        tr.end(i)
        run.check(len(levels) == self.BITS, "reals")
        for k, (q, t) in enumerate(zip(levels, truth), start=1):
            run.check(abs(q - t) <= Fraction(1, 2 ** (k - 1)), "reals")
        run.answers.extend(f"{levels[-1]}".encode())

        # the value itself is the left end of (v, v + 1): pending forever
        i = tr.begin("reals.interval.build")
        sv = interval_open_decimal(v, v + 1).chi(d)
        tr.end(i)
        i = tr.begin("reals.interval.status")
        st = sv.status(self.BOUNDARY_FUEL)
        tr.end(i)
        run.steps += self.BOUNDARY_FUEL if st is None else st
        run.answers.append(st is None)
        run.check(st is None, "reals")

        # its neighborhood filter accepts an interval strictly around it
        i = tr.begin("bases.kolmogorov_completion")
        comp = kolmogorov_completion(d.space)
        tr.end(i)
        flt = comp.forward(d).payload
        around = interval_open_decimal(v - Fraction(1, 10), v + Fraction(1, 10))
        i = tr.begin("sierpinski.status.filter_member")
        at = flt.chi(around.as_point()).status(self.MEMBER_FUEL)
        tr.end(i)
        run.steps += self.MEMBER_FUEL if at is None else at
        run.answers.extend(b"m%d" % (at if at is not None else -1))
        run.check(at is not None, "reals")

        # every interval the subbase name enumerates contains the value
        i = tr.begin("kernel.decode_enum")
        found = decode_enum(enum_subbase_name(d), self.DECODE_FUEL)
        tr.end(i)
        run.steps += self.DECODE_FUEL
        run.answers.extend(b"e%d:" % len(found))
        for n in sorted(found):
            a, b = interval_for_index(n)
            run.check(a < v < b, "reals")
            run.answers.extend(b"%d," % n)


WORKLOADS = {w.name: w for w in (Gate, HyperCarriers, Repair)}
