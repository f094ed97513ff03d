"""The three seeded workloads: their inputs, one request, and its exactness check.

Every workload is a single closed loop: one caller, each request issued
after the previous one returns. Its inputs are a list of requests made
from the seed alone, and the program only ever receives those. A run makes
whole passes over the list.

* ``catalog-sweep`` -- the ``verify`` catalog on a 6x6 grid, the
  repository's health command; one request per identity and a-value, 126.
* ``deep-term`` -- single terms at |n| in 10^3..3*10^4 through the two
  O(log n) engines, ``term_fast`` and Binet; 128 requests.
* ``cli-table`` -- ``table`` requests over ranges of width 50..400 that
  straddle 0, JSON and CSV alternating; 64 requests.

Each workload does the same work under every seed. A seed only permutes
the requests and negates parameter pairs: (a, b) -> (-a, -b) keeps ab and
the size of every term, so it changes signs in the outputs but not the
cost. Free draws made the median request time differ by 10-25% from seed
to seed, more than a regression bound can absorb next to the machine's own
noise. The request mix itself is drawn once, from a fixed design seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import reference
from biperiodic import binet, cli, exact, genmatrix, sequences
from biperiodic.identities import IdentityId
from biperiodic.sequences import SeqParams, SequenceKind

FIB, LUCAS = SequenceKind.FIBONACCI, SequenceKind.LUCAS

#: Parameter pool of deep-term and cli-table: |num| <= 5, den <= 3, nonzero.
POOL = tuple(
    sorted({Fraction(s * p, q) for p in range(1, 6) for q in range(1, 4) for s in (1, -1)})
)

#: The documented default grid of ``verify``; seed 0 sweeps it unchanged. Kept
#: here, not imported, so that the benchmark's work stays fixed across commits.
DEFAULT_GRID = (Fraction(1), Fraction(-1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-3, 2))


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation, returning its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _int_bytes(k: int) -> bytes:
    # str() of a large int trips the interpreter's digit limit; bytes do not.
    return k.to_bytes(k.bit_length() // 8 + 1, "little", signed=True)


def _fraction_digest(x: Fraction) -> bytes:
    return hashlib.sha256(_int_bytes(x.numerator) + b"/" + _int_bytes(x.denominator)).digest()


def _draw_params(r: random.Random) -> SeqParams:
    while True:
        a, b = r.choice(POOL), r.choice(POOL)
        if a * b != -4:  # both engines refuse ab = -4 by contract (exit 3)
            return SeqParams(a, b)


def _coefficient(kind: SequenceKind, a: Fraction, b: Fraction, n: int) -> Fraction:
    # Restated here rather than imported, so the check is independent of the program.
    even = n % 2 == 0
    if kind is FIB:
        return a if even else b
    return b if even else a


class Workload:
    name = ""
    #: The reference task that calibrates request times (see reference.py).
    reference = reference.SMALL

    def __init__(self, seed: int):
        self.seed = seed
        self.requests: list = []
        #: Results ``exact.format_rational`` refused (the interpreter's int->str limit).
        self.refused: set = set()

    def _design(self) -> random.Random:
        """The generator of the request mix, the same under every seed."""
        return random.Random(f"{self.name}:design")

    def _seeded(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, request) -> tuple[object, dict[str, float]]:
        """Execute one request; return its result and seconds per timed part."""
        raise NotImplementedError

    def check(self, request, result) -> list[str]:
        """Untimed exactness check; returns the problems found."""
        raise NotImplementedError

    def digest(self, result) -> bytes:
        code, out = result
        return hashlib.sha256(f"{code}\n{out}".encode()).digest()


def _maybe_negated(r: random.Random, p: SeqParams) -> SeqParams:
    return SeqParams(-p.a, -p.b) if r.random() < 0.5 else p


class CatalogSweep(Workload):
    """The ``verify`` catalog on the documented grid, reordered by the seed.

    Seed 0 is the documented default grid itself, the baseline draw. Other
    seeds shuffle both value sets and, for half of them, negate the whole
    grid. Grids drawn freely from the pool took 11-19 s per sweep against
    11.4 s for this one.

    The sweep is cut into one request per identity and a-value,
    ``verify --identity TAG --a-set A --b-set B``: 126 requests of 0.01-0.4 s
    that together do the work of ``verify --identity all``, since
    ``verify_grid`` checks every identity and every (a, b) independently.
    Short requests let each be calibrated against the machine's speed of
    the moment.
    """

    name = "catalog-sweep"

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        r = self._seeded()
        a_set, b_set = list(DEFAULT_GRID), list(DEFAULT_GRID)
        if seed != 0:
            r.shuffle(a_set)
            r.shuffle(b_set)
            if r.random() < 0.5:
                a_set, b_set = [-a for a in a_set], [-b for b in b_set]
        if tiny:
            a_set, b_set = a_set[:2], b_set[2:4]
        ranges = ["--n-range", "1..8", "--m-range", "0..3"] if tiny else []
        b_arg = ",".join(map(exact.format_rational, b_set))
        self.requests = [
            ["verify", "--identity", ident.value,
             "--a-set", exact.format_rational(a), "--b-set", b_arg] + ranges
            for ident in IdentityId
            for a in a_set
        ]
        self._first_digest: dict[tuple, bytes] = {}

    def warm_up(self) -> None:
        call_cli(["verify", "--identity", "all", "--a-set", "1,2", "--b-set", "3,1/2",
                  "--n-range", "1..4", "--m-range", "0..2"])

    def run(self, argv):
        start = reference.clock()
        result = call_cli(argv)
        return result, {"cli": reference.clock() - start}

    def check(self, argv, result) -> list[str]:
        code, out = result
        problems = []
        if code != 0:
            problems.append(f"verify {argv[2]} --a-set {argv[4]} exited {code}")
        if not json.loads(out)["all_as_expected"]:
            problems.append(f"verify {argv[2]} --a-set {argv[4]} reports all_as_expected = false")
        digest = self.digest(result)
        first = self._first_digest.setdefault(tuple(argv), digest)
        if digest != first:
            problems.append(f"verify {argv[2]} --a-set {argv[4]}: stdout differs from its first run")
        return problems


def _log_strata(r: random.Random, lo: int, hi: int, strata: int, per_stratum: int) -> list[int]:
    """Log-uniform integers in lo..hi, ``per_stratum`` in each equal slice of the log range."""
    return [
        round(lo * (hi / lo) ** ((s + r.random()) / strata))
        for s in range(strata)
        for _ in range(per_stratum)
    ]


class DeepTerm(Workload):
    """One large-index term per request, computed by ``term_fast`` and by Binet.

    |n| is log-uniform in 10^3..3*10^4, with 8 fibonacci and 8 lucas
    requests in each eighth of the log range, and a quarter of the indices
    negative. Each request has its own (a, b) from the pool.
    """

    name = "deep-term"
    reference = reference.BIG
    STRATA = 8
    SPOT_INDICES = (-7, 0, 2, 11)

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        lo, hi, per_stratum = (5, 60, 1) if tiny else (1_000, 30_000, 8)
        design = self._design()
        requests = [
            [kind, _draw_params(design), n]
            for n in _log_strata(design, lo, hi, self.STRATA, per_stratum)
            for kind in (FIB, LUCAS)
        ]
        for j in design.sample(range(len(requests)), len(requests) // 4):
            requests[j][2] = -requests[j][2]
        r = self._seeded()
        r.shuffle(requests)
        self.requests = [(kind, _maybe_negated(r, p), n) for kind, p, n in requests]

    def warm_up(self) -> None:
        self.run((FIB, SeqParams(2, 3), 500))
        self.run((LUCAS, SeqParams(Fraction(1, 2), -3), -500))

    def run(self, request):
        kind, p, n = request
        closed_form = binet.binet_fib if kind is FIB else binet.binet_lucas
        start = reference.clock()
        by_matrix = genmatrix.term_fast(p, kind, n)
        mid = reference.clock()
        by_binet = closed_form(p, n)
        end = reference.clock()
        return (by_matrix, by_binet), {"matrix": mid - start, "binet": end - mid}

    def check(self, request, result) -> list[str]:
        kind, p, n = request
        by_matrix, by_binet = result
        problems = []
        if by_matrix != by_binet:
            problems.append(f"term_fast != binet at {kind.value} a={p.a} b={p.b} n={n}")
        closed_form = binet.binet_fib if kind is FIB else binet.binet_lucas
        for m in self.SPOT_INDICES:
            oracle = sequences.term_recurrence(p, kind, m)
            if not genmatrix.term_fast(p, kind, m) == closed_form(p, m) == oracle:
                problems.append(f"engines disagree with the recurrence at n={m}")
        try:
            exact.format_rational(by_matrix)
        except ValueError:
            self.refused.add(request)
        return problems

    def digest(self, result) -> bytes:
        return b"".join(_fraction_digest(x) for x in result)


class CliTable(Workload):
    """``table`` requests: one recurrence per row from scratch, then emission.

    32 ranges: widths log-uniform in 50..400, 4 in each eighth of the log
    range, every range straddling 0, each with its own (a, b) from the pool
    and either both kinds or one. Each range is requested twice in a row,
    as JSON and then as CSV.
    """

    name = "cli-table"
    STRATA = 8

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        lo, hi, per_stratum = (5, 20, 1) if tiny else (50, 400, 4)
        design = self._design()
        specs = []
        for j, width in enumerate(_log_strata(design, lo, hi, self.STRATA, per_stratum)):
            start = -design.randint(1, width - 1)
            kinds = "fib,lucas" if j % 2 == 0 else design.choice(("fib", "lucas"))
            specs.append((_draw_params(design), f"{start}..{start + width}", kinds))
        r = self._seeded()
        r.shuffle(specs)
        for p, n_range, kinds in specs:
            p = _maybe_negated(r, p)
            for form in ("json", "csv"):
                self.requests.append([
                    "table", "--a", exact.format_rational(p.a), "--b", exact.format_rational(p.b),
                    "--n-range", n_range, "--kinds", kinds, "--format", form,
                ])

    def warm_up(self) -> None:
        call_cli(["table", "--a", "2", "--b", "-1/3", "--n-range", "-10..10", "--format", "csv"])
        call_cli(["table", "--a", "2", "--b", "-1/3", "--n-range", "-10..10", "--format", "json"])

    def run(self, argv):
        start = reference.clock()
        result = call_cli(argv)
        return result, {"cli": reference.clock() - start}

    def check(self, argv, result) -> list[str]:
        code, out = result
        if code != 0:
            return [f"table exited {code}"]
        opts = dict(zip(argv[1::2], argv[2::2]))
        a, b = Fraction(opts["--a"]), Fraction(opts["--b"])
        lo, hi = (int(x) for x in opts["--n-range"].split(".."))
        kinds = opts["--kinds"].split(",")
        if opts["--format"] == "json":
            rows = json.loads(out)["results"]
        else:
            lines = out.splitlines()
            header = lines[0].split(",")
            rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
            for row in rows:
                row["n"] = int(row["n"])
        if [row["n"] for row in rows] != list(range(lo, hi + 1)):
            return ["table rows do not cover the requested range"]
        problems = []
        for kind_name in kinds:
            kind = SequenceKind(kind_name)
            t = {row["n"]: Fraction(row[kind_name]) for row in rows}
            seeds = (0, 1) if kind is FIB else (2, a)
            if (t[0], t[1]) != seeds:
                problems.append(f"{kind_name}: wrong seeds t(0), t(1)")
            for n in range(lo + 2, hi + 1):
                if t[n] != _coefficient(kind, a, b, n) * t[n - 1] + t[n - 2]:
                    problems.append(f"{kind_name}: recurrence fails at n={n}")
                    break
        return problems


WORKLOADS = {w.name: w for w in (CatalogSweep, DeepTerm, CliTable)}
