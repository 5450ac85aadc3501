"""Seeded inputs and output checks for the three benchmark workloads.

Every op is one `sadiclab.cli.run(subcommand, config, outdir)` call on a
config generated from (seed, op index); the program sees only the config.
Each check reads the artifacts an op wrote and returns None when they are
correct, or a one-line reason when they are not.  `ops_per_s` sets how
many ops of an end-to-end run must return cleanly (per second of
--seconds); `trace_ops_per_s` sets the length of a traced run's fixed op
list (each op run plain and traced).
"""

import csv
import json
import math
import os
import random
from fractions import Fraction

from mpmath import mpf

from sadiclab import cli, forms, lattice, numberfield, sadic
from sadiclab.surd import QuadraticSurd

_SQUAREFREE = [d for d in range(2, 31)
               if all(d % (k * k) for k in range(2, 6))]


def op_draw(seed, index):
    """The op's generator and its stratified position u in [0, 1).

    u follows the base-2 van der Corput sequence shifted by a seeded
    offset, so every prefix of a run covers [0, 1) evenly: the mix of
    cheap and expensive ops, and with it the latency median, stays the
    same from seed to seed while the individual inputs change.
    """
    rng = random.Random(f"sadiclab-bench:{seed}:{index}")
    shift = random.Random(f"sadiclab-bench:{seed}").random()
    u, base, k = 0.0, 0.5, index + 1
    while k:
        u += base * (k & 1)
        k >>= 1
        base /= 2
    return rng, (u + shift) % 1.0


def _parse_tuple(text):
    """'(a, (b,c))' -> ['a', '(b,c)'], splitting at top-level ', '."""
    body = text.strip()[1:-1]
    parts, depth, cur = [], 0, ""
    for ch in body:
        if ch == "," and depth == 0:
            parts.append(cur.strip())
            cur = ""
            continue
        depth += (ch == "(") - (ch == ")")
        cur += ch
    parts.append(cur.strip())
    return parts


def _rel_close(exact, reported, tol):
    return abs(exact - mpf(reported)) <= tol * abs(exact)


# ---------------------------------------------------------------------------
# survey: orbit-survey over Q with S = {inf, 2}


def _survey_windows():
    """All (H, E) windows, cheapest first (by enumerated point count)."""
    pairs = [(H, E) for H in range(24, 33) for E in range(4, 7)]
    return sorted(pairs, key=lambda w: ((2 * w[0] + 1) ** 2 * (w[1] + 1), w))


class Survey:
    name = "survey"
    subcommand = "orbit-survey"
    # 27 clean ops in a 25 s run: each window exactly once
    ops_per_s = 1.08
    trace_ops_per_s = 0.5
    windows = _survey_windows()

    def config(self, seed, index):
        """Each block of 27 ops visits every window once, in seeded order,
        so that a run's latency median does not depend on the seed's draw."""
        block, pos = divmod(index, len(self.windows))
        order = list(range(len(self.windows)))
        random.Random(f"sadiclab-bench:{seed}:survey:{block}").shuffle(order)
        H, E = self.windows[order[pos]]
        return {"min_poly": [0, 1],
                "places": {"archimedean": "all", "finite_primes": [2]},
                "window": {"H": H, "E": E},
                "orbit_survey": {"point": "identity", "steps": 20}}

    def check(self, config, outdir, first):
        with open(os.path.join(outdir, "orbit-survey.json"), encoding="utf-8") as fh:
            verdict = json.load(fh)
        if verdict["consistent"] is not True:
            return "survey: consistent is not true"
        if verdict["prediction"] != "non-divergent":
            return f"survey: prediction {verdict['prediction']!r}"
        return None


# ---------------------------------------------------------------------------
# cloud: systole over Q(i) with S = {inf, both places over 5}


def random_sl2z(rng, bound=40):
    """A uniform coprime first column (a, c) with entries in [-bound, bound],
    completed to det 1 by the smallest second column."""
    while True:
        a, c = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if math.gcd(a, c) == 1:
            break
    # extended Euclid keeps a*s0 + c*t0 == r0; it ends at r0 = +-1
    r0, r1, s0, s1, t0, t1 = a, c, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    b, d = -t0 * r0, s0 * r0
    k = min(range(-2 * bound - 2, 2 * bound + 3),
            key=lambda k: (max(abs(b + k * a), abs(d + k * c)), k))
    return [[a, b + k * a], [c, d + k * c]]


class Cloud:
    name = "cloud"
    subcommand = "systole"
    ops_per_s = 1.92
    trace_ops_per_s = 2.0

    def config(self, seed, index):
        rng, _ = op_draw(seed, index)
        m = random_sl2z(rng)
        # integer JSON entries, as a user types them
        return {"min_poly": [1, 0, 1],
                "places": {"archimedean": "all", "finite_primes": [5]},
                "window": {"H": 2, "E": 1},
                "systole": {"n": 2, "matrices": [m, m, m]}}

    def check(self, config, outdir, first):
        with open(os.path.join(outdir, "systole.json"), encoding="utf-8") as fh:
            row = json.load(fh)["rows"][0]
        cfg = cli.parse_config(config)
        m = config["systole"]["matrices"][0]
        z = []
        for part in _parse_tuple(row["witness"]):
            coords = _parse_tuple(part) if part.startswith("(") else [part]
            z.append(cfg.field.element([Fraction(c) for c in coords]))
        comps = [[sum((m[i][j] * z[j] for j in range(2)), cfg.field.zero())
                  for i in range(2)] for _ in cfg.places]
        exact = sadic.content(sadic.SAdicVector(cfg.places, comps, 2), dps=50)
        if not _rel_close(exact, row["min_content"], 1e-9):
            return f"cloud: witness content {exact} != min_content"
        if first:
            lat = lattice.SLattice(cfg.field, cfg.places, 2,
                                   config["systole"]["matrices"])
            oracle = min(sadic.content(v, dps=50)
                         for _, v in lattice.enumerate_points(lat, cfg.window))
            if not _rel_close(oracle, row["min_content"], 1e-9):
                return f"cloud: enumeration minimum {oracle} != min_content"
        return None


# ---------------------------------------------------------------------------
# forms: form-spectrum of x(sqrt(d) x - y), with rational controls


class Forms:
    name = "forms"
    subcommand = "form-spectrum"
    ops_per_s = 2.2
    trace_ops_per_s = 1.2
    control_share = 0.25

    def config(self, seed, index):
        rng, u = op_draw(seed, index)
        if u < self.control_share:
            a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            b = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            second = [str(a), str(-b)]
        else:
            v = (u - self.control_share) / (1 - self.control_share)
            d = _SQUAREFREE[int(v * len(_SQUAREFREE))]
            second = [{"a": 0, "b": 1, "d": d}, -1]
        return {"min_poly": [0, 1],
                "form": {"factors": [[1, 0], second]},
                "spectrum": {"heights": [10, 100, 1000], "cap": 0.9}}

    @staticmethod
    def is_control(config):
        return not isinstance(config["form"]["factors"][1][0], dict)

    def check(self, config, outdir, first):
        def scalar(c):
            if isinstance(c, dict):
                return QuadraticSurd(Fraction(c["a"]), Fraction(c["b"]), c["d"])
            return Fraction(c)

        field = numberfield.create_field(config["min_poly"])
        rows = [[scalar(c) for c in row] for row in config["form"]["factors"]]
        form = forms.make_form(field, numberfield.archimedean_places(field),
                               [rows])
        with open(os.path.join(outdir, "spectrum.csv"), encoding="utf-8") as fh:
            for entry in csv.DictReader(fh):
                z = [Fraction(c) for c in _parse_tuple(entry["witness"])]
                value = abs(forms.evaluate_form(form, z)[0])
                exact = value.to_mpf(50) if isinstance(value, QuadraticSurd) \
                    else mpf(value.numerator) / value.denominator
                if not _rel_close(exact, entry["magnitude"], 1e-12):
                    return f"forms: witness {entry['witness']} gives {exact}"
        if self.is_control(config):
            with open(os.path.join(outdir, "form-spectrum.json"),
                      encoding="utf-8") as fh:
                verdict = json.load(fh).get("verdict")
            if verdict != "discrete-trend":
                return f"forms: rational control got {verdict!r}"
        return None


WORKLOADS = {w.name: w for w in (Survey(), Cloud(), Forms())}
