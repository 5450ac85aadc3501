#!/usr/bin/env python3
"""Tour of number fields, normalized places and the product formula.

Builds Q, Q(sqrt2) and Q(i), prints their places, and checks that the
product of |u|_v over S equals 1 for S-unit power products -- the identity
that makes the content of a vector invariant under unit scaling.
"""

import random
from fractions import Fraction

from sadiclab import (
    archimedean_places,
    create_field,
    field_norm,
    finite_places,
    s_unit_group,
)

random.seed(2024)

fields = {
    "Q": (create_field([0, 1]), [2, 3]),
    "Q(sqrt2)": (create_field([-2, 0, 1]), [7]),
    "Q(i)": (create_field([1, 0, 1]), [5]),
}

for name, (field, primes) in fields.items():
    places = archimedean_places(field)
    for p in primes:
        places += finite_places(field, p)
    print(f"== {name}: degree {field.degree}, discriminant {field.discriminant}")
    for v in places:
        extra = f" (p={v.p}, f={v.residue_degree})" if v.kind == "finite" else ""
        print(f"   place {v.name}: {v.kind}{extra}")

    units = s_unit_group(field, places)
    gens = [u for u in units.generators]
    print(f"   unit rank {units.rank}; generators "
          f"{[[str(c) for c in u.coords] for u in gens]}")

    # product formula on random power products of the generators
    for _ in range(3):
        exps = [random.randint(-3, 3) for _ in gens]
        u = units.power_product(exps)
        fin = Fraction(1)
        arch = 1.0
        for v in places:
            a = v.abs_value(u)
            if v.kind == "finite":
                fin *= a
            else:
                arch *= float(a)
        print(f"   exps {exps}: prod_v |u|_v = {arch * float(fin):.15f}")
    print()

# the normalized complex absolute value is the squared modulus, which is
# exactly what makes |N(z)| factor through the places
gauss = fields["Q(i)"][0]
z = gauss.element([2, 1])                       # 2 + i
v5a, v5b = finite_places(gauss, 5)
c0 = archimedean_places(gauss)[0]
print("2+i in Q(i):  |.|_complex =", float(c0.abs_value(z)),
      " |.| at the two places over 5 =",
      v5a.abs_value(z), v5b.abs_value(z),
      " N =", field_norm(z))
