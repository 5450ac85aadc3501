#!/usr/bin/env python3
"""Torus-orbit divergence surveys over S = {real, 2-adic}.

Three stories:
  * the identity coset: every single-place ray escapes to the cusp, but
    the coupled ray s = k log 2 keeps the systole pinned at 1;
  * a point built from a unipotent at one place only: locally divergent,
    yet a staircase ray dips into the cusp and comes back (the orbit does
    not close up);
  * the anisotropic quadratic-form point: the flow never leaves a compact
    set, the sup-norm systole stays at sqrt(2).
"""

from sadiclab import (
    HeightWindow,
    RaySchedule,
    SLattice,
    anisotropic_point,
    create_field,
    divergence_survey,
    locally_divergent_example,
    trajectory,
)
from sadiclab.numberfield import archimedean_places, finite_places

field = create_field([0, 1])
S = archimedean_places(field) + finite_places(field, 2)
window = HeightWindow(40, 8)


def show(survey, title):
    print(f"-- {title} (prediction: {survey.prediction or 'none'})")
    for ray in survey.rays:
        print(f"   {ray.name:22s} {ray.classification}")
    print("   consistent with theory:", survey.consistent, "\n")


identity = SLattice.identity(field, S, 2)
show(divergence_survey(identity, [S[0]], window, steps=14,
                       heat_s=[0.0], heat_k=[0]),
     "identity, real place only")
show(divergence_survey(identity, S, window, steps=14,
                       heat_s=[0.0], heat_k=[0]),
     "identity, full S")

pair = locally_divergent_example(field, S)
print("unipotent pair representative (first place):",
      [[str(c) for c in row] for row in pair.g[0]])
show(divergence_survey(pair, [S[1]], window, steps=14,
                       heat_s=[0.0], heat_k=[0]),
     "unipotent pair, 2-adic place only")
survey = divergence_survey(pair, S, window, steps=14,
                           heat_s=[0.0], heat_k=[0])
show(survey, "unipotent pair, full S")

stair = next(r for r in survey.rays if r.classification == "recurrent")
print(f"systole along the recurrent ray {stair.name}:")
print("  ", " ".join(f"{content:.2e}" for content in stair.contents[:8]))

aniso = anisotropic_point(field, archimedean_places(field))
ray = RaySchedule(archimedean_places(field), [(1, -1)],
                  [[10 * i / 29 for i in range(30)]])
rows = trajectory(aniso, ray, HeightWindow(40))
print("\nanisotropic point: sup-norm systole along s in [0, 10]:",
      f"min = {min(r.min_supnorm for r in rows):.12f} (never below 1)")
