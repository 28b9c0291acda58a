#!/usr/bin/env python3
"""Marching the competition strength toward the segregation limit.

Runs the barrier model on a two-ball dumbbell with a doubling kappa ramp
and prints, per step, the largest support overlap, the worst non-invasion
entry (a species' amplitude inside the foreign ball), the energy, and the
H1 distance to the previous state.  Writes graymap images of the final
segregated state to out/demos/ under the working directory.
"""

from pathlib import Path

import seglv as sg


def main():
    h = 1 / 16
    balls = [sg.BallSpec((0.0, 0.0), 1.0, 0), sg.BallSpec((4.0, 0.0), 1.0, 1)]
    corridors = [sg.CorridorSpec(0, 1, 0.3)]
    domain = sg.build_domain(balls, corridors, (-1.25, -1.25, 5.25, 1.25), h)

    baselines, species = [], []
    for i in range(2):
        region = domain.species_ball_mask(i)
        guess, lam1 = sg.positive_branch_guess(domain, region)
        sp = sg.SpeciesParams(lam=2 * lam1, p=2.0)
        species.append(sp)
        baselines.append(sg.solve_ball(sp, region, domain, guess).solution)
    baseline = sg.StateField(baselines)

    model = sg.ModelKind.barrier(baseline)
    schedule = sg.ContinuationSchedule(4.0, 2.0, 15)
    trace = sg.continuation_run(domain, species, model, schedule)
    if trace.failure:
        print("continuation stopped early:", trace.failure)

    print(f"{'kappa':>9} {'iters':>5} {'overlap':>10} {'invasion':>10} "
          f"{'energy':>12} {'H1 step':>10}")
    prev = None
    for step in trace.steps:
        d = step.diagnostics
        invasion = max(d.noninvasion[0, 1], d.noninvasion[1, 0])
        h1_step = sg.h1_distance(step.state, prev) if prev is not None else float("nan")
        print(f"{step.kappa:>9.0f} {step.newton_iterations:>5} "
              f"{d.overlap_matrix.max():>10.3e} {invasion:>10.3e} "
              f"{d.energy:>12.6f} {h1_step:>10.3e}")
        prev = step.state

    final = trace.final_state()
    fb = sg.free_boundary(final)
    in_corridor = all(domain.corridor_flag[a] and domain.corridor_flag[b]
                      for _, a, b in fb.edges)
    print(f"free boundary: {len(fb)} threshold-crossing edges, "
          f"all inside the corridor: {in_corridor}")

    outdir = Path("out", "demos")
    outdir.mkdir(parents=True, exist_ok=True)
    for i, u in enumerate(final):
        path = outdir / f"segregated_u{i}.pgm"
        sg.emit_image(u, path)
        print("wrote", path)
    path = outdir / "segregated_total.pgm"
    sg.emit_image(sg.ScalarField(domain, final[0].values + final[1].values), path)
    print("wrote", path, "(two disjoint bright territories)")


if __name__ == "__main__":
    main()
