#!/usr/bin/env python3
"""Multistart uniqueness probe and isolation of the baseline tuple.

First reconverges the barrier system from seeded perturbations of the
baseline on a disconnected (corridor-free) two-ball domain: the baseline
tuple is isolated, so every restart collapses back onto it.  Then runs the
uniqueness probe around the segregated state at large kappa on the joined
domain: all restarts land on the same state to solver accuracy.
"""

import seglv as sg


def main():
    h = 1 / 16
    balls = [sg.BallSpec((0.0, 0.0), 1.0, 0), sg.BallSpec((4.0, 0.0), 1.0, 1)]

    def setup(domain):
        baselines, species = [], []
        for i in range(2):
            region = domain.species_ball_mask(i)
            guess, lam1 = sg.positive_branch_guess(domain, region)
            sp = sg.SpeciesParams(lam=2 * lam1, p=2.0)
            species.append(sp)
            baselines.append(sg.solve_ball(sp, region, domain, guess).solution)
        return species, sg.StateField(baselines)

    print("-- isolation on the disconnected domain --")
    island = sg.build_domain(balls, [], (-1.25, -1.25, 5.25, 1.25), h)
    species, baseline = setup(island)
    model = sg.ModelKind.barrier(baseline)
    scale = sg.state_h1_norm(baseline)
    for kappa in (1e2, 1e4):
        worst = 0.0
        for trial in range(5):
            start = baseline + sg.seeded_perturbation(island, 2, 0.02, 40 + trial)
            solution, iters = sg.solve_system(start, species, model, kappa, 1e-10)
            worst = max(worst, sg.h1_distance(solution, baseline) / scale)
        print(f"kappa = {kappa:g}: 5 perturbed restarts reconverge to the "
              f"baseline within {worst:.2e} relative H1")

    print("-- uniqueness of the segregated state --")
    joined = sg.build_domain(balls, [sg.CorridorSpec(0, 1, 0.3)],
                             (-1.25, -1.25, 5.25, 1.25), h)
    species, baseline = setup(joined)
    model = sg.ModelKind.barrier(baseline)
    schedule = sg.ContinuationSchedule(4.0, 2.0, 13)
    trace = sg.continuation_run(joined, species, model, schedule)
    kappa = trace.kappas()[-1]
    center = trace.final_state()
    report = sg.uniqueness_probe(joined, species, model, kappa, center,
                                 delta=0.02, trials=8, seed=7)
    rel = report.max_pairwise_h1_distance / sg.state_h1_norm(center)
    print(f"kappa = {kappa:g}: {report.trials} trials, all converged = "
          f"{report.all_converged}, max pairwise H1 distance {rel:.2e} relative")


if __name__ == "__main__":
    main()
