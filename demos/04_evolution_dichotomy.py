# The ground-state dichotomy in action: amplitudes c Q below the threshold
# disperse (potential term decays), amplitudes above it self-focus until the
# grid flags blow-up.  Thresholds are predicted statically and confirmed
# dynamically.

from inls_lab import (
    Params,
    RadialField,
    StepperConfig,
    evolve,
    make_grid,
    shoot,
    threshold_report,
)
from inls_lab.evolution import scattering_diagnostics
from inls_lab.functionals import dichotomy_products, grad_mass_energy

params = Params(3, 1.0, 4.0)
gs = shoot(params)
grid = make_grid(40.0, 5e-3, 3)
q = gs.resample(grid)

_, g_thresh = dichotomy_products(*grad_mass_energy(gs.profile, params),
                                 params.sigma_c)
print(f"ground-state gradient threshold: {g_thresh:.4f}\n")

for c in (0.5, 0.8, 1.2):
    u0 = RadialField(grid, (c * q.values).astype(complex))
    rep = threshold_report(u0, params, gs)
    res = evolve(u0, params, StepperConfig(dt=1e-3, t_end=1.5))
    out = res.outcome
    print(f"c = {c}: predicted {rep.verdict.value}, run {out.status.value} "
          f"at t = {out.t_final:g}")
    d = res.diagnostics
    print(f"   mass drift {max(abs(m - d.mass[0]) for m in d.mass) / d.mass[0]:.1e}, "
          f"energy drift {out.energy_drift_max:.1e}, "
          f"gradient growth x{out.gradient_growth:.1f}")
    if out.status.value == "CompletedGlobal":
        sd = scattering_diagnostics(d, params, outcome=out)
        print(f"   potential: initial {sd.potential_initial:.4f}, "
              f"running min {sd.potential_running_min:.4f} "
              f"(decay toward scattering)")
    else:
        print(f"   blow-up time estimate {out.blowup_time_estimate}")
    print()
