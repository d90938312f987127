# The ground-state dichotomy in action: amplitudes c Q below the threshold
# disperse (potential term decays), amplitudes above it self-focus until the
# grid flags blow-up.  Thresholds are predicted statically and confirmed
# dynamically.  A global run's Morawetz sum S(l) = int_0^l potential grows
# like l^e with e below the bound (1 + beta)/2; a standing wave has e = 1.

import math

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
        (l1, s1), (l2, s2) = sd.morawetz_windows
        print(f"   Morawetz S({l1:g}) = {s1:.4f}, S({l2:g}) = {s2:.4f}: "
              f"exponent {math.log(s2 / s1) / math.log(l2 / l1):.3f}, "
              f"bound {(1 + sd.beta) / 2:.3f}, sublinear {sd.sublinear_ok}")
    else:
        print(f"   blow-up time estimate {out.blowup_time_estimate}")
    print()
