# Exact rational exponent bookkeeping for the scattering machinery:
# admissible pairs, the (q, r, k, m) quadruple, the auxiliary (l, delta),
# the Morawetz decay rate beta, and the dispersive interpolation choice.

from fractions import Fraction as F

from inls_lab import Params
from inls_lab.exponents import (
    admissible_check,
    auxiliary_exponents,
    dispersive_n_feasible,
    morawetz_beta,
    scattering_alpha_window,
    scattering_exponents,
)

for N, b, p in [(3, F(1), F(4)), (2, F(1), F(6)), (4, F(1), F(3))]:
    params = Params(N, float(b), float(p))
    print(f"--- (N, b, p) = ({N}, {b}, {p}) ---")
    try:
        alpha, beta = morawetz_beta(params)
    except ValueError as e:
        print(f"  no Morawetz data: {e}\n")
        continue
    print(f"  alpha = p - 1 - 2b/(N-1) = {alpha},  beta = {beta}")
    lo, hi = scattering_alpha_window(N)
    print(f"  admissible alpha window: ({lo}, {hi if hi else 'inf'})")
    try:
        q, r, k, m = scattering_exponents(alpha, N)
        l, d = auxiliary_exponents(alpha, N)
        print(f"  q = {q}, r = {r}, k = {k}, m = {m}")
        print(f"  1/k + 1/m = {1/k + 1/m} = 2/q exactly")
        print(f"  l = {l}, delta = {d}; (q,r) admissible: "
              f"{admissible_check(q, r, N)}, (k,l) admissible: "
              f"{admissible_check(k, l, N)}")
        rep = dispersive_n_feasible(alpha, N)
        if rep.feasible:
            print(f"  dispersive choice: 1/n = "
                  f"{0 if rep.n is None else 1/rep.n}, theta = {rep.theta}")
        else:
            print(f"  dispersive interpolation infeasible: {rep.violations}")
    except ValueError as e:
        print(f"  exponents degenerate: {e}")
    print()
