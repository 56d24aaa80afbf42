"""States as members of a minimal left ideal.

The projector f = (1 + e3)/2 is idempotent and absorbs e3.  Multiplying it
from the left by anything in the algebra lands back inside the ideal, and
two amplitudes over the center (spanned by 1 and e123) coordinatize it.
This script walks through those facts numerically.
"""

import numpy as np

from gatss import (
    E1,
    E3,
    E123,
    Multivector,
    basis_eps,
    from_amplitudes,
    gp,
    idempotent_f,
    inner,
    left_mul,
    to_amplitudes,
)


def projector_facts():
    f = idempotent_f()
    print("f          =", f)
    print("f f        =", gp(f, f))
    print("e3 f       =", gp(E3, f))
    print("f e1 f     =", gp(f, gp(E1, f)))
    print()


def basis_and_amplitudes():
    eps_plus, eps_minus = basis_eps()
    print("eps_plus   =", eps_plus.mv)
    print("eps_minus  =", eps_minus.mv)
    for name, a, b in (
        ("<+|+>", eps_plus, eps_plus),
        ("<-|->", eps_minus, eps_minus),
        ("<+|->", eps_plus, eps_minus),
    ):
        print(f"  {name} = {inner(a, b)}")
    print()

    psi = from_amplitudes(0.6, 0.8j)
    print("state with amplitudes (0.6, 0.8i)")
    print("  as multivector:", psi.mv)
    cp, cm = to_amplitudes(psi)
    print("  read back:", cp, cm)
    print("  norm^2 =", inner(psi, psi))
    print()


def pseudoscalar_is_the_imaginary_unit():
    eps_plus, _ = basis_eps()
    rotated = left_mul(E123, eps_plus)
    cp, cm = to_amplitudes(rotated)
    print("e123 eps_plus has amplitudes", cp, cm)
    twice = left_mul(E123, rotated)
    cp, cm = to_amplitudes(twice)
    print("e123 e123 eps_plus has amplitudes", cp, cm)
    print()


def closure_spot_check(samples=2000, seed=0):
    """Left multiplication by random elements stays inside the ideal."""
    rng = np.random.default_rng(seed)
    eps_plus, _ = basis_eps()
    worst = 0.0
    for _ in range(samples):
        m = Multivector(rng.uniform(-10, 10, 8))
        c = left_mul(m, eps_plus).mv.coeffs
        worst = max(
            worst,
            abs(c[3] - c[0]),
            abs(c[6] - c[7]),
            abs(c[5] + c[1]),
            abs(c[4] - c[2]),
        )
    print(f"ideal closure over {samples} random left factors: worst residual = {worst:.1e}")


if __name__ == "__main__":
    projector_facts()
    basis_and_amplitudes()
    pseudoscalar_is_the_imaginary_unit()
    closure_spot_check()
