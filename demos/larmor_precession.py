"""Spin precession in an axial magnetic field.

A state tilted away from e3 precesses about the field at the frequency
q B3 / m while its polar angle stays put.  The trajectory is generated by
rotor dynamics and compared against the closed trigonometric form at every
sample.
"""

import argparse
import math

import numpy as np

from gatss import FieldConfig, polar_state, trajectory


def run(b3, theta0, t_end, steps, hbar):
    cfg = FieldConfig(B=(0.0, 0.0, b3), hbar=hbar)
    w = cfg.omega_axial
    grid = np.linspace(0.0, t_end, steps)
    table = trajectory(cfg, polar_state(theta0), grid)
    rows = list(zip(table["t"], table["s1"], table["s2"], table["s3"]))

    print(f"B3 = {b3}, theta0 = {theta0}, hbar = {hbar}")
    print(f"precession frequency = {w}")
    print()
    print(f"{'t':>8} {'<S1>':>12} {'<S2>':>12} {'<S3>':>12}")
    stride = max(1, steps // 10)
    for t, s1, s2, s3 in rows[::stride]:
        print(f"{t:8.3f} {s1:12.6f} {s2:12.6f} {s3:12.6f}")
    print()

    worst = 0.0
    half = 0.5 * hbar
    for t, s1, s2, s3 in rows:
        worst = max(
            worst,
            abs(s1 - half * math.sin(theta0) * math.cos(w * t)),
            abs(s2 + half * math.sin(theta0) * math.sin(w * t)),
            abs(s3 - half * math.cos(theta0)),
        )
    print(f"closed form reproduced to {worst:.3e} over {steps} samples")

    # the axial component and the tilt are conserved
    s3_vals = [row[3] for row in rows]
    print(f"<S3> spread = {max(s3_vals) - min(s3_vals):.3e}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--b3", type=float, default=1.0, help="axial field strength")
    parser.add_argument("--theta0", type=float, default=math.pi / 3, help="initial tilt")
    parser.add_argument("--t-end", type=float, default=10.0)
    parser.add_argument("--steps", type=int, default=101)
    parser.add_argument("--hbar", type=float, default=1.0)
    args = parser.parse_args()
    run(args.b3, args.theta0, args.t_end, args.steps, args.hbar)
