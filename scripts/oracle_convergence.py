#!/usr/bin/env python3
"""Mode-sum oracle study: grid convergence of effective_A and the 1/a law.

Writes the convergence table to oracle_convergence.csv, prints each
effective_A with its relative gap to the continuum value, and prints the
fitted log-log slope of |p| versus size, which should sit at -1.
"""

import argparse
import math

import numpy as np

from zpfdrive import CutoffConvention, convergence_study


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chi", type=float, default=1e-3)
    parser.add_argument("--out", type=str, default="oracle_convergence.csv")
    parser.add_argument(
        "--cutoff",
        choices=[c.value for c in CutoffConvention],
        default=CutoffConvention.HALF_WAVELENGTH.value,
    )
    args = parser.parse_args()
    convention = CutoffConvention(args.cutoff)

    sizes = [1e-9, 2e-9, 4e-9, 8e-9]
    n_values = [16, 32, 64, 128]
    rows = convergence_study(args.chi, sizes, n_values, convention=convention, out=args.out)
    print(f"wrote {len(rows)} rows to {args.out}")

    continuum = (
        math.pi**2 / 24 if convention is CutoffConvention.HALF_WAVELENGTH else 2 * math.pi**2 / 3
    )
    by_n = {}
    for row in rows:
        by_n.setdefault(row["n_per_axis"], []).append(row)
    for n in n_values:
        eff = by_n[n][0]["effective_A"]
        print(f"n_per_axis={n:4d}  effective_A={eff:.6f}  rel_gap={eff / continuum - 1:+.3e}")

    momenta = [abs(row["p_kg_m_s"]) for row in by_n[64]]
    slope = np.polyfit(np.log(sizes), np.log(momenta), 1)[0]
    print(f"fitted |p| ~ a^s slope at n=64: s = {slope:.6f} (expect -1)")
    print(f"continuum effective_A under {convention.value}: {continuum:.6f}")


if __name__ == "__main__":
    main()
