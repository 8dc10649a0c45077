#!/usr/bin/env python3
"""Walk the satellite attitude-correction design point end to end.

chi0 = 1e-3, a = 1 nm, rho = 1 g/cm^3, prefactor 1e-2, half the satellite
mass active: one pi-rotation cycle of the active mass should buy about
1 um/s of tangential velocity at 1 m, i.e. roughly five degrees per day of
attitude authority.
"""

import json

from zpfdrive import (
    MagnetoElectricTensor,
    MissionSpec,
    Particle,
    VacuumModel,
    delta_v_rotation,
    evaluate_mission,
    solve_for_unknown,
    tangential_v_to_rate,
    vacuum_momentum_closed_form,
)


def main() -> None:
    spec = MissionSpec(
        target_rate=4.95,  # deg/day, the 1 um/s @ 1 m equivalent
        wheel_radius=1.0,
        satellite_mass=100.0,
        active_mass_fraction=0.5,
        particle_size=1e-9,
        particle_density=1000.0,
        chi0=1e-3,
        prefactor_A=1e-2,
    )
    model = VacuumModel(prefactor_a=spec.prefactor_A)
    particle = Particle(
        size_a=spec.particle_size,
        density_rho=spec.particle_density,
        tensor=MagnetoElectricTensor.from_xy(spec.chi0),
    )

    p_vac = vacuum_momentum_closed_form(spec.chi0, spec.particle_size, model)
    dv = delta_v_rotation(particle, model)
    report = evaluate_mission(spec)
    payload = report.achieved_tangential_v  # the active fraction of dv
    print(f"stored vacuum momentum : {p_vac.value:.4e} kg m/s per particle")
    print(f"pi-rotation delta-v    : {dv.value:.4e} m/s")
    print(f"payload delta-V        : {payload:.4e} m/s")
    print(f"equivalent rate        : {tangential_v_to_rate(payload, spec.wheel_radius):.3f} deg/day")

    print("design point          :", json.dumps(report.to_dict()))

    weak = evaluate_mission(
        MissionSpec(**{**spec.to_dict(), "chi0": 1e-4})
    )
    print("reported-material gap :", json.dumps(weak.to_dict()))

    chi_needed = solve_for_unknown(MissionSpec(**{**spec.to_dict(), "chi0": None}), "chi0")
    print(f"chi0 needed for margin 1: {chi_needed:.4e}")


if __name__ == "__main__":
    main()
