"""Closed-form references that tests check the built rows and costs against."""


def simulate_state_of_charge(params, initial: float, charges, discharges,
                             inflows=None, hours_per_step: float = 1.0) -> list[float]:
    """Reference recursion for the storage balance."""
    soc = [initial]
    decay = (1.0 - params.self_discharge) ** hours_per_step
    for t, (cin, cout) in enumerate(zip(charges, discharges)):
        extra = inflows[t] if inflows is not None else 0.0
        soc.append(decay * soc[-1]
                   + params.charge_efficiency * cin
                   - cout / params.discharge_efficiency
                   + extra)
    return soc[1:]


def network_branch_capex(branch, size_mw: float) -> float:
    """Overnight investment (kEUR) for ``size_mw`` of new capacity on ``branch``.

    Zero at zero size; otherwise the full polynomial including fixed terms,
    clamped at zero against pathological negative-cost regions.
    """
    if size_mw < 0:
        raise ValueError("size must be nonnegative")
    if size_mw == 0:
        return 0.0
    _, g2, _, g4 = branch.cost_poly
    value = branch.fixed_cost + g2 * size_mw + g4 * branch.length_km * size_mw
    return max(0.0, value)
