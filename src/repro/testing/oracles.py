"""Equations (8) and (35) unfactored: the branch-edit model's test oracle.

One O(τ³) triple loop over the exact Ω factors per ``(τ, ϕ)`` — the sums
:class:`~repro.core.model.BranchEditModel` evaluates factored, as ``Ω3 · P_τ``.
"""

from __future__ import annotations

from repro.core.omegas import (
    branch_type_count,
    omega1,
    omega1_dtau,
    omega2,
    omega2_dtau,
    omega3,
    omega4,
)

__all__ = ["lambda1_dtau_oracle", "lambda1_oracle"]


def lambda1_oracle(
    extended_order: int, num_vertex_labels: int, num_edge_labels: int, tau: int, phi: int
) -> float:
    """``Λ1(τ, ϕ)`` (Equation 8), summed in the order the paper writes it."""
    v = extended_order
    if tau < 0 or phi < 0:
        return 0.0
    if tau == 0:
        return 1.0 if phi == 0 else 0.0
    if phi > min(2 * tau, v):
        return 0.0
    branch_types = branch_type_count(v, num_vertex_labels, num_edge_labels)
    total = 0.0
    for x in range(tau + 1):
        weight_x = float(omega1(x, tau, v))
        if weight_x == 0.0:
            continue
        inner_m = 0.0
        for m in range(min(2 * (tau - x), v) + 1):
            weight_m = float(omega2(m, x, tau, v))
            if weight_m == 0.0:
                continue
            inner_r = 0.0
            for r in range(min(x + m, v) + 1):
                weight_r = float(omega4(x, r, m, v))
                if weight_r == 0.0:
                    continue
                inner_r += float(omega3(r, phi, branch_types)) * weight_r
            inner_m += weight_m * inner_r
        total += weight_x * inner_m
    return total


def lambda1_dtau_oracle(
    extended_order: int, num_vertex_labels: int, num_edge_labels: int, tau: int, phi: int
) -> float:
    """``dΛ1/dτ(τ, ϕ)``, the numerator of Equation (35), summed term by term."""
    v = extended_order
    if tau <= 0 or phi < 0 or phi > min(2 * max(tau, 1), v):
        return 0.0
    branch_types = branch_type_count(v, num_vertex_labels, num_edge_labels)
    total = 0.0
    for x in range(tau + 1):
        weight_x = float(omega1(x, tau, v))
        weight_x_dtau = float(omega1_dtau(x, tau, v))
        if weight_x == 0.0 and weight_x_dtau == 0.0:
            continue
        inner_m = 0.0
        inner_m_dtau = 0.0
        for m in range(min(2 * (tau - x), v) + 1):
            weight_m = float(omega2(m, x, tau, v))
            weight_m_dtau = float(omega2_dtau(m, x, tau, v))
            if weight_m == 0.0 and weight_m_dtau == 0.0:
                continue
            inner_r = 0.0
            for r in range(min(x + m, v) + 1):
                weight_r = float(omega4(x, r, m, v))
                if weight_r == 0.0:
                    continue
                inner_r += float(omega3(r, phi, branch_types)) * weight_r
            inner_m += weight_m * inner_r
            inner_m_dtau += weight_m_dtau * inner_r
        total += weight_x * inner_m_dtau + weight_x_dtau * inner_m
    return total
