"""Mutation table for ``fgle verify``: each row swaps one wrong variant of the
scheme into the package by monkeypatching, runs ``verify_suite`` with its
defaults, and names the check families that must fail. No row edits the
source. Every row is caught.

``operator_symbol`` compares the assembled column with the symbol's cosine
coefficients, so it catches every row that changes the column alone: a
scaled column, a scaled ``c_0`` and a scaled Grunwald tail. A wrong shift
weight changes the column and the closed-form symbol alike, which the
symbol checks catch instead.

One family catches no row, and no row of this kind can reach it:
``energy_equivalence`` checks ``C_alpha |u|^2 <= (Delta_h u, u)_h <= |u|^2``
on random vectors. Their margins are far from zero (44 to 171 at the
defaults), so only a variant that moves an extreme eigenvalue of C across a
bound could fail it, and each row here perturbs C by at most a few percent,
or not at all.
"""

import dataclasses
import sys

import numpy as np
import pytest

from fgle import linalg, stepper, wsgd
from fgle.experiments import verify_suite

FAMILIES = {
    "coefficient_properties",
    "symbol_endpoints",
    "symbol_monotone",
    "symbol_constant",
    "symbol_bounds",
    "energy_equivalence",
    "operator_symbol",
    "step_energy_balance",
}
UNCAUGHT = {"energy_equivalence"}


def lambda_m1_sign_flipped(lambdas):
    return lambda alpha: (*lambdas(alpha)[:2], -lambdas(alpha)[2])


def lambda_1_scaled(lambdas):
    return lambda alpha: (lambdas(alpha)[0] * (1 + 1e-3), *lambdas(alpha)[1:])


def c_alpha_scaled(c_alpha):
    return lambda alpha: 1.05 * c_alpha(alpha)


def grunwald_tail_scaled(grunwald_coeffs):
    def wrong(alpha, L):
        g = grunwald_coeffs(alpha, L)
        g[5:] *= 1.001
        return g

    return wrong


def column_scaled(part, factor):
    """The variant that scales the entries ``part`` of the assembled column by ``factor``."""
    def variant(assemble_operator):
        def wrong(weights, M):
            operator = assemble_operator(weights, M)
            operator.column[part] *= factor
            return operator

        return wrong

    return variant


def gain_sign_flipped(build_system_matrix):
    # A built for -gamma has (1 + tau gamma / 2) on its diagonal
    return lambda params, grid, tau, operator: build_system_matrix(
        dataclasses.replace(params, gamma=-params.gamma), grid, tau, operator
    )


def hermitian_toeplitz(symmetric_toeplitz):
    # the row conjugated above the diagonal: a Hermitian A on the dense path
    def wrong(column):
        a = symmetric_toeplitz(column)
        return np.tril(a) + np.triu(a.conj(), 1)

    return wrong


# (owner, attribute, wrong variant of it, the families that must fail)
ROWS = [
    pytest.param(wsgd, "_lambdas", lambda_m1_sign_flipped,
                 {"symbol_bounds", "symbol_endpoints"}, id="lambda_m1-sign"),
    pytest.param(wsgd, "_lambdas", lambda_1_scaled,
                 {"symbol_bounds", "symbol_constant", "symbol_endpoints", "symbol_monotone"},
                 id="lambda_1-scaled"),
    pytest.param(wsgd, "c_alpha", c_alpha_scaled, {"symbol_bounds"}, id="c_alpha-scaled"),
    pytest.param(wsgd, "grunwald_coeffs", grunwald_tail_scaled,
                 {"coefficient_properties", "operator_symbol"}, id="g_l-tail-scaled"),
    pytest.param(wsgd, "assemble_operator", column_scaled(slice(2, None), 1.001),
                 {"operator_symbol"}, id="column-scaled"),
    pytest.param(wsgd, "assemble_operator", column_scaled(slice(None), 1.002),
                 {"operator_symbol"}, id="whole-column-scaled"),
    pytest.param(wsgd, "assemble_operator", column_scaled(0, 1.002),
                 {"operator_symbol"}, id="c_0-scaled"),
    pytest.param(stepper, "build_system_matrix", gain_sign_flipped, {"step_energy_balance"},
                 id="gain-sign"),
    pytest.param(linalg, "symmetric_toeplitz", hermitian_toeplitz,
                 {"step_energy_balance"}, id="hermitian-a"),
]


def swap_in(monkeypatch, owner, name, variant):
    """Replace ``owner.name`` by ``variant(original)``, in ``owner`` and in every
    fgle module that imported the original by name."""
    original = getattr(owner, name)
    wrong = variant(original)
    monkeypatch.setattr(owner, name, wrong)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "fgle" and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, wrong)


def failing_families(report):
    return {check.name for check in report.failures()}


def test_correct_scheme_passes_every_family():
    report = verify_suite()
    assert report.passed
    assert {check.name for check in report.checks} == FAMILIES


@pytest.mark.parametrize("owner, name, variant, families", ROWS)
def test_verify_catches_the_variant(monkeypatch, owner, name, variant, families):
    swap_in(monkeypatch, owner, name, variant)
    assert failing_families(verify_suite()) == families


def test_every_family_catches_a_row_or_is_excused():
    caught = set().union(*(row.values[3] for row in ROWS))
    assert caught | UNCAUGHT == FAMILIES
    assert not caught & UNCAUGHT
