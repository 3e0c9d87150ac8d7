"""MixQ row labels: one spelling of each λ across the node and graph tables."""

import inspect

import pytest

from repro.experiments import graph_tables
from repro.experiments.common import mixq_label
from repro.experiments.node_tables import EPSILON_LAMBDA


@pytest.mark.parametrize("lambda_value, label", [
    (EPSILON_LAMBDA, "MixQ(λ=-ε)"),
    (-1e-5, "MixQ(λ=-ε)"),
    # the ε band is open at -1e-4: that λ prints as a number
    (-1e-4, "MixQ(λ=-0.0001)"),
    (0.0, "MixQ(λ=0)"),
    (0.1, "MixQ(λ=0.1)"),
    (1.0, "MixQ(λ=1)"),
])
def test_mixq_label(lambda_value, label):
    assert mixq_label(lambda_value) == label


def test_table8_gentle_row_is_labelled_like_the_node_tables():
    """Table 8's default λ grid labels its gentle row as the node tables and
    Table 9 do."""
    lambdas = inspect.signature(
        graph_tables.table8_graph_classification).parameters["lambdas"].default
    assert [mixq_label(lam) for lam in lambdas] == ["MixQ(λ=-ε)", "MixQ(λ=1)"]
