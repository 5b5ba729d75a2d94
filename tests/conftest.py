"""Shared fixtures: a menagerie of platforms used across the test suite."""

from __future__ import annotations

import pytest

from repro.lp import SimplexInstance
from repro.platform import generators as gen


@pytest.fixture
def exact_solves(monkeypatch):
    """Every exact solve of the test, as ``(proposed, pivots,
    certified)``: whether a basis proposer was passed (the
    objective-only path), the exact pivots taken and whether the start
    basis was certified."""
    calls = []
    real = SimplexInstance.solve

    def spy(self, warm=False, propose=None):
        before = self.certified
        sol = real(self, warm=warm, propose=propose)
        calls.append((propose is not None, sol.pivots,
                      self.certified - before))
        return sol

    monkeypatch.setattr(SimplexInstance, "solve", spy)
    return calls


@pytest.fixture
def star4():
    """Heterogeneous star: the closed-form oracle platform."""
    return gen.star(4, master_w=2, worker_w=[1, 2, 3, 4], link_c=[1, 1, 2, 3])


@pytest.fixture
def fig1():
    """The paper's Figure 1 example platform."""
    return gen.paper_figure1()


@pytest.fixture
def fig2():
    """The paper's Figure 2 multicast counterexample platform."""
    return gen.paper_figure2_multicast()


@pytest.fixture
def grid33():
    return gen.grid2d(3, 3, seed=3)


@pytest.fixture
def tree3():
    return gen.binary_tree(3, seed=5)


@pytest.fixture
def rand8():
    return gen.random_connected(8, seed=42)


def platform_family():
    """(name, platform, master) triples covering every generator family."""
    return [
        ("star", gen.star(4, master_w=2, worker_w=[1, 2, 3, 4],
                          link_c=[1, 1, 2, 3]), "M"),
        ("fig1", gen.paper_figure1(), "P1"),
        ("chain", gen.chain(4, node_w=2, link_c=1), "N0"),
        ("tree", gen.binary_tree(2, seed=7), "T0"),
        ("grid", gen.grid2d(2, 3, seed=1), "G0_0"),
        ("random", gen.random_connected(7, seed=13), "R0"),
        ("forwarders", gen.random_connected(7, seed=99, forwarder_prob=0.4),
         "R0"),
        ("clustered", gen.clustered(2, 3, seed=21), "C0_0"),
    ]


@pytest.fixture(params=platform_family(), ids=lambda t: t[0])
def any_platform(request):
    return request.param
