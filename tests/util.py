"""Shared random-instance generators for the test suites.

Dyadic instances have masses k/2^10 and small integer levels, so every
partial sum and block product is exactly representable and value comparisons
on them are bit-exact; float instances use generic continuous draws. The
generators live with the acceptance suites so tests and the accept command
exercise identical distributions. ``count_layout_builds`` counts the mass
layouts that ``engine.bound_values`` builds.
"""

from coarse_bounds import engine
from coarse_bounds.acceptance import dyadic_ladder, float_ladder, random_act_belief

__all__ = ["count_layout_builds", "dyadic_ladder", "float_ladder", "random_act_belief"]


def count_layout_builds(monkeypatch) -> list:
    """Empty the mass layout that ``engine.bound_values`` keeps and record
    the key of every layout that ``engine._mass_layout`` builds from now on."""
    built, build = [], engine._mass_layout

    def counted(key):
        built.append(key)
        return build(key)

    monkeypatch.setattr(engine, "_last_layout", (None, None))
    monkeypatch.setattr(engine, "_mass_layout", counted)
    return built
