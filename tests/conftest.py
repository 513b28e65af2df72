"""Shared test settings: one Hypothesis profile for every property test.

No deadline, because run times swing on shared machines, and no example
database, so a run neither reads nor writes `.hypothesis/`.
"""
from hypothesis import settings

settings.register_profile("shapefeat", deadline=None, database=None)
settings.load_profile("shapefeat")
