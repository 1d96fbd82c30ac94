"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from krtorus.cartan import DynkinDatum, build_frame

CLI_TYPES = (
    [("A", r) for r in range(1, 15)]
    + [("D", r) for r in range(4, 15)]
    + [("E", r) for r in (6, 7, 8)]
)


@st.composite
def oriented_frames(draw):
    """A frame of any type the CLI accepts, with a random orientation and
    height anchor."""
    family, rank = draw(st.sampled_from(CLI_TYPES))
    edges = DynkinDatum(family, rank).edges
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    arrows = {(b, a) if f else (a, b) for (a, b), f in zip(edges, flips)}
    anchor = (draw(st.integers(1, rank)), draw(st.integers(-20, 20)))
    return build_frame(family, rank, arrows, anchor)
