"""Property tests of the CLI input contract: no input ends in a traceback."""

from hypothesis import given, settings, strategies as st

from endocheck.cli import main

_SIZE_KEYS = ("n", "d_y1", "d_z1", "d_z2")
# Integers stay small and the free text holds no decimal digit, so no value
# parses to a size that would allocate a large dataset.
_TOKEN_VALUES = st.one_of(
    st.integers(-3, 120).map(str),
    st.floats().map(repr),
    st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")), max_size=4),
)
_TOKENS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(_SIZE_KEYS + ("seed", "rho", "c")), _TOKEN_VALUES).map("=".join),
        st.tuples(st.sampled_from(("seed", "rho", "c")), st.integers().map(str)).map("=".join),
        st.text(alphabet="abcnz=_", max_size=6),
    ),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(tokens=_TOKENS)
def test_random_tokens_never_crash(tokens):
    """Any ``--random`` token list ends in a documented exit code, never a traceback."""
    assert main(["verify", "--random", *tokens]) in (0, 2, 3, 4, 5)
