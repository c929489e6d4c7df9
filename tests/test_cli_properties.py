"""Property tests of the CLI input contract: no input ends in a traceback."""

import json

import numpy as np
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


# Values of the wrong type that a JSON config can carry.
_WRONG_TYPES = st.one_of(st.booleans(), st.text(max_size=3), st.none())


@st.composite
def _simulate_configs(draw):
    dims = {k: draw(st.integers(0, 14)) for k in ("d_y1", "d_z1", "d_z2")}
    # Some draws put n near the instrument count, where Z = [Z1 | Z2]
    # stops having full column rank.
    dz = dims["d_z1"] + dims["d_z2"]
    dgp = {
        "n": draw(st.integers(1, 40) | st.integers(max(1, dz - 4), dz + 4)),
        **dims,
        "beta": [1.0] * dims["d_y1"],
        "gamma": [1.0] * dims["d_z1"],
        "rho": draw(st.lists(st.floats(-1.0, 1.0), min_size=dims["d_y1"], max_size=dims["d_y1"])),
        "pi2_strength": draw(st.floats(0.0, 2.0)),
        "intercept": draw(st.booleans()),
    }
    sim = {"replications": draw(st.integers(1, 3)), "seed": draw(st.integers(0, 2**32))}
    if draw(st.integers(0, 3)) == 0:
        section, key = draw(st.sampled_from([("dgp", k) for k in dgp] + [("sim", k) for k in sim]))
        (dgp if section == "dgp" else sim)[key] = draw(_WRONG_TYPES)
    doc = {"schema_version": 1, "dgp": dgp, "sim": sim}
    if draw(st.integers(0, 3)) == 0:
        doc["rho_grid"] = draw(st.lists(st.one_of(_WRONG_TYPES, st.floats(-1.0, 1.0),
                                                  st.lists(st.floats(-1.0, 1.0), max_size=3)),
                                        min_size=1, max_size=2))
    return doc


@settings(max_examples=500, deadline=None)
@given(doc=_simulate_configs())
def test_random_simulate_configs_never_crash(tmp_path_factory, doc):
    """A small ``simulate`` config, possibly with wrongly typed fields, ends in
    a documented exit code, never a traceback."""
    path = tmp_path_factory.getbasetemp() / "random_simulate.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--format", "json"]) in (0, 2, 3, 5)


# F1's columns plus three like them: a fresh draw, a constant (it collides
# with the intercept) and a multiple of z1 (it collides with z1).
_EXTRA_COLUMNS = ("w", "k", "d")


@st.composite
def _role_assignments(draw):
    """``test`` or ``verify`` argv that gives the next few of the shuffled non-outcome
    columns each role in turn (the rest get none), the intercept on or off, a random format."""
    columns = draw(st.permutations(("x", "z1", "z2", *_EXTRA_COLUMNS)))
    command = draw(st.sampled_from(("test", "verify")))
    argv = ["--outcome", "y", "--format", draw(st.sampled_from(("table", "json", "csv")))]
    # Each count shrinks towards its first entry, a model that identifies.
    for flag, counts in (("--endog", (1, 2, 1, 0)), ("--exog", (0, 1, 2)), ("--iv", (2, 3, 2, 1, 4, 0))):
        count = draw(st.sampled_from(counts))
        argv += [flag, ",".join(columns[:count]) or "none"]
        columns = columns[count:]
    if draw(st.booleans()):
        argv.append("--add-intercept")
    return command, argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_role_assignments())
def test_random_role_assignments_never_crash(tmp_path_factory, f1_path, case):
    """Any role assignment of F1-like columns ends in a documented exit code, never a traceback."""
    with open(f1_path) as fh:
        header, *body = fh.read().splitlines()
    w = np.random.default_rng(22).standard_normal(len(body)).tolist()
    rows = [f"{row},{w_i!r},3.0,{2.0 * float(row.split(',')[2])!r}" for row, w_i in zip(body, w)]
    path = tmp_path_factory.getbasetemp() / "random_roles.csv"
    path.write_text("\n".join([f"{header},{','.join(_EXTRA_COLUMNS)}", *rows]) + "\n")
    command, argv = case
    assert main([command, str(path), *argv]) in (0, 2, 3, 4)
