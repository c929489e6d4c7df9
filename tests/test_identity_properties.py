"""Property test: the exact identities and the statistic ordering hold on
random admissible datasets drawn from the simulation's data-generating process."""

import math

from hypothesis import assume, given, settings, strategies as st

from endocheck import DgpConfig, generate_dataset, validate, verify_identities


@st.composite
def dgp_configs(draw):
    d_y1 = draw(st.integers(1, 3))
    d_z1 = draw(st.integers(1, 2))
    return DgpConfig(
        n=draw(st.integers(30, 400)),
        d_y1=d_y1,
        d_z1=d_z1,
        d_z2=d_y1 + draw(st.integers(0, 3)),
        beta=(1.0,) * d_y1,
        gamma=(1.0,) * d_z1,
        # Log-uniform from a moderate first stage to one a million times stronger,
        # where gram_ols - gram_2sls is a tiny difference of huge grams.
        pi2_strength=10.0 ** draw(st.floats(math.log10(0.5), 6.0)),
        rho=tuple(draw(st.lists(st.floats(-1.0, 1.0), min_size=d_y1, max_size=d_y1))),
    )


@settings(max_examples=400, deadline=None)
@given(cfg=dgp_configs(), replication=st.integers(0, 2**31 - 1), seed=st.integers(0, 2**31 - 1))
def test_identities_and_ordering_hold(cfg, replication, seed):
    ds = generate_dataset(cfg, replication, seed)
    assume(validate(ds).all_ok)
    ident = verify_identities(ds)
    assert ident.max_gap() < 1e-7
    assert ident.ordering_ok
