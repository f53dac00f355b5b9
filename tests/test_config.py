"""Properties of the six config classes, over generated values: the JSON
echo round trip rebuilds an equal, hashable config; an out-of-range leak,
radius, population or seed is rejected both when built in code and when
read from JSON; and a JSON value of the wrong type is a ConfigError."""

import json
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from soesn import InjectConfig, ReproduceConfig, SweepConfig, TopologySpec
from soesn.cli import GenerateConfig, TopologyDemoConfig
from soesn.errors import ConfigError, InputError
from soesn.topology import VALID_KINDS


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


seeds = st.integers(0, 2**64 - 1)
taus = st.integers(99, 5000)
counts = st.integers(1, 500)
# JSON may give a float field an integer; the echo keeps it as given
positives = st.one_of(_finite(min_value=0.0, exclude_min=True), st.integers(1, 100))
leaks = st.one_of(_finite(min_value=0.0, max_value=1.0, exclude_min=True), st.just(1))
non_negatives = st.one_of(_finite(min_value=0.0), st.integers(0, 100))
fractions = _finite(min_value=0.0, max_value=1.0)


@st.composite
def topology_specs(draw):
    n = draw(st.integers(1, 64))
    return TopologySpec(
        kind=draw(st.sampled_from(VALID_KINDS)), n=n,
        density=draw(_finite(min_value=0.0, max_value=1.0, exclude_min=True)),
        sub_count=draw(st.integers(1, n)), coupling_scale=draw(non_negatives),
        coupling_density=draw(fractions),
        # the two-unit ensemble needs room: n = 1 cannot take it
        inject_ensemble=n >= 2 and draw(st.booleans()), seed=draw(seeds),
    )


SETTINGS = dict(
    leak_mu=_finite(), leak_sigma=non_negatives, rho=positives, ridge_lambda=non_negatives,
    washout=st.integers(0, 500), max_attempts=st.integers(0, 20), standardize=st.booleans(),
)


@st.composite
def reproduce_configs(draw):
    fields = {name: draw(values) for name, values in SETTINGS.items()}
    n = draw(st.integers(1, 600))
    block_counts = st.integers(1, n)
    tau = draw(st.one_of(st.none(), st.integers(max(99, fields["washout"] + 1), 5000)))
    return ReproduceConfig(
        **fields, target=draw(st.sampled_from(("sine", "square", "lorenz"))),
        mode=draw(st.sampled_from(("pure_sine", "literal_ode"))), freq=draw(_finite()),
        dt=draw(st.one_of(st.none(), positives)), tau=tau, n=n,
        sub_count=draw(block_counts), coupling_scale=draw(non_negatives),
        coupling_density=draw(fractions),
        sub_counts=draw(st.one_of(st.none(), st.lists(block_counts, min_size=1, max_size=4)
                                  .map(tuple))),
        trials=draw(counts), seed=draw(seeds),
    )


CONFIGS = {
    "TopologySpec": topology_specs(),
    "GenerateConfig": st.builds(
        GenerateConfig, topology=topology_specs(), rho=positives, leak=leaks, tau=taus,
        plot_units=st.integers(-5, 50), svg=st.booleans(),
    ),
    "SweepConfig": st.builds(
        SweepConfig, leak_values=st.lists(leaks, min_size=1, max_size=5).map(tuple),
        rho_values=st.lists(positives, min_size=1, max_size=5).map(tuple), trials=counts,
        n=counts, tau=taus, cells=st.one_of(st.none(), counts), seed=seeds,
    ),
    "InjectConfig": st.builds(
        InjectConfig, populations=st.lists(st.integers(2, 1000), min_size=1, max_size=5)
        .map(tuple), trials=counts, tau=taus, rho=positives, leak=leaks, seed=seeds,
    ),
    "ReproduceConfig": reproduce_configs(),
    "TopologyDemoConfig": st.builds(
        TopologyDemoConfig, n=counts, rho=positives, tau=taus, seed=seeds,
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
@given(data=st.data())
def test_echo_round_trip_rebuilds_an_equal_hashable_config(name, data):
    config = data.draw(CONFIGS[name])
    rebuilt = type(config).from_dict(json.loads(json.dumps(config.to_dict())))
    assert rebuilt == config
    assert hash(rebuilt) == hash(config)


bad_leaks = st.one_of(_finite(max_value=0.0), _finite(min_value=1.0, exclude_min=True),
                      st.integers(max_value=0), st.integers(min_value=2))
bad_rhos = st.one_of(_finite(max_value=0.0), st.integers(max_value=0))
bad_seeds = st.one_of(st.integers(max_value=-1), st.integers(min_value=2**64))


def _spliced(good, bad):
    """A non-empty tuple of `good` values with one `bad` value among them."""
    return st.tuples(st.lists(good, max_size=3), bad, st.lists(good, max_size=3)).map(
        lambda parts: (*parts[0], parts[1], *parts[2])
    )


OUT_OF_RANGE = [
    (GenerateConfig, "leak", bad_leaks),
    (InjectConfig, "leak", bad_leaks),
    (SweepConfig, "leak_values", _spliced(leaks, bad_leaks)),
    (GenerateConfig, "rho", bad_rhos),
    (InjectConfig, "rho", bad_rhos),
    (TopologyDemoConfig, "rho", bad_rhos),
    (ReproduceConfig, "rho", bad_rhos),
    (SweepConfig, "rho_values", _spliced(positives, bad_rhos)),
    (InjectConfig, "populations", _spliced(st.integers(2, 1000), st.integers(max_value=1))),
] + [(cls, "seed", bad_seeds)
     for cls in (TopologySpec, SweepConfig, InjectConfig, ReproduceConfig, TopologyDemoConfig)]


@pytest.mark.parametrize("cls,name,values", OUT_OF_RANGE,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _ in OUT_OF_RANGE])
@given(data=st.data())
def test_out_of_range_value_is_rejected(cls, name, values, data):
    value = data.draw(values)
    with pytest.raises(InputError):
        cls(**{name: value})
    with pytest.raises(ConfigError):
        cls.from_dict(json.loads(json.dumps({name: value})))


strings = st.sampled_from(["", "1", "1.5", "true", "abc"])


def _wrong_values(kind):
    """JSON values of the wrong type for a field typed `kind`: a string,
    list or object where a number belongs, true or 1.5 where an int
    belongs, a number where a string, a list or an object belongs, and
    null unless the field is optional."""
    options = getattr(kind, "__args__", ()) if getattr(kind, "__origin__", None) is None else ()
    optional = type(None) in options
    if optional:
        (kind,) = [k for k in options if k is not type(None)]
    wrong = [] if optional else [st.none()]
    if getattr(kind, "__origin__", None) is tuple:  # a JSON list of kind.__args__[0]
        element = kind.__args__[0]
        wrong += [strings, st.integers(), st.just({"v": 1}), st.booleans(),
                  st.tuples(_wrong_values(element).filter(lambda v: v is not None)).map(list)]
    elif kind in (int, float):
        wrong += [strings, st.lists(st.integers(), max_size=2),
                  st.just({"v": 1}), st.booleans()]
        if kind is int:
            wrong += [st.just(1.5), _finite().filter(lambda v: v != int(v))]
    elif kind is bool:
        wrong += [strings, st.integers(), st.just(1.5), st.just([True])]
    elif kind is str:
        wrong += [st.integers(), st.just(1.5), st.booleans(), st.just(["sine"]),
                  st.just({"v": 1})]
    else:  # a nested config takes a JSON object
        wrong += [strings, st.integers(), st.booleans(), st.just([{}])]
    return st.one_of(wrong)


WRONG_TYPED = [TopologySpec, GenerateConfig, SweepConfig, InjectConfig, ReproduceConfig,
               TopologyDemoConfig]


@pytest.mark.parametrize("cls", WRONG_TYPED, ids=[cls.__name__ for cls in WRONG_TYPED])
@given(data=st.data())
def test_wrong_typed_value_is_a_config_error(cls, data):
    for f in fields(cls):
        value = data.draw(_wrong_values(f.type), label=f.name)
        with pytest.raises(ConfigError, match=f.name):
            cls.from_dict(json.loads(json.dumps({f.name: value})))
