"""Properties of the six config classes, over generated values: the JSON
echo round trip rebuilds an equal, hashable config; a value outside a
field's declared range or choices, an empty list and an out-of-range seed
are rejected both when built in code and when read from JSON, and through
the CLI exit 2 with a message naming the field; a non-finite float is
rejected when built in code, as from JSON; a value of the wrong type is
rejected naming its field, built in code or read from JSON; and every
field has a type the check knows."""

import contextlib
import io
import json
import math
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soesn import InjectConfig, ReproduceConfig, SweepConfig, TopologySpec
from soesn.cli import EXIT_CONFIG, GenerateConfig, TopologyDemoConfig, main
from soesn.errors import ConfigError, InputError
from soesn.seeding import Seed
from soesn.topology import VALID_KINDS, ConfigFields, unwrap


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
        plot_units=st.integers(1, 50), svg=st.booleans(),
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
bad_taus = st.integers(max_value=98)  # tau + 1 rows must fill the 100-row window
bad_counts = st.integers(max_value=0)
bad_fractions = st.one_of(_finite(max_value=0.0, exclude_max=True),
                          _finite(min_value=1.0, exclude_min=True), st.integers(min_value=2))
negatives = st.one_of(_finite(max_value=0.0, exclude_max=True), st.integers(max_value=-1))
empty = st.just(())


def _not_in(choices):
    return st.text("abcdefghijklmnopqrstuvwxyz_ ", max_size=12).filter(lambda t: t not in choices)


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
    (GenerateConfig, "plot_units", bad_counts),
    (TopologySpec, "kind", _not_in(VALID_KINDS)),
    (TopologySpec, "density", bad_leaks),
    (TopologySpec, "coupling_scale", negatives),
    (TopologySpec, "coupling_density", bad_fractions),
    (SweepConfig, "cells", bad_counts),
    (SweepConfig, "leak_values", empty),
    (SweepConfig, "rho_values", empty),
    (InjectConfig, "populations", empty),
    (ReproduceConfig, "sub_counts", empty),
    (ReproduceConfig, "leak_sigma", negatives),
    (ReproduceConfig, "ridge_lambda", negatives),
    (ReproduceConfig, "washout", st.integers(max_value=-1)),
    (ReproduceConfig, "max_attempts", st.integers(max_value=-1)),
    (ReproduceConfig, "dt", bad_rhos),
    (ReproduceConfig, "target", _not_in(("sine", "square", "lorenz"))),
    (ReproduceConfig, "mode", _not_in(("pure_sine", "literal_ode"))),
] + [(cls, "seed", bad_seeds)
     for cls in (TopologySpec, SweepConfig, InjectConfig, ReproduceConfig, TopologyDemoConfig)] \
  + [(cls, "tau", bad_taus)
     for cls in (GenerateConfig, SweepConfig, InjectConfig, ReproduceConfig, TopologyDemoConfig)] \
  + [(cls, "n", bad_counts) for cls in (TopologySpec, SweepConfig, TopologyDemoConfig)] \
  + [(cls, "trials", bad_counts) for cls in (SweepConfig, InjectConfig, ReproduceConfig)]
OUT_OF_RANGE_IDS = [f"{cls.__name__}.{name}" + ("=()" if values is empty else "")
                    for cls, name, values in OUT_OF_RANGE]


@pytest.mark.parametrize("cls,name,values", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
@given(data=st.data())
def test_out_of_range_value_is_rejected(cls, name, values, data):
    value = data.draw(values)
    with pytest.raises(InputError, match=rf"\b{name}\b"):
        cls(**{name: value})
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        cls.from_dict(json.loads(json.dumps({name: value})))


COMMANDS = {GenerateConfig: "generate", SweepConfig: "sweep", InjectConfig: "inject-experiment",
            ReproduceConfig: "reproduce", TopologyDemoConfig: "topology-demo"}


@pytest.mark.parametrize("cls,name,values", OUT_OF_RANGE, ids=OUT_OF_RANGE_IDS)
@settings(max_examples=3)
@given(data=st.data())
def test_out_of_range_value_exits_2_naming_its_field(cls, name, values, data, tmp_path_factory):
    # a TopologySpec field is read as generate's nested `topology` object
    value = data.draw(values)
    command, params, label = (("generate", {"topology": {name: value}}, "generate.topology")
                              if cls is TopologySpec else (COMMANDS[cls], {name: value}, None))
    folder = tmp_path_factory.mktemp("run")
    config = folder / "config.json"
    config.write_text(json.dumps({"command": command, "params": params}))
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main([command, "--config", str(config), "--out", str(folder / "o")]) == EXIT_CONFIG
    assert f"{label or command}: {name}" in err.getvalue()
    assert not (folder / "o").exists()


# every float field, a tuple of floats included, of the six config classes
FLOAT_FIELDS = [(cls, f.name) for cls in (TopologySpec, *COMMANDS) for f in fields(cls)
                if float in getattr(f.type, "__args__", (f.type,))]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("cls,name", FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
def test_non_finite_float_is_rejected_when_built_in_code(cls, name, bad):
    # such a config used to build and echo `Infinity`, which from_dict refuses
    value = (0.5, bad) if isinstance(getattr(cls, name, None), tuple) else bad
    with pytest.raises(InputError, match=rf"\b{name}\b.* must be finite"):
        cls(**{name: value})


strings = st.sampled_from(["", "1", "1.5", "true", "abc"])


def _wrong_values(annotation):
    """JSON values of the wrong type for a field annotated `annotation`: a
    string, list or object where a number belongs, true or 1.5 where an int
    belongs, an int above sys.maxsize where an int other than a Seed
    belongs, an int beyond a double where a float belongs, a number where a
    string, a list or an object belongs, and null unless the field is
    optional."""
    kind, many, optional = unwrap(annotation)
    wrong = [] if optional else [st.none()]
    if many:  # a JSON list of kind
        wrong += [strings, st.integers(), st.just({"v": 1}), st.booleans(),
                  st.tuples(_wrong_values(kind).filter(lambda v: v is not None)).map(list)]
    elif kind in (int, float, Seed):
        wrong += [strings, st.lists(st.integers(), max_size=2),
                  st.just({"v": 1}), st.booleans()]
        if kind is float:
            wrong.append(st.just(2**1024))
        else:
            wrong += [st.just(1.5), _finite().filter(lambda v: v != int(v))]
        if kind is int:  # a size or a count: numpy and range stop at sys.maxsize
            wrong.append(st.integers(min_value=sys.maxsize + 1))
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
# values of the wrong type that JSON cannot carry: a dict where a config
# belongs (from_dict reads a JSON object into one), and numpy scalars,
# which a config could never echo as JSON
WRONG_IN_CODE = {
    GenerateConfig: {"topology": ({"n": 5}, "topology must be TopologySpec")},
    TopologySpec: {"n": (np.int64(5), "n must be int"),
                   "inject_ensemble": (np.bool_(True), "inject_ensemble must be bool")},
}


@pytest.mark.parametrize("cls", WRONG_TYPED, ids=[cls.__name__ for cls in WRONG_TYPED])
@given(data=st.data())
def test_wrong_typed_value_is_a_config_error(cls, data):
    # the same check whether a config is built in code or read from JSON
    for f in fields(cls):
        value = json.loads(json.dumps(data.draw(_wrong_values(f.type), label=f.name)))
        with pytest.raises(ConfigError, match=f.name):
            cls.from_dict({f.name: value})
        with pytest.raises(InputError, match=f.name) as raised:
            cls(**{f.name: value})
        if isinstance(value, float) and unwrap(f.type)[0] in (int, Seed):
            assert f"{f.name} must be int" in str(raised.value)
    for name, (value, message) in WRONG_IN_CODE.get(cls, {}).items():
        with pytest.raises(InputError, match=message):
            cls(**{name: value})


@pytest.mark.parametrize("build,name", [
    (lambda: TopologySpec(seed=10**5000), "seed"),
    (lambda: GenerateConfig(rho=10**5000), "rho"),
    (lambda: TopologySpec(n=-10**5000), "n"),
    (lambda: SweepConfig(rho_values=10**5000), "rho_values"),
    (lambda: GenerateConfig(topology=[10**5000]), "topology"),
], ids=["seed", "rho", "n", "rho_values", "topology"])
def test_an_int_too_long_to_print_is_named_by_its_size(build, name):
    # Python refuses to format an int of more than 4300 digits, so the
    # message gives its size instead of raising a bare ValueError
    with pytest.raises(InputError, match=rf"^{name} must .*, got "
                                         r"(an int|a negative int|a list holding an int)"):
        build()


def test_a_list_is_stored_as_a_tuple():
    assert SweepConfig(leak_values=[0.5]) == SweepConfig(leak_values=(0.5,))
    assert hash(SweepConfig(leak_values=[0.5])) == hash(SweepConfig(leak_values=(0.5,)))


@pytest.mark.parametrize("cls", WRONG_TYPED, ids=[cls.__name__ for cls in WRONG_TYPED])
def test_every_field_has_a_kind_the_check_knows(cls):
    # a field typed list[int] or dict would otherwise pass unchecked
    for f in fields(cls):
        kind = unwrap(f.type)[0]
        assert kind in (int, float, bool, str, Seed) or issubclass(kind, ConfigFields), f.name
        if f.metadata.get("choices") is not None:
            assert kind is str, f.name
        if any(f.metadata.get(key) is not None for key in ("above", "low", "high")):
            assert kind in (int, float, Seed), f.name
