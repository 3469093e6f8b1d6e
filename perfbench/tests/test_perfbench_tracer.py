"""Tests for the outside tracer and its wrapping plan."""

import itertools

import numpy as np
import pytest

from perfbench.layers import build_probes, layer_table
from perfbench.tracer import Probe, Tracer, _read, root_time, self_times


def _ticking_clock():
    """A clock that advances by exactly 1.0 per reading."""
    counter = itertools.count()
    return lambda: float(next(counter))


class _Toy:
    def outer(self, value):
        return self.inner(value) + self.inner(value)

    def inner(self, value):
        return value * 2

    def identity(self, value):
        return value

    def boom(self, error):
        raise error

    @classmethod
    def build(cls, value):
        return (cls, value)


def test_self_time_is_duration_minus_children():
    tracer = Tracer(clock=_ticking_clock())
    probes = [Probe(_Toy, "outer", "outer"), Probe(_Toy, "inner", "inner")]
    with tracer.installed(probes):
        assert _Toy().outer(3) == 12
    outer, first, second = tracer.spans
    assert (first.parent, second.parent, outer.parent) == (0, 0, None)
    own = self_times(tracer.spans)
    assert own[0] == outer.duration - first.duration - second.duration
    assert own[1] == first.duration and own[2] == second.duration
    assert sum(own) == root_time(tracer.spans) == outer.duration


def test_return_values_and_exceptions_pass_through():
    tracer = Tracer()
    sentinel = object()
    error = KeyError("exact instance")
    with tracer.installed([Probe(_Toy, "identity", "identity"),
                           Probe(_Toy, "boom", "boom"), Probe(_Toy, "build", "build")]):
        assert _Toy().identity(sentinel) is sentinel
        with pytest.raises(KeyError) as raised:
            _Toy().boom(error)
        assert _Toy.build(sentinel) == (_Toy, sentinel)
    assert raised.value is error
    boom = [span for span in tracer.spans if span.name == "boom"][0]
    assert boom.failed and boom.end >= boom.start


def test_wrapped_attributes_are_restored_even_after_an_error():
    probes = build_probes()
    originals = [_read(probe.owner, probe.attr) for probe in probes]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(probes):
            assert any(_read(p.owner, p.attr) is not o for p, o in zip(probes, originals))
            raise RuntimeError("leave the block")
    for probe, original in zip(probes, originals):
        assert _read(probe.owner, probe.attr) is original, (probe.owner, probe.attr)


def _training_data(n=8, dims=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random((n, dims))
    return x, np.sin(x.sum(axis=1) * 3.0)


def test_fit_splits_into_hyperfit_and_refactor():
    from repro.core.gp import GaussianProcess

    x, y = _training_data()
    tracer = Tracer()
    with tracer.installed(build_probes()):
        gp = GaussianProcess(restarts=0)
        gp.fit(x, y)
        gp.fit(x, y, optimize_hypers=False)
        gp.fit(x, y, False)
        gp.fit(x, y, optimize_hypers=True)
    assert [span.name for span in tracer.spans] == [
        "gp.hyperfit", "gp.refactor", "gp.refactor", "gp.hyperfit"
    ]


def test_prior_mean_gp_nests_the_inner_gp():
    from repro.core.gp import GaussianProcess, PriorMeanGP

    x, y = _training_data()
    tracer = Tracer()
    with tracer.installed(build_probes()):
        model = PriorMeanGP(GaussianProcess(restarts=0), lambda rows: rows[:, 0])
        model.fit(x, y)
        model.predict(x[:5])
    table = layer_table(tracer.spans)
    spans = tracer.spans
    fit_outer = spans[0]
    assert fit_outer.name == "gp.prior"
    children = [s for s in spans if s.parent == 0]
    assert [s.name for s in children] == ["gp.hyperfit"]
    own = self_times(spans)
    assert own[0] == pytest.approx(fit_outer.duration - children[0].duration, abs=0)
    assert table["gp.predict"]["rows"] == 5
    assert sum(own) == pytest.approx(root_time(spans), rel=1e-12)


def test_propose_nests_predict_and_candidates():
    from repro.configspace import ml_config_space, to_training_config
    from repro.core.bo import BayesianProposer
    from repro.core.trial import TrialHistory
    from repro.mlsim import Measurement

    space = ml_config_space(8)
    rng = np.random.default_rng(0)
    history = TrialHistory()
    for index, config in enumerate(space.latin_hypercube(rng, 6)):
        measurement = Measurement(
            config=to_training_config(config), ok=True, fidelity="analytic",
            throughput=100.0 + index, probe_cost_s=10.0 + index, objective=100.0 + index,
        )
        history.record(config, measurement)
    tracer = Tracer()
    with tracer.installed(build_probes()):
        proposer = BayesianProposer(space, n_initial=2, n_candidates=32, seed=0)
        proposer.propose(history, rng)
    spans = tracer.spans
    assert spans[0].name == "bo.propose"
    nested = {span.name for span in spans[1:]}
    assert {"gp.hyperfit", "gp.predict", "configspace.candidates", "acquisition"} <= nested
    direct = [span for span in spans if span.parent == 0]
    own = self_times(spans)
    assert own[0] == pytest.approx(
        spans[0].duration - sum(span.duration for span in direct), abs=1e-12
    )
    assert sum(own) == pytest.approx(spans[0].duration, rel=1e-12)


def test_benchmark_json_names_every_printed_metric():
    import json
    import os

    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.run import E2E_UNITS
    from perfbench.workloads import WORKLOADS

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for listed in spec["workloads"]:
        assert listed["why"] == WORKLOADS[listed["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
