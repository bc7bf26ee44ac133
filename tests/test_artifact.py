import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqrnn import artifact
from psqrnn.errors import ConfigError, DataError
from psqrnn.losses import TauGrid
from psqrnn.model import ModelKind, PenaltyConfig
from psqrnn.network import NetworkSpec
from psqrnn.paneldata import (
    PanelDataset,
    SyntheticConfig,
    generate_synthetic,
    materialize_split,
    scenario_split,
)
from psqrnn.pipeline import predict_matrix, prepare_scenario, train_model
from psqrnn.trainer import AnnealSchedule, TrainConfig

# One annealing stage of a few iterations: what is checked is the path from a
# fit to its predictions, not the fit's quality.
QUICK = TrainConfig(restarts=1, max_iters_per_stage=5,
                    schedule=AnnealSchedule(2.0 ** -8, 2.0 ** -8))
GRID = TauGrid.equally_spaced(3)


def trained_fit(seed, kind, scenario, standardize, per_tau, masked=False):
    dataset, _ = generate_synthetic(SyntheticConfig(n_individuals=3, n_periods=15), seed)
    if masked:
        mask = np.random.default_rng(seed).random(dataset.missing_mask.shape) < 0.2
        dataset.missing_mask = mask
        dataset.y[mask[:, :, 0]] = np.nan
    prepared = prepare_scenario(dataset, scenario, standardize=standardize)
    spec = NetworkSpec(prepared.train.p, (3,)) if kind.uses_network else None
    trained = train_model(prepared, kind, GRID, PenaltyConfig(0.005, 0.01), spec, QUICK,
                          per_tau=per_tau)
    return dataset, trained


def saved_and_loaded(trained, path):
    artifact.save(trained, path)
    return artifact.load(path)


@pytest.mark.parametrize("per_tau", [False, True], ids=["composite", "per-level"])
@pytest.mark.parametrize("scenario", [1, 2, 3])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 16), kind=st.sampled_from(list(ModelKind)),
       standardize=st.booleans())
def test_saved_fit_predicts_what_the_fit_predicts(tmp_path_factory, scenario, per_tau, seed,
                                                  kind, standardize):
    """The panel as generated, with masked cells, gives the fit's own forecasts."""
    dataset, trained = trained_fit(seed, kind, scenario, standardize, per_tau, masked=True)
    before = [a.copy() for a in (dataset.y, dataset.z, dataset.x, dataset.missing_mask)]
    fitted = saved_and_loaded(trained, tmp_path_factory.mktemp("artifact") / "fit.json")
    assert (fitted.kind, fitted.scenario) == (kind, scenario)
    assert fitted.tau_labels == (tuple(map(repr, GRID.taus)) if per_tau else ("",))
    for which in ("train", "test"):
        periods, got = artifact.predict(fitted, dataset, which)
        want = [predict_matrix(trained, which, k) for k in range(len(trained.fits))]
        assert periods == getattr(trained.prepared, which).periods
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    after = (dataset.y, dataset.z, dataset.x, dataset.missing_mask)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(before, after))


def test_scenario_override_forecasts_that_scenario(tmp_path):
    dataset, trained = trained_fit(1, ModelKind.LINEAR, 2, True, False)
    fitted = saved_and_loaded(trained, tmp_path / "fit.json")
    as_three = dataclasses.replace(fitted, scenario=3)
    for which in ("train", "test"):
        periods, got = artifact.predict(fitted, dataset, which, scenario=3)
        want_periods, want = artifact.predict(as_three, dataset, which)
        assert periods == want_periods == materialize_split(
            dataset, scenario_split(dataset, 3), which).periods
        assert np.array_equal(got[0], want[0])
    assert artifact.predict(fitted, dataset)[0] != artifact.predict(fitted, dataset, "test", 3)[0]
    with pytest.raises(ConfigError, match="scenario must be 1, 2, or 3, got 0"):
        artifact.predict(fitted, dataset, scenario=0)


def _panel_like(dataset, **changes) -> PanelDataset:
    fields = {name: getattr(dataset, name) for name in (
        "individuals", "periods", "y", "z", "x", "missing_mask", "response_name",
        "z_names", "x_names", "individual_label", "period_label")}
    return PanelDataset(**{**fields, **changes})


@pytest.mark.parametrize("change, shown", [
    (lambda d: _panel_like(d, individuals=d.individuals[:-1] + ("Q9",)),
     "missing ['P3'], unexpected ['Q9']"),
    (lambda d: _panel_like(d, individuals=d.individuals[:2], y=d.y[:2], z=d.z[:2], x=d.x[:2],
                           missing_mask=d.missing_mask[:2]),
     "missing ['P3'], unexpected []"),
    (lambda d: _panel_like(d, z_names=("z2", "z1")), "parametric ['z2', 'z1']"),
    (lambda d: _panel_like(d, x=d.x[:, :, :1], x_names=("x1",),
                           missing_mask=d.missing_mask[:, :, :-1]), "network ['x1']"),
], ids=["other-individual", "fewer-individuals", "covariate-names", "fewer-covariates"])
@pytest.mark.parametrize("standardize", [True, False])
def test_another_panel_is_a_data_error(tmp_path, change, shown, standardize):
    dataset, trained = trained_fit(0, ModelKind.PSQRNN, 1, standardize, False)
    fitted = saved_and_loaded(trained, tmp_path / "fit.json")
    with pytest.raises(DataError, match=re.escape(shown)):
        artifact.predict(fitted, change(dataset))


def test_unknown_panel_name_is_a_config_error(tmp_path):
    dataset, trained = trained_fit(0, ModelKind.LINEAR, 1, True, False)
    fitted = saved_and_loaded(trained, tmp_path / "fit.json")
    with pytest.raises(ConfigError, match="subset must be 'train' or 'test', got 'bogus'"):
        artifact.predict(fitted, dataset, "bogus")


@pytest.mark.parametrize("change", [
    lambda d: d.pop("panel"),
    lambda d: d["config"].update(kind="bogus"),
    lambda d: d["fits"][0]["params"]["net"]["spec"].update(activation="swish"),
    lambda d: d["fits"][0]["params"]["net"]["weights"].pop(),
    lambda d: d["fits"][0]["params"]["net"]["biases"].pop(),
    lambda d: d["fits"][0]["params"]["net"]["weights"][1].pop(),
    lambda d: d["fits"][0]["params"]["net"]["biases"][0].append(0.0),
    lambda d: d.update(standardization=[1.0]),
    lambda d: d.update(fits=[]),
    lambda d: d["fits"][0]["params"]["beta"].pop(),
    lambda d: d["fits"][0]["params"]["alpha"].append(0.0),
    lambda d: d["fits"][0]["params"].update(net=None),
    lambda d: d["panel"]["x_names"].append("x9"),
    lambda d: d["config"].update(kind="linear"),
    lambda d: d["config"].update(kind="qrnn"),
    lambda d: d["fits"][0].update(taus=[]),
    lambda d: d["standardization"].update(x_means=[]),
    *(lambda d, bad=bad: d["config"].update(scenario=bad) for bad in (7, "1", None, 1.5, True)),
], ids=["no-panel", "kind", "activation", "weights", "biases", "weight-shape", "bias-shape",
        "standardization", "no-fit", "beta",
        "alpha", "no-network", "input-dim", "linear-with-network", "qrnn-with-beta",
        "no-taus", "state-lengths", "scenario-7", "scenario-str", "scenario-null",
        "scenario-float", "scenario-bool"])
def test_malformed_artifact_is_a_data_error(tmp_path, change):
    _, trained = trained_fit(0, ModelKind.PSQRNN, 1, True, False)
    path = tmp_path / "fit.json"
    artifact.save(trained, path)
    document = json.loads(path.read_text())
    change(document)
    path.write_text(json.dumps(document))
    with pytest.raises(DataError, match="is malformed"):
        artifact.load(path)


@pytest.mark.parametrize("content, message", [
    (None, "cannot read artifact"),
    ("{not json", "is not valid JSON"),
], ids=["absent", "not-json"])
def test_unreadable_artifact_is_a_data_error(tmp_path, content, message):
    path = tmp_path / "fit.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(DataError, match=message):
        artifact.load(path)


def test_preamble_without_a_schema_embeds_none(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text('# {"command": "synth"}\nindividual,period,y\n')
    assert artifact.embedded_schema(path) is None


def test_malformed_schema_in_the_preamble_is_a_data_error(tmp_path):
    path = tmp_path / "panel.csv"
    path.write_text('# {"schema": {"province": "p"}}\nindividual,period,y\n')
    with pytest.raises(DataError, match="malformed schema in the preamble"):
        artifact.embedded_schema(path)
