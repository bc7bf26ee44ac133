import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psqrnn import artifact
from psqrnn.errors import DataError
from psqrnn.losses import TauGrid
from psqrnn.model import ModelKind, PenaltyConfig
from psqrnn.network import NetworkSpec
from psqrnn.paneldata import SyntheticConfig, generate_synthetic
from psqrnn.pipeline import predict_matrix, prepare_scenario, train_model
from psqrnn.trainer import AnnealSchedule, TrainConfig

# One annealing stage of a few iterations: what is checked is the path from a
# fit to its predictions, not the fit's quality.
QUICK = TrainConfig(restarts=1, max_iters_per_stage=5,
                    schedule=AnnealSchedule(2.0 ** -8, 2.0 ** -8))
GRID = TauGrid.equally_spaced(3)


def trained_fit(seed, kind, scenario, standardize, per_tau):
    dataset, _ = generate_synthetic(SyntheticConfig(n_individuals=3, n_periods=15), seed)
    prepared = prepare_scenario(dataset, scenario, standardize=standardize)
    spec = NetworkSpec(prepared.train.p, (3,)) if kind.uses_network else None
    trained = train_model(prepared, kind, GRID, PenaltyConfig(0.005, 0.01), spec, QUICK,
                          per_tau=per_tau)
    return dataset, trained


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16), kind=st.sampled_from(list(ModelKind)),
       scenario=st.sampled_from([1, 2, 3]), standardize=st.booleans(), per_tau=st.booleans())
def test_saved_fit_predicts_what_the_fit_predicts(tmp_path_factory, seed, kind, scenario,
                                                  standardize, per_tau):
    dataset, trained = trained_fit(seed, kind, scenario, standardize, per_tau)
    path = tmp_path_factory.mktemp("artifact") / "fit.json"
    artifact.save(trained, path)
    fitted = artifact.load(path)
    assert (fitted.kind, fitted.scenario) == (kind, scenario)
    assert fitted.tau_labels == (tuple(map(repr, GRID.taus)) if per_tau else ("",))
    raw = prepare_scenario(dataset, fitted.scenario, standardize=False)
    for subset in ("train", "test"):
        got = artifact.predict(fitted, getattr(raw, subset))
        want = [predict_matrix(trained, subset, k) for k in range(len(trained.fits))]
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("change", [
    lambda d: d.pop("panel"),
    lambda d: d["config"].update(kind="bogus"),
    lambda d: d["fits"][0]["params"]["net"]["spec"].update(activation="swish"),
    lambda d: d["fits"][0]["params"]["net"]["weights"].pop(),
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
], ids=["no-panel", "kind", "activation", "weights", "standardization", "no-fit", "beta",
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

