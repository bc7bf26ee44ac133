"""Independent starts spread over forked workers give the serial loop's results.

Each case runs with one worker and with two (or three) by setting the CPU
count the trainer sees; forked workers run regardless of the machine's CPUs.
"""

import os
import signal

import numpy as np
import pytest

from conftest import make_panel
from psqrnn import network, trainer
from psqrnn.errors import TrainingError
from psqrnn.losses import TauGrid
from psqrnn.model import ModelKind, PenaltyConfig, pack_parameters
from psqrnn.network import NetworkSpec
from psqrnn.selection import SearchGrid, grid_search
from psqrnn.trainer import AnnealSchedule, TrainConfig, fit, fit_per_tau

QUICK = TrainConfig(restarts=3, seed=0, max_iters_per_stage=30,
                    schedule=AnnealSchedule(2.0 ** -8, 2.0 ** -16, 2.0 ** -4))


@pytest.fixture
def use_cpus(monkeypatch):
    def use(count):
        monkeypatch.setattr(trainer, "_usable_cpus", lambda: count)
    return use


@pytest.fixture
def forks(monkeypatch, tmp_path):
    """The pids that called os.fork, in any process, read back from a shared file."""
    log, real_fork = tmp_path / "forks", os.fork

    def logged_fork():
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return real_fork()

    monkeypatch.setattr(os, "fork", logged_fork)
    return lambda: log.read_text().split() if log.exists() else []


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fit_bytes(result, kind):
    """Every value of a FitResult, floats by repr, so equal means the same bits."""
    trace = [(s.epsilon, s.iterations, s.nfev, s.objective, s.stop, s.objective_path)
             for s in result.stage_trace]
    return (pack_parameters(result.params, kind).tobytes(), repr((
        result.grid, result.final_objective, result.avg_check_loss, result.restart_index,
        result.converged, result.restart_objectives, trace)))


def network_panel(rng):
    return make_panel(rng.standard_normal((3, 6)), z=rng.standard_normal((3, 6, 1)),
                      x=rng.standard_normal((3, 6, 2)))


@pytest.mark.parametrize("workers", [2, 3])
def test_restarts_same_bytes_on_any_worker_count(rng, use_cpus, forks, workers):
    ds = network_panel(rng)

    def run(count):
        use_cpus(count)
        result = fit(ds, ModelKind.PSQRNN, TauGrid.equally_spaced(3), PenaltyConfig(0.01, 0.01),
                     NetworkSpec(2, (3,)), QUICK)
        assert_no_children()
        return result

    serial = run(1)
    assert forks() == []
    spread = run(workers)
    assert forks() == [str(os.getpid())] * (workers - 1)
    # Distinct objectives, so a shuffled gather would show.
    assert len(set(serial.restart_objectives)) == 3
    assert fit_bytes(spread, ModelKind.PSQRNN) == fit_bytes(serial, ModelKind.PSQRNN)


def test_per_level_fits_same_bytes(rng, use_cpus, forks):
    ds = make_panel(rng.standard_normal((4, 8)), z=rng.standard_normal((4, 8, 2)))

    def run(count):
        use_cpus(count)
        fits = fit_per_tau(ds, ModelKind.LINEAR, [0.2, 0.5, 0.8], PenaltyConfig(0.01, 0.0),
                           None, QUICK)
        assert_no_children()
        return [fit_bytes(result, ModelKind.LINEAR) for result in fits]

    serial = run(1)
    spread = run(2)
    assert len(forks()) == 1
    assert spread == serial
    assert len(set(serial)) == 3


def test_grid_search_keeps_a_failed_points_status(rng, use_cpus, monkeypatch):
    ds = network_panel(rng)
    real_fit = trainer.fit

    def flaky_fit(dataset, kind, grid, penalties, spec, config):
        if spec.hidden_sizes[0] == 2:
            raise TrainingError("synthetic failure")
        return real_fit(dataset, kind, grid, penalties, spec, config)

    monkeypatch.setattr(trainer, "fit", flaky_fit)
    search = SearchGrid(n1_values=(1, 2, 3))

    def run(count):
        use_cpus(count)
        result = grid_search(ds, ModelKind.PSQRNN, TauGrid.single(0.5), search,
                             NetworkSpec(2, (2,)), QUICK)
        assert_no_children()
        return (repr(result.table), repr(result.best_point),
                fit_bytes(result.best_fit, ModelKind.PSQRNN))

    serial = run(1)
    assert run(2) == serial
    assert "status='error: synthetic failure'" in serial[0]


def test_training_error_of_a_forked_restart_keeps_its_fields(rng, use_cpus, monkeypatch):
    ds = network_panel(rng)
    real_init = network.init_parameters

    def poisoned_init(spec, seed):
        if seed == 2:  # the parent's second task with two workers, after restart 1
            raise TrainingError("restart 2 fails too")
        params = real_init(spec, seed)
        if seed == 1:
            params.weights[0][:] = np.nan
        return params

    monkeypatch.setattr(network, "init_parameters", poisoned_init)

    def run(count):
        use_cpus(count)
        with pytest.raises(TrainingError) as caught:
            fit(ds, ModelKind.PSQRNN, TauGrid.single(0.5), PenaltyConfig(), NetworkSpec(2, (3,)),
                QUICK)
        assert_no_children()
        return type(caught.value), str(caught.value), caught.value.epsilon, \
            caught.value.evaluations

    serial = run(1)
    assert run(2) == serial
    assert serial[2:] == (QUICK.schedule.eps_start, 1)


def test_grid_search_forks_one_level(rng, use_cpus, forks):
    use_cpus(2)
    search = SearchGrid(n1_values=(1, 2))
    grid_search(network_panel(rng), ModelKind.PSQRNN, TauGrid.single(0.5), search,
                NetworkSpec(2, (2,)), TrainConfig(restarts=2, seed=0, max_iters_per_stage=10))
    assert_no_children()
    # The restarts inside each point run serially, in this process and in the child.
    assert forks() == [str(os.getpid())]


def test_lowest_failing_index_wins(use_cpus):
    use_cpus(2)
    parent = os.getpid()

    def task(index):
        if index == 1 and os.getpid() != parent:
            os._exit(7)
        if index == 2:
            raise ValueError("index 2")
        return index

    # Index 1's worker died: that is the first failure, ahead of index 2's.
    with pytest.raises(TrainingError, match="exited with code 7 without sending its results"):
        trainer._parallel_map(task, 4)
    assert_no_children()


class Interrupt(BaseException):
    pass


def test_interrupted_parent_reaps_a_child_blocked_writing(use_cpus):
    use_cpus(2)

    def task(index):
        if index == 0:
            raise Interrupt()
        return bytes(1 << 20)  # more than a pipe holds

    def give_up(signum, frame):
        raise TimeoutError("waited on a child blocked writing to an abandoned pipe")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(30)
    try:
        with pytest.raises(Interrupt):
            trainer._parallel_map(task, 2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_children()


def test_serial_where_a_fork_cannot_help(use_cpus, forks, monkeypatch):
    use_cpus(4)
    assert trainer._parallel_map(lambda index: index * 2, 1) == [0]
    use_cpus(1)
    assert trainer._parallel_map(lambda index: index * 2, 3) == [0, 2, 4]
    assert forks() == []
    monkeypatch.undo()
    assert trainer._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    assert trainer._usable_cpus() == 1
