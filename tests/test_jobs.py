"""Each matrix command's job gives the same result in a spawned process as in this one.

`tensorstore.run_pairs` runs one module-level job per pair for svd-diff,
angles, penalty and restore. A job, its pair and its arguments pickle, and
what it returns does not depend on the process it runs in, so the jobs can
be spread over worker processes.
"""

import multiprocessing
import pickle

import pytest

from svdsurgery import cli, surgery
from svdsurgery.spectral import one_blas_thread
from svdsurgery.surgery import LayerSelector, RankSelector, SurgeryPlan
from svdsurgery.tensorstore import load_profile, open_checkpoint, pair_matrices, write_checkpoint


def run_pickled(blob: bytes):
    """Unpickle (job, pair, *args) and run the job on one BLAS thread, as the CLI does."""
    job, *args = pickle.loads(blob)
    with one_blas_thread():
        return job(*args)


@pytest.fixture(scope="module")
def spawned():
    """One worker, started by spawn, so it shares no state with this process."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        yield pool


def here_and_there(spawned, job, *args):
    """The job's result in this process and in the spawned worker, each from its own pickle."""
    blob = pickle.dumps((job, *args))
    return run_pickled(blob), spawned.apply(run_pickled, (blob,))


@pytest.fixture
def wide_pair(synth_pair):
    """The `pair_matrices` pair of the wide 8 x 12 `k` matrix of two synthetic checkpoints."""
    a, b = (open_checkpoint(path) for path in synth_pair(layers=1))
    pairs = pair_matrices(a, b, load_profile("llama-style"))
    [pair] = [pair for pair in pairs if pair[0].kind == "k"]
    assert a.index[pair[1]].shape == (8, 12)
    return a, pair


@pytest.mark.parametrize("job", [cli._drift_parts, cli._angle_parts])
def test_compare_jobs_give_the_same_parts_in_a_spawned_process(job, wide_pair, spawned):
    a, pair = wide_pair
    here, there = here_and_there(spawned, job, pair, a)
    assert here == there
    assert len(here[-1][1]) == 8  # detail rows of the last part


def test_penalty_job_gives_the_same_row_in_a_spawned_process(wide_pair, spawned):
    ref, pair = wide_pair
    here, there = here_and_there(spawned, cli._penalty_row, pair, ref, 3)
    assert here == there
    assert here[0] == 3 and here[1] > 0.0


@pytest.mark.parametrize("mode", ["vectors", "values"])
def test_restore_job_writes_the_same_bytes_in_a_spawned_process(mode, synth_pair, spawned,
                                                                 tmp_path):
    host, donor = (open_checkpoint(path) for path in synth_pair(layers=1))
    grid = [(LayerSelector.parse("all"), RankSelector.parse(ranks)) for ranks in ("top:3", "top:0")]
    plan = SurgeryPlan(mode=mode, donor=donor, host=host, profile=load_profile("llama-style"),
                       grid=grid)
    target_ranks = plan.targets[0]
    name = target_ranks[0][1]
    edits = [{name: host.index[name].dtype}, {}]  # top:0 edits nothing
    results, outs = [], []
    for side in ("here", "there"):
        outs.append([tmp_path / f"{side}-{point}.safetensors" for point in range(len(grid))])
        writers = [write_checkpoint(host, dtypes, out) for dtypes, out in zip(edits, outs[-1])]
        blob = pickle.dumps((surgery._splice_target, target_ranks, plan, writers))
        results.append(run_pickled(blob) if side == "here"
                       else spawned.apply(run_pickled, (blob,)))
    assert results[0] == results[1]
    (first, edited, error), (second, copied, no_error) = results[0]
    assert (first, edited.status, edited.ranks_touched, error >= 0.0) == (0, "edited", 3, True)
    assert (second, copied.status, no_error) == (1, "copied", None)
    for here, there in zip(*outs):
        assert here.read_bytes() == there.read_bytes()
