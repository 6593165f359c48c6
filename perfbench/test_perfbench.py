"""Fast checks of the benchmark harness itself, at a tiny run length."""

import dataclasses
import json
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import tracing  # noqa: E402  (imports depcox, found through the line above)
import workloads  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's chains. Much shorter chains have not yet
    learned the intensity and can fail the check against the homogeneous
    Poisson baseline."""
    for name, w in workloads.WORKLOADS.items():
        monkeypatch.setitem(
            workloads.WORKLOADS, name, dataclasses.replace(w, n_iters=40, burn_in=20, thin_every=1)
        )


def _run(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _assert_metrics(result, declared):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_end_to_end_metrics_are_emitted_with_units(tiny, capsys):
    result = _run(capsys, "--workload", "1d-coupled", "--seed", "3", "--seconds", "0", "--trace", "0")
    _assert_metrics(result, BENCHMARK["end_to_end"])
    # the one-sweep fits, the reference chain (repeated until run.REF_FOR_S
    # seconds of sampling) and one chain on the seed's data
    assert result["attempted"] >= run.SETUP_REPEATS + 2


@pytest.mark.parametrize("workload", ["1d-ladder", "1d-coupled"])
def test_layer_metrics_are_emitted_and_draws_unchanged(tiny, capsys, workload):
    result = _run(capsys, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1")
    # correct implies the traced chain's archive and eval report match the
    # untraced chain's byte for byte
    _assert_metrics(result, BENCHMARK["per_layer"])
    assert result["metrics"]["sgcp.birth_death_step.calls"]["value"] == 40 * (
        workloads.WORKLOADS[workload].n_processes
    )


def test_changed_draws_are_caught(tiny, capsys, monkeypatch):
    wrap = tracing._wrap

    def perturbing_wrap(tracer, name, fn):
        if name != "sgcp.gibbs_lambda_star":
            return wrap(tracer, name, fn)

        def perturbed(*args, **kwargs):
            state = fn(*args, **kwargs)
            state.lambda_star *= 1.0 + 1e-12
            return state

        return perturbed

    monkeypatch.setattr(tracing, "_wrap", perturbing_wrap)
    result = _run(capsys, "--workload", "1d-ladder", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert not result["correct"] and result["failed"] == 1


def test_wrappers_are_removed_after_tracing():
    import depcox.engine
    import depcox.gaussian
    from depcox.convolution import ConvolutionPrior

    before = (depcox.gaussian.tri_solve, depcox.engine.birth_death_step, ConvolutionPrior.cov)
    with tracing.traced(tracing.Tracer()):
        assert depcox.engine.birth_death_step is not before[1]
        assert ConvolutionPrior.cov is not before[2]
    assert (depcox.gaussian.tri_solve, depcox.engine.birth_death_step, ConvolutionPrior.cov) == before


def test_self_time_excludes_nested_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert tracer.calls["outer"] == tracer.calls["inner"] == 1
    assert tracer.self_seconds["outer"] == pytest.approx(
        tracer.seconds["outer"] - tracer.seconds["inner"]
    )
