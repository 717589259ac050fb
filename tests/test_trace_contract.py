"""The benchmark's span tracer (perfbench/spans.py) wraps functions by the
names the engine and pose modules bind. A name that no longer resolves is
skipped there, and the per-layer metric built on it silently reads zero;
these tests make such a rename fail instead."""
import sys
from pathlib import Path

import pytest

from mmfit import engine, pose
from mmfit.losses import LossFunction

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402

# (module, name) pairs the tracer still lists although the module no
# longer binds the name: the engine screens, solves and orients minimal
# samples in blocks through models.minimal_candidates, fits connected
# components in blocks through models._fit_weighted, scores each solved
# block with one models._residuals call, serves the CC samples from
# sampling.cc_schedule, draws uniform and P-NAPSAC samples (no PROSAC
# ones) a block at a time through sampling.draw_block, which reads P-NAPSAC
# neighbors
# from the coordinates with no neighborhood object built, and picks
# representatives and prunes inside _consolidate, the proposal loop testing
# q >= q_min inline
RETIRED = {(engine, name) for name in (
    "preference_vector_from_dense", "sample_cheirality_ok",
    "sample_degenerate", "fit_minimal", "oriented_epipolar_ok",
    "fit_nonminimal", "residuals", "cc_can_sample", "next_sample_cc",
    "next_sample_pnapsac", "next_sample_prosac", "next_sample_uniform",
    "is_dominant", "select_representatives", "_prune_by_quality",
    "build_neighborhood")}


@pytest.mark.parametrize("module, calls", [(engine, spans.ENGINE_CALLS),
                                           (pose, spans.POSE_CALLS)])
def test_traced_names_resolve_in_their_layer(module, calls):
    for layer, name in calls:
        if (module, name) in RETIRED:
            continue
        fn = getattr(module, name, None)
        assert callable(fn), f"{module.__name__}.{name} is gone"
        assert fn.__module__ == f"mmfit.{layer}", (
            f"{module.__name__}.{name} lives in {fn.__module__}, "
            f"traced as layer {layer}")


@pytest.mark.parametrize("module, name", sorted(
    RETIRED, key=lambda pair: (pair[0].__name__, pair[1])))
def test_retired_names_are_absent(module, name):
    assert not hasattr(module, name), (
        f"{module.__name__}.{name} is bound again: take it off RETIRED")


def test_traced_loss_methods_exist():
    assert callable(LossFunction.losses)
    assert callable(LossFunction.weights)
