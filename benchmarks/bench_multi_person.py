"""Multi-person tracking: accuracy, identity, and latency vs K.

WiTrack is single-person by design (Section 8); ``repro.multi`` extends
it with successive echo cancellation and a per-target Kalman track bank.
This benchmark sweeps K in {1, 2, 3} well-separated walkers and reports
per-person median / 90th-percentile 3D error, identity switches, MOTA,
and mean OSPA — and checks the subsystem's acceptance bar: with K=2
well-separated walkers each person is tracked to within 2x the
single-person median error with zero identity switches, and the
streaming multi-tracker still meets the paper's 75 ms latency budget.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import constants
from repro.apps.realtime import RealtimeMultiTracker
from repro.config import default_config
from repro.eval.figures import multi_person_sweep
from repro.eval.harness import (
    MultiTrackingOutcome,
    TrackingExperiment,
    run_tracking_experiment,
)
from repro.eval.metrics import mot_metrics, ospa_series
from repro.exec import default_runner
from repro.kernels import backend_name
from repro.kernels.tick import (
    MultiTickPlan,
    enable_fusion,
    reset_fusion_override,
)
from repro.multi import MultiScenario, MultiWiTrack
from repro.sim import (
    DepthCalibration,
    HumanBody,
    ViconSystem,
    non_colliding_walks,
    through_wall_room,
    waypoint_walk,
)
from repro.sim.body import sample_population

from conftest import print_header

DURATION_S = 12.0
SEED = 0
CROSSING_OUT = Path(__file__).parent / "multi_person.json"


@pytest.fixture(scope="module")
def single_person_median_m():
    """Median 3D error of the classic single-person pipeline."""
    outcome = run_tracking_experiment(
        TrackingExperiment(seed=SEED, duration_s=DURATION_S)
    )
    errors = np.linalg.norm(outcome.errors_xyz, axis=1)
    return float(np.nanmedian(errors))


@pytest.fixture(scope="module")
def multi_outcomes():
    """One scored K-person experiment per K in {1, 2, 3}, one plan.

    Runs serially by default; set ``REPRO_WORKERS`` to fan the three
    K-points across a process pool (the scores are identical either
    way — the runner-equivalence invariant).
    """
    return multi_person_sweep(
        ks=(1, 2, 3), seed=SEED, duration_s=DURATION_S,
        runner=default_runner(),
    )


def _person_rows(k: int, outcome: MultiTrackingOutcome):
    rows = []
    for p in range(k):
        errors = outcome.mot.per_truth_errors[p]
        finite = errors[np.isfinite(errors)]
        med = 100 * np.median(finite) if finite.size else float("nan")
        p90 = 100 * np.percentile(finite, 90) if finite.size else float("nan")
        rows.append((p, med, p90, outcome.mot.per_truth_switches[p]))
    return rows


def test_multi_person_accuracy(multi_outcomes, single_person_median_m):
    print_header(
        "Multi-person extension - per-person accuracy vs K "
        "(well-separated walkers)"
    )
    print(f"single-person baseline median: "
          f"{100 * single_person_median_m:.1f} cm")
    for k, outcome in multi_outcomes.items():
        mot = outcome.mot
        print(f"\nK={k}:  MOTA {mot.mota:.3f}  "
              f"misses {mot.misses}  false positives {mot.false_positives}  "
              f"ID switches {mot.id_switches}  "
              f"mean OSPA {100 * outcome.ospa_mean_m:.1f} cm")
        for p, med, p90, switches in _person_rows(k, outcome):
            print(f"  person {p + 1}: median {med:6.1f} cm   "
                  f"p90 {p90:6.1f} cm   switches {switches}")

    # Acceptance: K=2 well-separated - every person within 2x the
    # single-person median, and identity held for the whole session.
    k2 = multi_outcomes[2]
    for p, med, _, switches in _person_rows(2, k2):
        assert np.isfinite(med), f"person {p + 1} was never matched"
        assert med / 100.0 <= 2.0 * single_person_median_m, (
            f"person {p + 1} median {med:.1f} cm exceeds 2x the "
            f"single-person median {100 * single_person_median_m:.1f} cm"
        )
    assert k2.mot.id_switches == 0, (
        "well-separated walkers must keep their identities"
    )
    # Every person is matched most of the session.
    matched = np.isfinite(k2.mot.per_truth_errors).mean(axis=1)
    assert np.all(matched > 0.5), f"match fractions too low: {matched}"


def crossing_walks(room):
    """Two walkers whose round-trip ranges cross mid-session.

    One walks near-to-far, the other far-to-near, on x lanes 2.2+ m
    apart: their *ranges* sweep through each other (the per-antenna TOF
    candidates collide) while the people themselves never come close —
    the workload where identity is won or lost in association, not in
    geometry.
    """
    y0 = room.front_wall_y or 0.0
    near, far = y0 + 2.0, y0 + 7.0
    return [
        waypoint_walk(
            np.array([[-2.2, near], [-1.0, far]]),
            speed_mps=1.2,
            torso_z=-0.2,
            label="near-to-far",
        ),
        waypoint_walk(
            np.array([[2.2, far], [1.0, near]]),
            speed_mps=1.2,
            torso_z=-0.3,
            label="far-to-near",
        ),
    ]


def _identity_fields(truths: np.ndarray, result) -> dict:
    mot = mot_metrics(truths, result.positions, match_threshold_m=1.0)
    ospa = ospa_series(truths, result.positions)
    return {
        "mota": round(float(mot.mota), 4),
        "id_switches": int(mot.id_switches),
        "misses": int(mot.misses),
        "false_positives": int(mot.false_positives),
        "mean_ospa_cm": round(100.0 * float(np.mean(ospa)), 2),
        "tracks": int(result.num_tracks),
    }


def crossing_benchmark(seed: int = SEED) -> dict:
    """Score the crossing workload staged and fused, on one synthesis.

    Synthesizes the two-walker crossing scene once, tracks it twice —
    fusion forced off and on — and scores both against the VICON truth
    protocol. The fused run must be bitwise the staged run (positions,
    identities, coasting flags), so its MOTA/ID-switch numbers gate in
    CI exactly like the throughput artifacts do. Each leg also counts
    its ``MultiTickPlan.run`` calls, so the gate can check that the
    fusion toggle really switched execution paths.
    """
    room = through_wall_room()
    config = default_config()
    walks = crossing_walks(room)
    rng = np.random.default_rng(seed)
    bodies = tuple(sample_population(rng, count=11)[:2])
    out = MultiScenario(
        list(zip(bodies, walks)), room=room, config=config, seed=seed + 1
    ).run()

    plan_run = MultiTickPlan.run
    plan_calls = [0]

    def counted_run(plan, tick):
        plan_calls[0] += 1
        return plan_run(plan, tick)

    def run(fused: bool):
        enable_fusion(fused)
        plan_calls[0] = 0
        tracker = MultiWiTrack(config, max_people=2, room=room)
        return tracker.track(out.spectra, out.range_bin_m), plan_calls[0]

    MultiTickPlan.run = counted_run
    try:
        staged, staged_plan_ticks = run(False)
        fused, fused_plan_ticks = run(True)
    finally:
        MultiTickPlan.run = plan_run
        reset_fusion_override()

    # Ground truth per person: the Section 8(a) protocol applied per
    # target (same stream seeds as the eval harness).
    vicon = ViconSystem()
    calibration = DepthCalibration()
    truths = np.empty((2, staged.num_frames, 3))
    for p, (body, walk) in enumerate(zip(bodies, walks)):
        captured = vicon.capture(walk, np.random.default_rng(seed + 2 + 7 * p))
        centers = captured.resample(staged.frame_times_s)
        depth = calibration.measure_depth(
            body, np.random.default_rng(seed + 3 + 7 * p)
        )
        truths[p] = calibration.compensate(centers, depth)

    identical = (
        staged.track_ids == fused.track_ids
        and np.array_equal(staged.positions, fused.positions, equal_nan=True)
        and np.array_equal(staged.coasting, fused.coasting)
    )
    return {
        "workload": "crossing",
        "seed": seed,
        "num_people": 2,
        "frames": int(staged.num_frames),
        "backend": backend_name(),
        "staged": _identity_fields(truths, staged),
        "fused": _identity_fields(truths, fused),
        "fused_identical": bool(identical),
        "staged_plan_ticks": staged_plan_ticks,
        "fused_plan_ticks": fused_plan_ticks,
    }


def test_crossing_identity():
    print_header(
        "Crossing-heavy workload (K=2, ranges cross) - "
        "identity, staged vs fused"
    )
    payload = crossing_benchmark()
    for leg in ("staged", "fused"):
        f = payload[leg]
        print(f"{leg:>6}:  MOTA {f['mota']:.3f}  "
              f"ID switches {f['id_switches']}  misses {f['misses']}  "
              f"false positives {f['false_positives']}  "
              f"mean OSPA {f['mean_ospa_cm']:.1f} cm  "
              f"tracks {f['tracks']}")
    print(f"fused identical to staged: "
          f"{'yes' if payload['fused_identical'] else 'NO'}  "
          f"(MultiTickPlan ticks: staged {payload['staged_plan_ticks']}, "
          f"fused {payload['fused_plan_ticks']})")
    CROSSING_OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {CROSSING_OUT}")

    # The comparison below means something only if the two legs ran
    # different code: the fused leg through the compiled plan, the
    # staged leg never.
    assert payload["fused_plan_ticks"] > 0, "fused leg never ran a plan"
    assert payload["staged_plan_ticks"] == 0, "staged leg ran a plan"
    # The CI identity gate: fusing the K-person tick must not change
    # tracking output at all, so MOTA and ID switches are unchanged by
    # construction — and the JSON artifact records the absolute values
    # so workload regressions show up in run-over-run diffs.
    assert payload["fused_identical"], (
        "fused multi-person tracking diverged from staged"
    )
    assert payload["fused"] == payload["staged"]
    staged = payload["staged"]
    assert staged["mota"] > 0.75, f"crossing MOTA collapsed: {staged}"
    assert staged["id_switches"] == 0, (
        f"crossing workload lost identity: {staged}"
    )


def test_streaming_multi_latency(benchmark):
    room = through_wall_room()
    rng = np.random.default_rng(SEED)
    walks = non_colliding_walks(
        room, rng, 2, duration_s=DURATION_S, min_separation_m=1.0
    )
    people = [(HumanBody(name=f"p{i}"), w) for i, w in enumerate(walks)]
    measured = MultiScenario(people, room=room, seed=SEED + 1).run()

    tracker = RealtimeMultiTracker(
        measured.config,
        range_bin_m=measured.range_bin_m,
        max_people=2,
        room=room,
    )
    spf = tracker.sweeps_per_frame
    for f in range(40):
        tracker.process_frame(measured.spectra[:, f * spf : (f + 1) * spf, :])

    frame_index = [40]

    def one_frame():
        f = frame_index[0]
        frame_index[0] = 40 + (f - 39) % 400
        return tracker.process_frame(
            measured.spectra[:, f * spf : (f + 1) * spf, :]
        )

    benchmark(one_frame)

    tracker2 = RealtimeMultiTracker(
        measured.config,
        range_bin_m=measured.range_bin_m,
        max_people=2,
        room=room,
    )
    tracker2.run(measured.spectra)
    report = tracker2.latency

    budget = constants.PAPER_LATENCY_BOUND_S
    assert report.within_budget(budget)

    print_header("Streaming multi-person latency per 12.5 ms frame (K=2)")
    print(f"median : {1e3 * report.median_s:7.3f} ms")
    print(f"p95    : {1e3 * report.p95_s:7.3f} ms")
    print(f"max    : {1e3 * report.max_s:7.3f} ms")
    print(f"budget : {1e3 * budget:7.1f} ms (paper: 'less than 75 ms')")
