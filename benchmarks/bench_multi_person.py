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
    """Track the crossing workload once and score it.

    Synthesizes the two-walker crossing scene, tracks it, and scores the
    tracks against the VICON truth protocol; the MOTA/ID-switch numbers
    gate in CI exactly like the throughput artifacts do.
    """
    room = through_wall_room()
    config = default_config()
    walks = crossing_walks(room)
    rng = np.random.default_rng(seed)
    bodies = tuple(sample_population(rng, count=11)[:2])
    out = MultiScenario(
        list(zip(bodies, walks)), room=room, config=config, seed=seed + 1
    ).run()
    tracker = MultiWiTrack(config, max_people=2, room=room)
    result = tracker.track(out.spectra, out.range_bin_m)

    # Ground truth per person: the Section 8(a) protocol applied per
    # target (same stream seeds as the eval harness).
    vicon = ViconSystem()
    calibration = DepthCalibration()
    truths = np.empty((2, result.num_frames, 3))
    for p, (body, walk) in enumerate(zip(bodies, walks)):
        captured = vicon.capture(walk, np.random.default_rng(seed + 2 + 7 * p))
        centers = captured.resample(result.frame_times_s)
        depth = calibration.measure_depth(
            body, np.random.default_rng(seed + 3 + 7 * p)
        )
        truths[p] = calibration.compensate(centers, depth)

    return {
        "workload": "crossing",
        "seed": seed,
        "num_people": 2,
        "frames": int(result.num_frames),
        "backend": backend_name(),
        **_identity_fields(truths, result),
    }


def test_crossing_identity():
    print_header("Crossing-heavy workload (K=2, ranges cross) - identity")
    payload = crossing_benchmark()
    print(f"MOTA {payload['mota']:.3f}  "
          f"ID switches {payload['id_switches']}  "
          f"misses {payload['misses']}  "
          f"false positives {payload['false_positives']}  "
          f"mean OSPA {payload['mean_ospa_cm']:.1f} cm  "
          f"tracks {payload['tracks']}")
    CROSSING_OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {CROSSING_OUT}")

    # The CI identity gate; the JSON artifact records the absolute
    # values so workload regressions show up in run-over-run diffs.
    assert payload["mota"] > 0.75, f"crossing MOTA collapsed: {payload}"
    assert payload["id_switches"] == 0, (
        f"crossing workload lost identity: {payload}"
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
