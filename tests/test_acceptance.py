"""Acceptance suite: exact identities, oracle equivalence, trend reproduction.

Each criterion prints one PASS/FAIL line (run pytest with -s to watch) and
enforces its own wall-clock budget.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rateconv import (EpisodeTrace, NetworkSpec, NormConfig, ReportRow, SimConfig,
                      apply_normalization, collect_stats, dense,
                      forward_batch, layer_identity_residual, load_model, load_stats,
                      optimal_network, read_trace, run, run_batch,
                      save_model, save_stats, write_report, write_trace)
from rateconv.cli import main as cli_main
from rateconv.simulate import classify_case_counts

from conftest import (drive_neurons, rand_dense_net, rand_net, rand_frames, read_report_rows,
                      trace_steps)


@contextmanager
def criterion(name, limit_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_s else "FAIL"
    print(f"{status} {name} [{elapsed:.1f}s, limit {limit_s:.0f}s]")
    assert elapsed < limit_s, f"{name}: runtime {elapsed:.1f}s over budget {limit_s}s"


# ---------------------------------------------------------------------------
# shared population for the trend criteria (6 and 7)

@pytest.fixture(scope="module")
def trend_population():
    """20 normalized 3-layer nets, 500-frame traces, runs at four lengths."""
    rng = np.random.default_rng(6161)
    cr = {50: [], 500: []}
    cr_modes = {"rate": [], "robust": []}
    err = {100: [], 1000: []}
    for _ in range(20):
        net = rand_dense_net(rng, sizes=[5, 8, 7, 4])
        frames = rand_frames(rng, 500, net.input_shape)
        stats = collect_stats(net, frames, NormConfig(100.0))
        norm = apply_normalization(net, stats)
        _, q_source = forward_batch(net, frames)
        source_actions = np.argmax(q_source, axis=1)
        _, q_norm = forward_batch(norm, frames)
        for T in (50, 100, 500, 1000):
            res = run_batch(norm, frames, SimConfig(timesteps=T))
            robust_actions = np.argmax(res.f_last, axis=1)
            if T in cr:
                cr[T].append(float(np.mean(robust_actions == source_actions)))
            if T in err:
                err[T].append(float(np.mean(np.abs(res.f_last - q_norm))))
            if T == 100:
                rate_actions = np.argmax(res.rate_last, axis=1)
                cr_modes["rate"].append(float(np.mean(rate_actions == source_actions)))
                cr_modes["robust"].append(float(np.mean(robust_actions == source_actions)))
    return cr, cr_modes, err


# ---------------------------------------------------------------------------

def test_criterion_1_accounting_identity():
    with criterion("criterion-1 accounting identity over random networks", 60):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(100):
            net = rand_net(rng)
            frame = rng.random(net.input_shape)
            res = run(net, frame, SimConfig(timesteps=500, v_thr=1.0))
            worst = max(worst, max(layer_identity_residual(res, net, frame=frame)))
        assert worst <= 1e-9, f"worst per-layer identity residual {worst:.3e}"


def test_criterion_2_input_layer_bound():
    with criterion("criterion-2 input-population rate error below 1/T", 5):
        rng = np.random.default_rng(202)
        net = NetworkSpec((1,), [dense(np.eye(1), np.zeros(1), activation="none")])
        constants = rng.random((1000, 1))
        for T in (100, 500):
            res = run_batch(net, constants, SimConfig(timesteps=T))
            gap = np.abs(res.rates[0][:, 0] - constants[:, 0])
            assert np.all(gap < 1.0 / T), f"T={T}: max |r0 - a0| = {gap.max():.6f}"


def test_criterion_3_robust_readout_exactness():
    with criterion("criterion-3 robust readout equals the output affine map", 30):
        rng = np.random.default_rng(303)
        worst = 0.0
        for i in range(100):
            net = rand_net(rng)
            v_thr = (0.6, 1.0, 1.7)[i % 3]
            res = run(net, rng.random(net.input_shape), SimConfig(timesteps=150, v_thr=v_thr))
            last = net.layers[-1]
            prev = res.rates[-2].reshape(-1)
            want = (last.weights.astype(np.float64) @ prev
                    + last.bias.astype(np.float64)) / v_thr
            worst = max(worst, float(np.max(np.abs(res.f_last - want))))
        assert worst <= 1e-9, f"worst |f_last - affine| = {worst:.3e}"


def test_criterion_4_normalization_correctness():
    with criterion("criterion-4 rescaling identity and greedy agreement", 30):
        rng = np.random.default_rng(404)
        frames_checked = 0
        for _ in range(4):
            net = rand_net(rng)
            frames = rand_frames(rng, 300, net.input_shape)
            stats = collect_stats(net, frames, NormConfig(99.9))
            norm = apply_normalization(net, stats)
            acts, q = forward_batch(net, frames)
            acts_n, qn = forward_batch(norm, frames)
            for j, li in enumerate(net.parameterized_indices()):
                np.testing.assert_allclose(acts_n[li], acts[li] / stats.scales[j + 1],
                                           rtol=1e-5, atol=1e-6)
            assert np.array_equal(np.argmax(q, axis=1), np.argmax(qn, axis=1)), \
                "greedy action changed under normalization"
            frames_checked += len(frames)
        assert frames_checked >= 1000


def test_criterion_5_impossible_case_never_occurs():
    with criterion("criterion-5 non-positive drive never leaves positive charge", 60):
        rng = np.random.default_rng(505)
        total = 0
        T = 24
        for chunk in range(12):
            n = 100_000
            if chunk % 3 == 0:
                currents = rng.normal(0.0, 1.0, (T, n))
            elif chunk % 3 == 1:
                currents = rng.normal(-0.3, 0.5, (T, n))
            else:
                currents = rng.uniform(-1.0, 1.0, (T, n))
            counts, potentials, injected = drive_neurons(currents)
            cases = classify_case_counts(injected / T, potentials / T)
            assert cases["impossible"] == 0
            total += n
        assert total >= 1_000_000


def test_criterion_6_convergence_trend(trend_population):
    with criterion("criterion-6 longer runs raise agreement and cut error", 600):
        cr, _, err = trend_population
        mean_cr_50 = float(np.mean(cr[50]))
        mean_cr_500 = float(np.mean(cr[500]))
        assert mean_cr_500 >= mean_cr_50, \
            f"mean CR fell from {mean_cr_50:.4f} (T=50) to {mean_cr_500:.4f} (T=500)"
        mean_err_100 = float(np.mean(err[100]))
        mean_err_1000 = float(np.mean(err[1000]))
        assert mean_err_1000 < mean_err_100, \
            f"mean readout error {mean_err_1000:.5f} (T=1000) !< {mean_err_100:.5f} (T=100)"


def test_criterion_7_robust_beats_rate_readout(trend_population):
    with criterion("criterion-7 robust readout agrees at least as often", 600):
        _, cr_modes, _ = trend_population
        mean_robust = float(np.mean(cr_modes["robust"]))
        mean_rate = float(np.mean(cr_modes["rate"]))
        assert mean_robust >= mean_rate, \
            f"robust CR {mean_robust:.4f} < rate CR {mean_rate:.4f} at T=100"


def test_criterion_8_random_agreement_baseline():
    with criterion("criterion-8 unrelated policies agree at chance level", 60):
        from rateconv import replay_trace
        rng = np.random.default_rng(808)
        width, k = 8, 4

        def picker(offset):
            w = np.zeros((k, width), dtype=np.float32)
            for a in range(k):
                w[a, offset + a] = 1.0
            return NetworkSpec((width,), [dense(w, np.zeros(k), activation="none")])

        source, other = picker(0), picker(4)
        frames = rng.random((2000, width)).astype(np.float32)
        _, q = forward_batch(source, frames)
        steps = trace_steps((width,), frames, np.argmax(q, axis=1), 0.0)
        trace = EpisodeTrace(action_count=k, observation_shape=(width,), steps=steps)
        stats = collect_stats(other, frames.astype(np.float64), NormConfig(100.0))
        snn = apply_normalization(other, stats)
        report = replay_trace(trace, snn, SimConfig(timesteps=120), source_net=source)
        assert report.decisions >= 2000
        assert abs(report.cr - 0.25) < 0.05, f"CR {report.cr:.4f} not within 0.25 +/- 0.05"


def test_criterion_9_format_round_trips(tmp_path):
    with criterion("criterion-9 formats round-trip and goldens hold", 5):
        rng = np.random.default_rng(909)
        # model: bit-exact parameters, stable bytes
        net = rand_net(rng)
        save_model(net, tmp_path / "m1")
        save_model(net, tmp_path / "m2")
        for name in sorted(p.name for p in (tmp_path / "m1").iterdir()):
            assert (tmp_path / "m1" / name).read_bytes() == \
                (tmp_path / "m2" / name).read_bytes()
        back = load_model(tmp_path / "m1")
        for a, b in zip(net.layers, back.layers):
            if a.parameterized:
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.bias, b.bias)
        # trace: bit-exact
        obs = rng.random((25, 1, 4, 4)).astype(np.float32)
        trace = EpisodeTrace(3, (1, 4, 4),
                             trace_steps((1, 4, 4), obs, [int(rng.integers(3)) for _ in range(25)],
                                         [float(i % 2) for i in range(25)]))
        write_trace(trace, tmp_path / "t.trace")
        back_trace = read_trace(tmp_path / "t.trace")
        assert all(np.array_equal(back_trace.steps[name], trace.steps[name])
                   for name in ("observation", "action", "reward"))
        # stats: exact float round-trip
        stats = collect_stats(rand_dense_net(rng, sizes=[4, 6, 3]),
                              rng.random((20, 4)), NormConfig(99.5))
        save_stats(stats, tmp_path / "s.json")
        assert load_stats(tmp_path / "s.json").scales == stats.scales
        # CSV: golden bytes plus 1e-9 parse-back
        golden_row = ReportRow("time", 500.0, 10, 123.456789, 1.5, 0.875, 0.0625,
                               float("nan"))
        write_report([golden_row], tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text() == (
            "sweep_param,value,episodes,mean_score,std_score,mean_cr,std_cr,"
            "pearson_score_cr\ntime,500,10,123.456789,1.5,0.875,0.0625,nan\n")
        fuzz = [ReportRow("p", 99.0 + rng.random(), 7, float(rng.normal(0, 50)),
                          float(rng.random()), float(rng.random()), float(rng.random()),
                          float(rng.uniform(-1, 1))) for _ in range(10)]
        write_report(fuzz, tmp_path / "f.csv")
        for a, b in zip(fuzz, read_report_rows(tmp_path / "f.csv")):
            for field in ("value", "mean_score", "std_score", "mean_cr", "std_cr",
                          "pearson_score_cr"):
                x, y = getattr(a, field), getattr(b, field)
                assert abs(x - y) <= 1e-9 * max(1.0, abs(x))


def test_criterion_10_protocol_defaults(tmp_path):
    with criterion("criterion-10 bare time sweep runs the standard protocol", 60):
        save_model(optimal_network(8), tmp_path / "model")
        out = tmp_path / "sweep.csv"
        code = cli_main(["sweep", "--mode", "time",
                         "--model", str(tmp_path / "model"), "--out", str(out)])
        assert code == 0
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["values"] == [100.0, 500.0]   # default simulation lengths
        assert meta["episodes"] == 10
        assert meta["epsilon"] == 0.05
        assert meta["max_noop"] == 30
        assert meta["percentile"] == 99.9
        assert meta["readout"] == "robust"
        rows = read_report_rows(out)
        assert [r.value for r in rows] == [100.0, 500.0]
        assert all(r.episodes == 10 for r in rows)
