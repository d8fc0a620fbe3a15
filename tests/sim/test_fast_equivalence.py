"""Fast-engine equivalence suite: golden pins + statistical agreement.

The fast engine consumes the same random streams as the reference engine
but draws arrivals in blocks, so individual runs are *deterministic and
pinned* yet not bit-identical to the reference.  Three layers of
protection:

* **golden pins** — the fast engine's own outputs are frozen across
  3 seeds × both pull modes × faults on/off, so any behavioural drift
  in the fast path shows up as an exact-count diff;
* **statistical agreement** — replication means of the two engines must
  agree within their combined confidence half-widths, the strongest
  claim available when RNG consumption order differs;
* **structural invariants** — hypothesis-randomised configurations run
  to completion on the fast engine with the conservation watchdog (which
  audits every ``run``) and the accounting identities intact.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import HybridConfig
from repro.core.faults import FaultConfig
from repro.sim import HybridSystem, run_replications

from .test_golden_equivalence import (
    FAULTS,
    HORIZON,
    SEEDS,
    WARMUP,
    _config,
    _fingerprint,
)

#: (with_faults, pull_mode, seed) -> (satisfied, reneged, shed, blocked,
#: push_broadcasts, pull_services, overall_delay, mean_queue_length).
GOLDEN = {
    (False, "serial", 0): (502, 0, 0, 36, 108, 90, 28.978152334507183, 12.225859051790104),
    (False, "serial", 7): (484, 0, 0, 12, 104, 93, 28.947189735153316, 10.326439427687387),
    (False, "serial", 123): (448, 0, 0, 22, 110, 93, 27.978127998068164, 12.250599654155701),
    (False, "concurrent", 0): (493, 0, 0, 60, 176, 124, 16.987891433432633, 5.210703309280521),
    (False, "concurrent", 7): (480, 0, 0, 44, 176, 132, 16.22463190075352, 5.492140417964529),
    (False, "concurrent", 123): (450, 0, 0, 41, 176, 128, 15.849362033805768, 4.0700996717475695),
    (True, "serial", 0): (383, 120, 0, 31, 108, 84, 21.176110722004026, 9.185539488534353),
    (True, "serial", 7): (349, 150, 0, 9, 87, 81, 23.579074668850833, 10.83483820563774),
    (True, "serial", 123): (350, 122, 0, 14, 102, 89, 20.182956139950125, 8.830451862037584),
    (True, "concurrent", 0): (471, 18, 0, 63, 167, 114, 16.445006883215697, 4.719736934959892),
    (True, "concurrent", 7): (444, 51, 0, 29, 147, 123, 17.40920143155174, 6.050078421205068),
    (True, "concurrent", 123): (418, 40, 0, 37, 155, 115, 16.827201909454825, 5.148029106635781),
}


@pytest.mark.parametrize("pull_mode", ["serial", "concurrent"])
@pytest.mark.parametrize("with_faults", [False, True], ids=["fault-off", "fault-on"])
class TestGoldenPins:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fast_engine_outputs_are_pinned(self, pull_mode, with_faults, seed):
        system = HybridSystem(
            _config(with_faults), seed=seed, warmup=WARMUP,
            pull_mode=pull_mode, engine="fast",
        )
        result = system.run(HORIZON)
        satisfied, reneged, shed, blocked, pushes, pulls, delay, qlen = GOLDEN[
            (with_faults, pull_mode, seed)
        ]
        assert result.satisfied_requests == satisfied
        assert result.reneged_requests == reneged
        assert result.shed_requests == shed
        assert result.blocked_requests == blocked
        assert result.push_broadcasts == pushes
        assert result.pull_services == pulls
        assert result.overall_delay == pytest.approx(delay, rel=1e-9)
        assert result.mean_queue_length == pytest.approx(qlen, rel=1e-9)

    def test_fast_engine_is_deterministic(self, pull_mode, with_faults):
        config = _config(with_faults)
        first = HybridSystem(
            config, seed=SEEDS[0], warmup=WARMUP, pull_mode=pull_mode, engine="fast"
        ).run(HORIZON)
        second = HybridSystem(
            config, seed=SEEDS[0], warmup=WARMUP, pull_mode=pull_mode, engine="fast"
        ).run(HORIZON)
        assert _fingerprint(first) == _fingerprint(second)

    def test_replications_identical_across_n_jobs(self, pull_mode, with_faults):
        config = _config(with_faults)
        serial = run_replications(
            config, num_runs=3, horizon=HORIZON, warmup=WARMUP,
            pull_mode=pull_mode, n_jobs=1, engine="fast",
        )
        parallel = run_replications(
            config, num_runs=3, horizon=HORIZON, warmup=WARMUP,
            pull_mode=pull_mode, n_jobs=2, engine="fast",
        )
        for left, right in zip(serial.runs, parallel.runs):
            assert _fingerprint(left) == _fingerprint(right)


@pytest.mark.parametrize("pull_mode", ["serial", "concurrent"])
@pytest.mark.parametrize("with_faults", [False, True], ids=["fault-off", "fault-on"])
class TestStatisticalAgreement:
    """Engine means must agree within combined CI half-widths.

    Blocked arrival generation consumes the RNG in a different order, so
    runs differ; over replications the engines simulate the same system
    and their confidence intervals must overlap.
    """

    def test_overall_delay_cis_overlap(self, pull_mode, with_faults):
        config = _config(with_faults)
        kwargs = dict(
            num_runs=6, horizon=HORIZON, warmup=WARMUP, pull_mode=pull_mode
        )
        reference = run_replications(config, engine="reference", **kwargs)
        fast = run_replications(config, engine="fast", **kwargs)

        ref_mean, ref_half = reference.overall_delay()
        fast_mean, fast_half = fast.overall_delay()
        gap = abs(ref_mean - fast_mean)
        # 1.5x slack on the summed half-widths keeps the 6-replication
        # test cheap without flaking; genuine divergence blows well past.
        allowance = 1.5 * (ref_half + fast_half)
        assert gap <= allowance, (
            f"engine means diverge: reference={ref_mean:.4f}±{ref_half:.4f} "
            f"fast={fast_mean:.4f}±{fast_half:.4f}"
        )

    def test_throughput_within_ten_percent(self, pull_mode, with_faults):
        config = _config(with_faults)
        kwargs = dict(
            num_runs=6, horizon=HORIZON, warmup=WARMUP, pull_mode=pull_mode
        )
        reference = run_replications(config, engine="reference", **kwargs)
        fast = run_replications(config, engine="fast", **kwargs)
        ref_satisfied = sum(r.satisfied_requests for r in reference.runs)
        fast_satisfied = sum(r.satisfied_requests for r in fast.runs)
        assert fast_satisfied == pytest.approx(ref_satisfied, rel=0.10)


@st.composite
def _random_scenario(draw):
    with_faults = draw(st.booleans())
    pull_mode = draw(st.sampled_from(["serial", "concurrent"]))
    # Concurrent mode requires a non-empty push set (fast engine guards it).
    min_cutoff = 1 if pull_mode == "concurrent" else 0
    config = HybridConfig(
        num_items=draw(st.integers(min_value=10, max_value=60)),
        cutoff=draw(st.integers(min_value=min_cutoff, max_value=10)),
        arrival_rate=draw(st.floats(min_value=0.2, max_value=3.0)),
        num_clients=draw(st.integers(min_value=5, max_value=60)),
    )
    if with_faults:
        config = config.with_faults(FAULTS)
    return config, pull_mode


class TestStructuralInvariants:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scenario=_random_scenario(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_fast_run_completes_and_conserves(self, scenario, seed):
        config, pull_mode = scenario
        system = HybridSystem(
            config, seed=seed, warmup=10.0, pull_mode=pull_mode, engine="fast"
        )
        # The watchdog audits request conservation inside run(); reaching
        # the return already proves the ledger balances.
        result = system.run(150.0)
        assert result.horizon == 150.0
        assert result.satisfied_requests >= 0
        assert result.push_broadcasts >= 0
        assert result.pull_services >= 0
        terminal = (
            result.satisfied_requests
            + result.blocked_requests
            + result.reneged_requests
            + result.shed_requests
        )
        assert terminal >= 0
        if not math.isnan(result.overall_delay):
            assert result.overall_delay >= 0.0
