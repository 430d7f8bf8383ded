"""Closed-form bounds, the round-recursion ledger, and feasibility search.

Frozen numbers below were recomputed from the defining formulas with an
independent script (plain math plus the enumeration-frozen failing-weight
polynomial) and pinned at full precision.
"""

import json
import math

import pytest

from qmemsim.bounds import (EPSILON, LedgerReport, RecursionTrace,
                            RoundConstants, assess_constants, build_ledger,
                            decode_budget,
                            entanglement_breaking_time, evolution_budget,
                            feasibility_search, information_decay_time,
                            iterate_round_recursion, quadratic_block_error)
from qmemsim.fivequbit import b_exact


def test_information_decay_time():
    assert information_decay_time(8, 1.0) == pytest.approx(math.log(16.0),
                                                           rel=1e-15)
    assert information_decay_time(1, 2.0) == pytest.approx(math.log(2.0) / 2.0)
    with pytest.raises(ValueError):
        information_decay_time(0, 1.0)
    with pytest.raises(ValueError):
        information_decay_time(8, 0.0)


def test_simple_channel_quantities():
    assert entanglement_breaking_time(2.0) == pytest.approx(math.log(3.0) / 2.0)
    with pytest.raises(ValueError):
        entanglement_breaking_time(0.0)
    # the signal fraction e^{-rt} at the breaking time is 1/3, where the
    # average fidelity (1 + e^{-rt})/2 meets the floor 2/3
    t_eb = entanglement_breaking_time(1.7)
    assert math.exp(-1.7 * t_eb) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert (1.0 + math.exp(-1.7 * t_eb)) / 2.0 == pytest.approx(2.0 / 3.0,
                                                                rel=1e-12)


def test_budget_terms():
    assert quadratic_block_error(0.03) == pytest.approx(0.009, rel=1e-15)
    assert evolution_budget(0.025, 1e-6, 1.0) == pytest.approx(0.024999)
    # small-argument decode budget is close to h delta + d r (t_dec + delta)
    val = decode_budget(5000.0, 1e-6, 1e-3, 1.0)
    assert val == pytest.approx(math.expm1(5e-3) + 5 * (1e-3 + 1e-6), rel=1e-15)
    assert val > 5000.0 * 1e-6 + 5 * 1e-3


def test_recursion_trace_basics():
    # zero block error: every iterate is exactly p_dec
    trace = iterate_round_recursion(lambda p: 0.0, p_evol=0.01, p_dec=0.004,
                                    levels=3, p_star=0.01)
    assert trace.iterates == (0.004, 0.004, 0.004)
    assert trace.fixed_point == 0.004
    assert trace.holds and trace.first_violation is None
    # p_dec alone above threshold: violated from the first round
    bad = iterate_round_recursion(lambda p: 0.0, p_evol=0.0, p_dec=0.02,
                                  levels=2, p_star=0.01)
    assert not bad.holds and bad.first_violation == 1


def _two_loop_recursion(error_fn, p_evol, p_dec, levels, p_star):
    """The recursion as two loops, one for the recorded iterates and one for
    the 400 settling iterates: the reference for iterate_round_recursion."""
    p = 0.0
    iterates = []
    for _ in range(levels):
        p = error_fn(min(p + p_evol, 1.0)) + p_dec
        iterates.append(p)
    holds = all(q <= p_star for q in iterates)
    fixed_point = None
    q = p
    for _ in range(400):
        nxt = error_fn(min(q + p_evol, 1.0)) + p_dec
        if abs(nxt - q) < 1e-14:
            fixed_point = nxt
            break
        q = nxt
    return RecursionTrace(iterates=tuple(iterates), fixed_point=fixed_point,
                          p_star=p_star, holds=holds)


# multipliers whose recursion creeps towards its fixed point too slowly for
# 400 settling iterates to reach 1e-14
SLOW = dict(rate_r=1.0, p_star=0.01, c_prot=2.348087021755439, c_dec=0.25,
            c_delta=0.01 / (8 * math.pi))


@pytest.mark.parametrize("levels", [0, 1, 4, 39])
@pytest.mark.parametrize("case", ["settles", "two_cycle", "slow", "ramp"])
def test_recursion_matches_two_loop_reference(case, levels):
    slow = assess_constants(**SLOW)
    error_fn, p_evol, p_dec, p_star = {
        "settles": (b_exact, 0.024998756602007097, 0.012525788993726538,
                    0.025),
        "two_cycle": (lambda p: 0.5 - p, 0.0, 0.0, 0.3),
        "slow": (b_exact, slow.p_evol_bound, slow.p_dec_bound, 0.01),
        # steps of 1e-3 up to a cap reached on iterate 399: from levels 0,
        # the last of the 400 settling iterates is the first to settle
        "ramp": (lambda p: min(p + 1e-3, 0.3985), 0.0, 0.0, 0.5),
    }[case]
    got = iterate_round_recursion(error_fn, p_evol, p_dec, levels, p_star)
    assert got == _two_loop_recursion(error_fn, p_evol, p_dec, levels, p_star)
    assert len(got.iterates) == levels
    # the slow map settles only when 39 recorded iterates precede the 400
    unsettled = case == "two_cycle" or (case == "slow" and levels < 39)
    assert (got.fixed_point is None) == unsettled


def test_unsettled_recursion_has_no_margin():
    cand = assess_constants(**SLOW)
    assert cand.trace.fixed_point is None
    assert cand.margin is None
    d = cand.to_dict()
    assert d["margin"] is None and d["fixed_point"] is None
    assert '"margin": null' in json.dumps(d)


REFERENCE = dict(rate_r=1.0, p_star=0.025, tau=1.0)


def test_ledger_reference_constants_frozen():
    led = build_ledger(**REFERENCE)
    pt = led.point
    assert pt.t_prot == pytest.approx(0.025, rel=1e-15)
    assert pt.t_dec == pytest.approx(0.00125, rel=1e-15)
    assert pt.delta == pytest.approx(1.2433979929054324e-06, rel=1e-12)
    assert pt.h_norm == pytest.approx(5026.548245743669, rel=1e-12)
    assert EPSILON == pytest.approx(1.0 / 6.0)
    assert led.clock_bits == pytest.approx(8.358780997146247e+19, rel=1e-12)
    assert pt.levels == 39
    assert led.to_dict()["derived"]["n_qubits"] == float(5 ** 39)
    assert pt.p_evol_bound == pytest.approx(0.024998756602007097, rel=1e-12)
    assert pt.p_dec_bound == pytest.approx(0.012525788993726538, rel=1e-12)
    # reference relation makes the rotation exponent exactly p_star / 4
    assert pt.h_norm * pt.delta == pytest.approx(pt.p_star / 4.0, rel=1e-12)


def test_ledger_reference_recursion_fails_honestly():
    led = build_ledger(**REFERENCE)
    its = led.point.trace.iterates
    assert its[0] == pytest.approx(0.018434893671850954, rel=1e-12)
    assert its[1] == pytest.approx(0.029632326034311204, rel=1e-12)
    assert its[2] == pytest.approx(0.0389040688958879, rel=1e-12)
    assert its[3] == pytest.approx(0.04785397515680764, rel=1e-12)
    assert len(its) == 39
    assert not led.point.trace.holds
    assert led.point.trace.first_violation == 2
    assert not led.verdict_holds
    # the coarse quadratic bound fails at the same round
    assert led.quadratic.iterates[0] == pytest.approx(0.018775167310190473,
                                                      rel=1e-12)
    assert led.quadratic.iterates[1] == pytest.approx(0.031687353140435165,
                                                      rel=1e-12)
    assert not led.quadratic.holds
    assert led.quadratic.first_violation == 2
    # quadratic bound dominates the exact rate, iterate by iterate
    for qe, qq in zip(led.point.trace.iterates, led.quadratic.iterates):
        assert qe <= qq + 1e-15


def test_ledger_validation():
    with pytest.raises(ValueError):
        build_ledger(rate_r=1.0, p_star=0.026)
    with pytest.raises(ValueError):
        build_ledger(rate_r=1.0, p_star=0.0)
    with pytest.raises(ValueError):
        build_ledger(rate_r=1.0, p_star=0.01, tau=0.0)
    build_ledger(rate_r=1.0, p_star=1.0 / 40.0)  # boundary allowed


def test_ledger_log10_sizes_match_float_fields():
    derived = build_ledger(**REFERENCE).to_dict()["derived"]
    for key in ("clock_bits", "n_qubits"):
        assert 10.0 ** derived[f"log10_{key}"] == pytest.approx(derived[key],
                                                              rel=1e-12)


def test_ledger_to_dict_structure():
    d = build_ledger(**REFERENCE).to_dict()
    assert set(d) == {"inputs", "derived", "budget", "recursion_exact",
                      "recursion_quadratic", "verdict_holds"}
    assert d["inputs"]["p_star"] == 0.025
    assert d["derived"]["levels"] == 39
    assert len(d["recursion_exact"]["iterates"]) == 39
    assert d["verdict_holds"] is False


def test_assess_constants_worked_example():
    # p* = 0.01, t_prot = p*/2r, t_dec = p*/(20 d r), delta = (p*/8pi) t_dec
    cand = assess_constants(rate_r=1.0, p_star=0.01,
                            c_prot=0.5, c_dec=0.05,
                            c_delta=0.01 / (8.0 * math.pi))
    assert cand.t_prot == pytest.approx(0.005, rel=1e-15)
    assert cand.t_dec == pytest.approx(1e-4, rel=1e-15)
    assert cand.trace.holds
    assert cand.trace.fixed_point == pytest.approx(0.003755013916675067,
                                                   rel=1e-12)
    assert cand.margin == pytest.approx(0.6244986083324933, rel=1e-12)
    # fixed point is consistent with the recursion it claims to solve
    fp = cand.trace.fixed_point
    recomputed = b_exact(fp + cand.p_evol_bound) + cand.p_dec_bound
    assert recomputed == pytest.approx(fp, abs=1e-12)


def test_feasibility_search_default_grid():
    found = feasibility_search(rate_r=1.0)
    assert found is not None
    assert isinstance(found, RoundConstants)
    # first grid point already contracts: c_dec = 1/4
    assert found.c_dec == 0.25
    assert found.t_dec == pytest.approx(0.0005, rel=1e-15)
    assert found.delta == pytest.approx(1.989436788648692e-07, rel=1e-12)
    assert found.trace.fixed_point == pytest.approx(0.00623512722560685,
                                                    rel=1e-12)
    assert found.margin == pytest.approx(0.376487277439315, rel=1e-12)
    assert found.margin >= 0.1
    keys = set(found.to_dict())
    assert {"p_star", "t_dec", "delta", "fixed_point", "margin"} <= keys


def test_feasibility_search_margin_and_infeasible():
    # demanding a 90% margin rules out the whole default grid
    assert feasibility_search(rate_r=1.0, margin=0.9) is None
    # p* = 1/2 blows the recursion up on every grid point
    assert feasibility_search(rate_r=1.0, p_star_values=(0.5,)) is None
    for bad in (dict(p_star_values=()), dict(c_prot_values=()),
                dict(c_dec_values=()), dict(c_delta_values=())):
        with pytest.raises(ValueError):
            feasibility_search(rate_r=1.0, **bad)


def test_search_result_rate_scaling():
    # times scale as 1/r while the dimensionless recursion is unchanged
    slow = feasibility_search(rate_r=1.0)
    fast = feasibility_search(rate_r=4.0)
    assert fast.t_dec == pytest.approx(slow.t_dec / 4.0, rel=1e-12)
    assert fast.trace.fixed_point == pytest.approx(slow.trace.fixed_point,
                                                   rel=1e-9)
