"""Mean evaluation: frozen references, live high-precision sweeps, axioms."""

import math
import pickle
import re
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from meanbounds import (
    MeanKind,
    eval_mean,
    growth_offset,
    half_log_ratio,
    log_mean_normalized,
    parse_mean,
    quadratic_coefficient,
    solver,
)
from meanbounds.means import PLAIN_TAGS

from oracles import log_power_profile, mean_oracle

RNG_SEED = 20260814
DBL_MIN = np.finfo(float).tiny

# Values computed once with a 50-digit evaluation of the defining formulas
# (tests/oracles.py) and frozen to 17 significant figures.
FROZEN = {
    (1.0, 3.0): {
        "harmonic": 1.5,
        "geometric": 1.7320508075688773,
        "arithmetic": 2.0,
        "quadratic": 2.2360679774997896,
        "log": 1.8204784532536748,
        "identric": 1.9115576495069519,
        "first-seiffert": 1.9098593171027440,
        "second-seiffert": 2.1568104322916100,
        "neuman-sandor": 2.0780869212350275,
        "yang": 2.0653919974380796,
        "sandor": 1.8222041917562245,
        "sandor-yang": 2.0792643935581457,
        "toader": 2.1270888199467299,
        "power:1.5": 2.1251751614858102,
        "power:-2": 1.3416407864998738,
        "lehmer:0.5": 2.2679491924311227,
        "lehmer:-1": 1.5,
    },
    (2.0, 5.0): {
        "log": 3.2740700038118743,
        "identric": 3.3881986224445415,
        "first-seiffert": 3.3866845726037217,
        "second-seiffert": 3.7046935769249052,
        "neuman-sandor": 3.6020392593715497,
        "yang": 3.5901475284442658,
        "sandor": 3.2756012343295754,
        "sandor-yang": 3.6031981498363515,
        "toader": 3.6626506255304178,
        "power:1.5": 3.6608332257664647,
        "power:-2": 2.6261286571944511,
        "lehmer:0.5": 3.8377223398316207,
    },
    (0.5, 8.0): {
        "log": 2.7050532016668064,
        "identric": 3.5405454239131465,
        "first-seiffert": 3.4695269120770087,
        "second-seiffert": 5.1868701123440223,
        "neuman-sandor": 4.7128770520032128,
        "yang": 4.3822951184348454,
        "sandor": 2.7825463171126656,
        "sandor-yang": 4.7312709780577588,
        "toader": 5.1293986816035926,
        "power:1.5": 5.0920451406206499,
        "power:-2": 0.70572974622596943,
        "lehmer:0.5": 6.5,
        "lehmer:-1": 0.94117647058823529,
    },
    (1.0, 1e6): {
        "log": 72382.341268128321,
        "identric": 367884.52365393683,
        "first-seiffert": 318715.36874964446,
        "second-seiffert": 636619.94631749959,
        "neuman-sandor": 567296.67151593336,
        "yang": 450563.35759791932,
        "sandor": 184517.93994249726,
        "sandor-yang": 570538.36946553629,
        "toader": 636619.77237226107,
        "power:1.5": 629960.52536741027,
        "power:-2": 1.4142135623723879,
        "lehmer:0.5": 999001.0,
    },
}

SWEEP_KINDS = [MeanKind(tag) for tag in PLAIN_TAGS] + [
    MeanKind.power(p) for p in (-2.0, -0.5, 0.5, 1.5, 3.0)
] + [MeanKind.lehmer(p) for p in (-1.0, 0.5, 2.0)]


def _kinds_of(table):
    return [(parse_mean(spec), value) for spec, value in table.items()]


@pytest.mark.parametrize("pair", sorted(FROZEN))
def test_frozen_reference_values(pair):
    a, b = pair
    for kind, expected in _kinds_of(FROZEN[pair]):
        got = eval_mean(kind, a, b)
        assert got == pytest.approx(expected, rel=1e-13), kind.label()


def test_random_pairs_match_high_precision():
    rng = np.random.default_rng(RNG_SEED)
    log_ratio = rng.uniform(-6, 6, size=25)
    scale = 10.0 ** rng.uniform(-3, 3, size=25)
    for lr, s in zip(log_ratio, scale):
        a, b = float(s), float(s * math.exp(lr))
        for kind in SWEEP_KINDS:
            got = eval_mean(kind, a, b)
            want = float(mean_oracle(kind.tag, kind.param, a, b))
            assert got == pytest.approx(want, rel=5e-14), (kind.label(), a, b)


def test_normalized_sandor_yang_frozen_value():
    t = 0.7
    got = math.exp(log_mean_normalized(MeanKind("sandor-yang"), t))
    assert got == pytest.approx(1.3263573714074033, rel=1e-14)


def test_equal_arguments_return_the_argument_exactly():
    for kind in SWEEP_KINDS:
        for value in (0.1, 1.0, 7.25, 3e8):
            assert eval_mean(kind, value, value) == value


def test_symmetry_is_exact():
    for kind in SWEEP_KINDS:
        for a, b in ((1.0, 3.0), (0.37, 510.2), (2.0, 2.125)):
            assert eval_mean(kind, a, b) == eval_mean(kind, b, a)


def test_internality_strict():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(40):
        a = float(10.0 ** rng.uniform(-3, 3))
        b = float(a * math.exp(rng.uniform(0.01, 10)))
        for kind in SWEEP_KINDS:
            m = eval_mean(kind, a, b)
            assert min(a, b) < m < max(a, b), kind.label()


def test_positive_homogeneity():
    rng = np.random.default_rng(RNG_SEED + 2)
    pairs = [(1.0, 3.0), (0.25, 40.0), (5.0, 5.5)]
    pairs += [tuple(sorted(rng.uniform(0.1, 20.0, size=2))) for _ in range(10)]
    for lam in (1e-6, 1.0, 1e6):
        for a, b in pairs:
            for kind in SWEEP_KINDS:
                scaled = eval_mean(kind, lam * a, lam * b)
                base = lam * eval_mean(kind, a, b)
                assert scaled == pytest.approx(base, rel=1e-12), kind.label()


def test_power_special_cases_alias_plain_means():
    for a, b in ((1.0, 3.0), (0.5, 8.0), (2.0, 2.001)):
        assert eval_mean(MeanKind.power(-1), a, b) == eval_mean(MeanKind("harmonic"), a, b)
        assert eval_mean(MeanKind.power(0), a, b) == eval_mean(MeanKind("geometric"), a, b)
        assert eval_mean(MeanKind.power(1), a, b) == eval_mean(MeanKind("arithmetic"), a, b)
        assert eval_mean(MeanKind.power(2), a, b) == eval_mean(MeanKind("quadratic"), a, b)
        assert eval_mean(MeanKind.lehmer(0), a, b) == eval_mean(MeanKind("arithmetic"), a, b)
    for tag, p in (("harmonic", -1), ("geometric", 0), ("arithmetic", 1), ("quadratic", 2)):
        assert quadratic_coefficient(MeanKind(tag)) == quadratic_coefficient(MeanKind.power(p))
        assert growth_offset(MeanKind(tag)) == growth_offset(MeanKind.power(p))


def test_power_infinite_exponents_hit_the_envelope():
    assert eval_mean(MeanKind.power(math.inf), 2.0, 7.0) == 7.0
    assert eval_mean(MeanKind.power(-math.inf), 2.0, 7.0) == 2.0
    assert eval_mean(MeanKind.power(math.inf), 9.0, 4.0) == 9.0
    t = 1.75
    assert math.exp(log_mean_normalized(MeanKind.power(math.inf), t)) == pytest.approx(
        math.exp(t), rel=1e-15
    )
    assert math.exp(log_mean_normalized(MeanKind.power(-math.inf), t)) == pytest.approx(
        math.exp(-t), rel=1e-15
    )


def test_tiny_power_exponent_branch_is_smooth():
    t = 0.8
    near_zero = math.exp(log_mean_normalized(MeanKind.power(1e-9), t))
    geometric = math.exp(log_mean_normalized(MeanKind.power(0.0), t))
    assert geometric == 1.0
    # cosh(pt)^(1/p) = exp(p t^2/2 + O(p^3)); at p=1e-9 the correction is ~3e-10
    assert near_zero == pytest.approx(math.exp(0.5e-9 * t * t), rel=1e-14)


# power exponents below the 1e-8 switch, where log m(t) = log cosh(pt)/p is
# p t^2/2 below |p| t = 1e-8 and +-t - log(2)/p past |p| t = 700
TINY_P = [s * p for p in (9.9e-9, 1e-9, 1e-12, 1e-20, 1e-100, 1e-200) for s in (1.0, -1.0)]
TINY_P.append(5e-324)


def test_tiny_power_exponents_match_the_oracle_at_every_t():
    for p in TINY_P:
        cuts = [np.nextafter(c / abs(p), d) for c in (1e-8, 700.0) for d in (0.0, math.inf)]
        t = np.array([c for c in cuts if c <= 1e300] + (10.0 ** np.arange(-12, 301, 8)).tolist())
        kind = MeanKind.power(p)
        got = log_mean_normalized(kind, t)
        # the mean lies in [min, max]: |log m| <= t
        assert np.all(np.abs(got) <= t), p
        np.testing.assert_array_equal(got, [log_mean_normalized(kind, x) for x in t.tolist()])
        for x, y in zip(t.tolist(), got.tolist()):
            want = log_power_profile(p, x)
            # relative, or within DBL_MIN * 5e-16 where the value is subnormal;
            # the worst over 2001 log-spaced t and these cuts was 4.7e-16
            assert abs(y - want) <= 5e-16 * max(abs(want), DBL_MIN), (p, x, y)
    for pair in ((5e-324, 1.7e308), (1e-200, 1e200)):
        for a, b in (pair, pair[::-1]):
            for p in TINY_P:
                assert min(a, b) <= eval_mean(MeanKind.power(p), a, b) <= max(a, b), (p, a, b)


def test_power_mean_monotone_in_exponent():
    grid = np.arange(-4.0, 4.25, 0.25)
    for a, b in ((1.0, 3.0), (0.5, 8.0), (2.0, 2.0004)):
        values = [eval_mean(MeanKind.power(r), a, b) for r in grid]
        assert all(x < y for x, y in zip(values, values[1:]))


def test_lehmer_mean_monotone_in_parameter():
    grid = np.arange(-3.0, 3.5, 0.5)
    for a, b in ((1.0, 3.0), (0.5, 8.0)):
        values = [eval_mean(MeanKind.lehmer(p), a, b) for p in grid]
        assert all(x < y for x, y in zip(values, values[1:]))


def test_scaled_power_mean_decreasing_and_log_convex():
    # g(r) = 2^(1/r) M_r(a,b) = (a^r + b^r)^(1/r), the l_r norm of the pair:
    # strictly decreasing in r and log-convex.
    rng = np.random.default_rng(RNG_SEED + 3)
    grid = np.arange(0.25, 4.25, 0.25)
    pairs = [(1.0, 3.0), (0.5, 8.0)]
    pairs += [tuple(sorted(10.0 ** rng.uniform(-2, 2, size=2))) for _ in range(8)]
    for a, b in pairs:
        logg = np.array(
            [math.log(2.0) / r + math.log(eval_mean(MeanKind.power(r), a, b)) for r in grid]
        )
        assert np.all(np.diff(logg) < 0)
        midpoint_excess = (logg[:-2] + logg[2:]) / 2 - logg[1:-1]
        assert np.all(midpoint_excess >= -1e-12)


def test_classical_ordering_of_the_catalog():
    rng = np.random.default_rng(RNG_SEED + 4)
    ordering = [
        "harmonic",
        "geometric",
        "log",
        "sandor",
        "first-seiffert",
        "identric",
        "arithmetic",
        "neuman-sandor",
        "sandor-yang",
        "toader",
        "second-seiffert",
        "quadratic",
    ]
    # yang crosses the arithmetic mean (above it for small ratios, below for
    # large ones), so it only has a stable position between identric and
    # neuman-sandor
    side_chain = ["identric", "yang", "neuman-sandor"]
    for _ in range(25):
        a = float(10.0 ** rng.uniform(-2, 2))
        b = float(a * math.exp(rng.uniform(0.05, 12)))
        values = [eval_mean(MeanKind(tag), a, b) for tag in ordering]
        assert all(x < y for x, y in zip(values, values[1:])), (a, b)
        side = [eval_mean(MeanKind(tag), a, b) for tag in side_chain]
        assert side[0] < side[1] < side[2], (a, b)


def test_direct_and_normalized_routes_agree():
    ts = np.logspace(-8, math.log10(30.0), 40)
    for kind in SWEEP_KINDS:
        for t in ts:
            direct = eval_mean(kind, math.exp(-t), math.exp(t))
            normalized = math.exp(log_mean_normalized(kind, float(t)))
            assert direct == pytest.approx(normalized, rel=1e-12), (kind.label(), t)


def test_toader_against_elliptic_reference():
    ts = np.concatenate(
        [np.logspace(-4, 0, 9), np.linspace(1.2, 8.0, 12), [12.0, 19.5, 25.0]]
    )
    for t in ts:
        a, b = math.exp(-t), math.exp(t)
        got = eval_mean(MeanKind("toader"), a, b)
        want = float(mean_oracle("toader", None, a, b))
        assert got == pytest.approx(want, rel=5e-14), t


def test_toader_log_profile_against_oracle():
    # log m(t) itself, so that relative accuracy near t = 0 (where log m is
    # 3t^2/4) and near m(t) = e^t (where the oracle needs its extra digits)
    # both show
    for t in np.logspace(-12, math.log10(40.0), 240):
        got = log_mean_normalized(MeanKind("toader"), float(t))
        want = mp.log(mean_oracle("toader", None, mp.exp(-float(t)), mp.exp(float(t))))
        assert abs(got - want) <= 1e-13 * abs(want), t


def test_toader_values_do_not_depend_on_the_batch():
    x = 10.0 ** np.random.default_rng(RNG_SEED + 8).uniform(-1, 1, 1000)
    scalars = [eval_mean(MeanKind("toader"), float(v), 1.5) for v in x]
    np.testing.assert_array_equal(eval_mean(MeanKind("toader"), x, 1.5), scalars)


def test_toader_memory_per_pair():
    # a guard against per-pair temporaries like an n x nodes quadrature matrix
    n = 2**16
    t = 10.0 ** np.random.default_rng(RNG_SEED + 7).uniform(-10, 1.2, n)
    a, b = np.exp(-t), np.exp(t)
    kind = MeanKind("toader")
    eval_mean(kind, a[:8], b[:8])  # first-call setup (imports, caches) outside the count
    tracemalloc.start()
    try:
        eval_mean(kind, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 200


@pytest.mark.parametrize(
    "kind",
    [MeanKind(tag) for tag in PLAIN_TAGS] + [MeanKind.power(1.5), MeanKind.lehmer(0.5)],
    ids=lambda kind: kind.label(),
)
def test_bulk_working_memory_is_bounded(kind):
    # large arrays run in blocks of 2^15: beyond the output, a call's
    # temporaries stay near 2 MiB at any n instead of growing with it, also
    # when a scalar argument is broadcast, and when the broadcast of two
    # small arguments, not either argument, is large
    n = 2**19
    t = 10.0 ** np.random.default_rng(RNG_SEED + 9).uniform(-10, 1.2, n)
    a, b = np.exp(-t), np.exp(t)
    eval_mean(kind, a[:8], b[:8])  # first-call setup (imports, caches) outside the count
    for args in ((a, b), (a, 2.5), (a[:1000, None], b[None, :1000])):
        tracemalloc.start()
        try:
            eval_mean(kind, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * np.broadcast(*args).size <= 4 * 2**20


def test_toader_near_equal_arguments_collapse_to_arithmetic():
    a, b = 1.0, 0.9999
    arith = (a + b) / 2
    assert eval_mean(MeanKind("toader"), a, b) == pytest.approx(arith, rel=1e-9)


def test_toader_between_its_sharp_power_neighbours():
    q_upper = math.log(2.0) / (math.log(math.pi) - math.log(2.0))
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(50):
        a = float(10.0 ** rng.uniform(-2, 2))
        b = float(a * math.exp(rng.uniform(1e-4, 20)))
        lower = eval_mean(MeanKind.power(1.5), a, b)
        upper = eval_mean(MeanKind.power(q_upper), a, b)
        assert lower < eval_mean(MeanKind("toader"), a, b) < upper


def test_half_log_ratio_values_and_errors():
    assert half_log_ratio(5.0, 5.0) == 0.0
    assert half_log_ratio(1.0, math.exp(2.0)) == pytest.approx(1.0, rel=1e-14)
    assert half_log_ratio(4.0, 9.0) == pytest.approx(math.log(1.5), rel=1e-14)
    assert half_log_ratio(9.0, 4.0) == half_log_ratio(4.0, 9.0)
    # tiny separations keep full relative accuracy via log1p
    assert half_log_ratio(1.0, 1.0 + 1e-12) == pytest.approx(0.5e-12, rel=1e-9)
    # ratios past DBL_MAX, where the relative gap overflows
    assert half_log_ratio(1e-200, 1e200) == pytest.approx(200.0 * math.log(10.0), rel=1e-15)
    assert half_log_ratio(1.0, 5e-324) == pytest.approx(537.0 * math.log(2.0), rel=1e-15)
    for bad in ((0.0, 1.0), (1.0, -3.0), (-1.0, -2.0), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            half_log_ratio(*bad)


EXTREME_PAIRS = ((1e-200, 1e200), (5e-324, 1.0), (1e-308, 1e308), (5e-324, 1.7e308))


def test_extreme_pairs_match_the_oracle():
    # power means with p < -1 are left out: at (5e-324, 1) they are about
    # 2^(1/|p|) * 5e-324, which no subnormal float holds to this tolerance
    kinds = [MeanKind(tag) for tag in PLAIN_TAGS]
    kinds += [MeanKind.power(p) for p in (0.5, 2.0, 4.0)]
    kinds += [MeanKind.lehmer(p) for p in (-2.0, 0.5, 2.0)]
    for pair in EXTREME_PAIRS:
        for a, b in (pair, pair[::-1]):
            t = mp.log(mp.mpf(max(a, b)) / min(a, b)) / 2
            for kind in kinds:
                log_m = mp.log(mean_oracle(kind.tag, kind.param, mp.exp(-t), mp.exp(t)))
                want = mp.sqrt(mp.mpf(a) * b) * mp.exp(log_m)
                # exp turns the half-ulp rounding of log m into 2^-53 |log m|
                tol = max(1e-13, 4.0 * 2.0**-52 * abs(float(log_m)))
                got = eval_mean(kind, a, b)
                assert abs(float((got - want) / want)) <= tol, (kind.label(), a, b, got)


def test_parse_and_kind_validation():
    assert parse_mean("power:2") == MeanKind.power(2.0)
    assert parse_mean("lehmer:-1") == MeanKind.lehmer(-1.0)
    assert parse_mean("second-seiffert") == MeanKind("second-seiffert")
    assert parse_mean("power:2").label() == "power:2"
    assert MeanKind("sandor-yang").label() == "sandor-yang"
    for bad in ("powr:2", "power", "lehmer", "log:1", "power:abc", "lehmer:inf"):
        with pytest.raises(ValueError):
            parse_mean(bad)
    # the text after the colon reaches the constructor as it is: one float() converts it
    for text, value in (("power:2", 2), ("power: 2", 2), ("power:2.0", 2), ("power:1_0", 10)):
        kind, want = parse_mean(text), MeanKind.power(value)
        assert kind == want and hash(kind) == hash(want), text
        assert repr(kind) == repr(want) and kind.label() == want.label(), text
    for call, message in (
        (lambda: MeanKind("power", "abc"), "bad parameter 'abc' for mean 'power'"),
        (lambda: parse_mean("lehmer:abc"), "bad parameter 'abc' for mean 'lehmer'"),
        (lambda: parse_mean("power:"), "bad parameter '' for mean 'power'"),
        (lambda: parse_mean("log:abc"), "mean 'log' takes no parameter"),
        (lambda: parse_mean("log:"), "mean 'log' takes no parameter"),
        (lambda: parse_mean("bogus:abc"), "unknown mean 'bogus'"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    # one conversion, the constructor's: the classmethods pass p on as it is
    for tag, family in (("power", MeanKind.power), ("lehmer", MeanKind.lehmer)):
        for call in (lambda: MeanKind(tag), lambda: parse_mean(tag), lambda: family(None)):
            with pytest.raises(ValueError, match=f"^mean '{tag}' requires a parameter$"):
                call()
    with pytest.raises(ValueError):
        MeanKind.lehmer(math.inf)
    with pytest.raises(ValueError):
        MeanKind.power(math.nan)
    with pytest.raises(ValueError):
        MeanKind("arithmetic", 2.0)


def test_a_kind_carries_its_row_outside_eq_hash_and_repr():
    made, parsed = MeanKind.power(2), parse_mean("power:2")
    assert made._row is not parsed._row
    assert made == parsed and hash(made) == hash(parsed)
    for family in (MeanKind.power, MeanKind.lehmer):
        for given, value in ((np.float64(2), 2.0), ("2", 2.0), (Fraction(1, 3), 1.0 / 3.0)):
            kind = family(given)
            assert kind == family(value) and hash(kind) == hash(family(value)), given
            assert type(kind.param) is float
    assert repr(made) == "MeanKind(tag='power', param=2.0)"
    assert repr(MeanKind("toader")) == "MeanKind(tag='toader', param=None)"
    # equal kinds share one cache entry of the solver's grid profiles
    solver._mean_log_on_grid.cache_clear()
    assert solver._mean_log_on_grid(parsed) is solver._mean_log_on_grid(made)
    assert solver._mean_log_on_grid.cache_info().currsize == 1
    # a kind pickles as its tag and parameter, and rebuilds its row
    for kind in (MeanKind("log"), made, MeanKind.lehmer(-0.5)):
        back = pickle.loads(pickle.dumps(kind))
        assert back == kind and back._row[1:] == kind._row[1:]
        assert back._row[0](0.7) == kind._row[0](0.7)


def test_eval_mean_rejects_nonpositive_arguments():
    for a, b in ((0.0, 1.0), (1.0, 0.0), (-2.0, 3.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            eval_mean(MeanKind("arithmetic"), a, b)


def test_vectorized_evaluation_matches_scalar():
    a = np.array([1.0, 2.0, 0.5, 3.0])
    b = np.array([3.0, 5.0, 8.0, 3.0])
    for kind in (MeanKind("sandor-yang"), MeanKind.power(1.5), MeanKind("toader")):
        vec = eval_mean(kind, a, b)
        assert isinstance(vec, np.ndarray)
        for i in range(a.size):
            # quadrature reduction order may differ between batch shapes,
            # so agreement is to rounding, not bit-for-bit
            assert vec[i] == pytest.approx(
                eval_mean(kind, float(a[i]), float(b[i])), rel=1e-14
            )


def test_quadratic_coefficients_match_small_t_expansion():
    t = 1e-4
    for kind in SWEEP_KINDS:
        c2 = quadratic_coefficient(kind)
        numeric = log_mean_normalized(kind, t) / (t * t)
        assert numeric == pytest.approx(c2, abs=1e-6), kind.label()


def test_growth_offsets_match_large_t_behaviour():
    t = 40.0
    for kind in SWEEP_KINDS:
        omega = growth_offset(kind)
        shifted = log_mean_normalized(kind, t) - t
        # kinds with omega = -inf drift at least logarithmically below t,
        # e.g. the logarithmic mean sits at -log(2t) = -4.38 by t=40
        if math.isinf(omega):
            assert shifted < -4.0, kind.label()
        else:
            assert shifted == pytest.approx(omega, abs=1e-10), kind.label()


def test_growth_offset_parametric_table():
    assert growth_offset(MeanKind.power(2)) == pytest.approx(-math.log(2.0) / 2)
    assert growth_offset(MeanKind.power(-1)) == -math.inf
    assert growth_offset(MeanKind.lehmer(0.5)) == 0.0
    assert growth_offset(MeanKind.lehmer(0)) == pytest.approx(-math.log(2.0))
    assert growth_offset(MeanKind.lehmer(-1)) == -math.inf
    assert quadratic_coefficient(MeanKind.power(3)) == pytest.approx(1.5)
    assert quadratic_coefficient(MeanKind.lehmer(2)) == pytest.approx(2.5)
