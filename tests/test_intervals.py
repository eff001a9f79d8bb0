import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rglat.errors import AmbientMismatch, InputFormatError, PreconditionViolation
from rglat.gen import random_interval_set
from rglat.intervals import (
    EMPTY,
    Ambient,
    IntervalSet,
    PiecewiseLinearProfile,
    StepDensity,
    chief_element,
    density_from_json,
    density_to_json,
    grade_value,
    intersect,
    interval_lattice,
    interval_set_from_json,
    interval_set_to_json,
    measure,
    normalize,
    profile_bundle,
    union,
)
from rglat.regrading import hypothesis_line_sets

from oracle_helpers import (
    fraction_intersect,
    fraction_union,
    grid_density_mass,
    grid_intersect,
    grid_measure,
    grid_union,
    oracle_profiles,
)
from strategies import (
    interval_sets,
    mixed_interval_sets,
    mixed_sets,
    odd_step_densities,
    prefix_inverse_sets,
    raw_pairs,
    step_densities,
)

HALF = Fraction(1, 2)
TWO = Fraction(2)
AMBIENT2 = Ambient(TWO)

FINAL_DENSITY = StepDensity((Fraction(0), Fraction(1), TWO), (Fraction(1), TWO))


def iset(*pairs):
    return IntervalSet.of(*pairs)


def _scan_min_level(prof, target):
    """The least argument attaining target, by a scan of every profile segment."""
    vs, xs = prof.values, prof.breakpoints
    if target == vs[0]:
        return xs[0]
    for i in range(len(xs) - 1):
        if vs[i] < target <= vs[i + 1]:
            slope = (vs[i + 1] - vs[i]) / (xs[i + 1] - xs[i])
            return xs[i] + (target - vs[i]) / slope
    raise AssertionError("a weakly increasing profile attains every value in its range")


@st.composite
def increasing_profiles(draw) -> PiecewiseLinearProfile:
    """A weakly increasing profile on up to 8 breakpoints, often with plateaus."""
    n = draw(st.integers(2, 8))
    xs = sorted(draw(st.lists(st.fractions(0, 4, max_denominator=8), min_size=n, max_size=n, unique=True)))
    # Mostly zero rises, so the profile has plateaus, often several in a row.
    rises = draw(st.lists(st.sampled_from([0, 0, 0, 1, Fraction(1, 3), 2]), min_size=n - 1, max_size=n - 1))
    vs = [Fraction(draw(st.integers(-2, 2)))]
    for rise in rises:
        vs.append(vs[-1] + rise)
    return PiecewiseLinearProfile(tuple(xs), tuple(vs))


def _interpolate(prof, x):
    """The profile's value at x, by a scan for the segment holding x."""
    xs, vs = prof.breakpoints, prof.values
    if x == xs[-1]:
        return vs[-1]
    for k in range(len(xs) - 1):
        if xs[k] <= x < xs[k + 1]:
            return vs[k] + (vs[k + 1] - vs[k]) * (x - xs[k]) / (xs[k + 1] - xs[k])
    raise AssertionError(f"{x} outside the profile domain")


class TestNormalize:
    def test_adjacent_pieces_merge(self):
        assert normalize([(0, HALF), (HALF, 1)]) == iset((0, 1))

    def test_empty_input(self):
        assert normalize([]) == EMPTY

    def test_overlap_merges(self):
        assert normalize([(0, Fraction(3, 4)), (HALF, 1)]) == iset((0, 1))

    def test_reversed_pair_rejected(self):
        with pytest.raises(PreconditionViolation):
            normalize([(1, 1)])

    def test_out_of_ambient_rejected(self):
        with pytest.raises(AmbientMismatch):
            normalize([(0, 3)], AMBIENT2)
        with pytest.raises(AmbientMismatch):
            normalize([(-1, 1)], AMBIENT2)

    @given(u=mixed_sets())
    def test_canonical_forms_are_fixed_points(self, u):
        assert normalize(u.intervals) == u

    @settings(max_examples=200)
    @example(raw=[(HALF, 1), (0, HALF)])  # adjacent, out of order
    @example(raw=[(0, 1), (Fraction(1, 3), Fraction(1, 7) + 1), (Fraction(2, 7), Fraction(5, 12))])
    @given(raw=raw_pairs() | raw_pairs(lower=-2))
    def test_raw_pairs_match_the_grid_oracle(self, raw):
        assert normalize(raw).intervals == grid_union(raw)
        if all(a >= 0 for a, _ in raw):
            assert normalize(raw, AMBIENT2).intervals == grid_union(raw)

    def test_errors_name_the_first_bad_pair_in_input_order(self):
        # The reversed pair (-3, -4] would sort first; the error names (1, 1/2].
        with pytest.raises(PreconditionViolation) as empty:
            normalize([(1, TWO), (1, HALF), (-3, -4)])
        assert str(empty.value) == "raw interval (1, 1/2] is empty or reversed"
        with pytest.raises(AmbientMismatch) as outside:
            normalize([(1, 3), (-1, HALF)], AMBIENT2)
        assert str(outside.value) == "(1, 3] lies outside (0, 2]"

    def test_a_bad_pair_is_named_before_a_later_unreadable_one(self):
        with pytest.raises(PreconditionViolation, match=r"^raw interval \(1, 1/2\] is empty or reversed$"):
            normalize([(1, HALF), (0.5, 1)])
        with pytest.raises(AmbientMismatch, match=r"^\(1, 3\] lies outside \(0, 2\]$"):
            normalize([(1, 3), ("x", 1)], AMBIENT2)
        with pytest.raises(ValueError):
            normalize([(0, 1), ("x", 1)], AMBIENT2)


class TestBooleanOps:
    def test_meet_example(self):
        assert intersect(iset((0, HALF)), iset((Fraction(1, 4), Fraction(3, 4)))) == iset(
            (Fraction(1, 4), HALF)
        )

    def test_join_identity(self):
        u = iset((0, HALF), (1, TWO))
        assert union(u, EMPTY) == u

    @given(u=interval_sets(), v=interval_sets(), w=interval_sets())
    def test_distributivity(self, u, v, w):
        assert intersect(u, union(v, w)) == union(intersect(u, v), intersect(u, w))
        assert union(u, intersect(v, w)) == intersect(union(u, v), union(u, w))


QUARTER = Fraction(1, 4)


class TestTrustedKernelResults:
    """intersect, union, normalize and profile_bundle skip the public checks.

    Their results must be exactly what the checked constructors accept.
    """

    @settings(max_examples=300)
    @example(u=iset((0, HALF)), v=iset((HALF, 1)))  # adjacent
    @example(u=iset((0, QUARTER), (HALF, Fraction(3, 4))), v=iset((QUARTER, HALF), (Fraction(3, 4), 1)))
    @example(u=iset((0, TWO)), v=iset((HALF, 1)))  # nested
    @example(u=iset((HALF, 1)), v=iset((0, TWO)))
    @example(u=iset((0, HALF), (1, TWO)), v=iset((0, HALF), (1, TWO)))  # identical
    @example(u=iset((0, HALF), (1, TWO)), v=EMPTY)
    @example(u=EMPTY, v=EMPTY)
    @given(u=mixed_sets(), v=mixed_sets())
    def test_union_matches_the_grid_oracle(self, u, v):
        assert union(u, v).intervals == grid_union(u.intervals, v.intervals)

    @settings(max_examples=300)
    @example(u=iset((0, HALF)), v=iset((HALF, 1)))  # adjacent
    @example(u=iset((0, TWO)), v=iset((HALF, 1)))  # nested
    @example(u=iset((0, HALF), (1, TWO)), v=iset((0, HALF), (1, TWO)))  # identical
    @example(u=iset((0, HALF), (1, TWO)), v=EMPTY)
    @given(u=mixed_sets(), v=mixed_sets())
    def test_intersect_matches_the_grid_oracle(self, u, v):
        assert intersect(u, v).intervals == grid_intersect(u.intervals, v.intervals)

    @settings(max_examples=200)
    @given(u=mixed_interval_sets(lower=-2), v=mixed_interval_sets(lower=-2))
    def test_kernels_match_the_grid_oracles_on_the_whole_line(self, u, v):
        assert intersect(u, v).intervals == grid_intersect(u.intervals, v.intervals)
        assert union(u, v).intervals == grid_union(u.intervals, v.intervals)
        assert measure(u) == grid_measure(u.intervals, Fraction(-2), TWO)

    @settings(max_examples=200)
    @example(u=iset((0, HALF), (1, TWO)), v=iset((0, 1), (Fraction(3, 2), TWO)))  # equal ends
    @given(u=mixed_sets(), v=mixed_sets())
    def test_kernels_match_the_fraction_walks(self, u, v):
        for got, want in ((intersect(u, v), fraction_intersect), (union(u, v), fraction_union)):
            assert got.intervals == want(u.intervals, v.intervals)

    @settings(max_examples=200)
    @example(u=iset((0, HALF)), v=iset((HALF, 1)))
    @given(u=mixed_sets(), v=mixed_sets())
    def test_kernel_results_pass_the_public_checks(self, u, v):
        for result in (intersect(u, v), union(u, v), normalize(u.intervals + v.intervals)):
            assert IntervalSet(result.intervals) == result

    @settings(max_examples=200)
    @example(u=iset((0, HALF)), v=iset((HALF, 1)), raw=[], seed=0)
    @given(
        u=interval_sets() | mixed_interval_sets(),
        v=interval_sets() | mixed_interval_sets(),
        raw=raw_pairs(),
        seed=st.integers(0, 2**32),
    )
    def test_results_carry_the_integer_form_of_their_endpoints(self, u, v, raw, seed):
        # A result's form may be over any common multiple of its denominators,
        # so results of results are checked too.
        drawn = random_interval_set(random.Random(seed), Fraction(7, 3))
        results = [intersect(u, v), union(u, v), normalize(u.intervals + v.intervals), normalize(raw), drawn]
        results += [union(results[0], drawn), intersect(results[1], drawn), union(u, results[0])]
        for result in results:
            nums, d = result._ints
            ends = result.endpoints()
            assert len(nums) == len(ends)
            assert all(Fraction(n, d) == e for n, e in zip(nums, ends)), result

    def test_normalize_wraps_non_fraction_endpoints(self):
        u = normalize([(0, 1), ("3/2", TWO)])
        assert IntervalSet(u.intervals) == u == iset((0, 1), (Fraction(3, 2), TWO))

    @settings(max_examples=100)
    @given(z=interval_sets(), f=st.none() | step_densities())
    def test_bundle_profiles_pass_the_public_checks(self, z, f):
        bundle = profile_bundle(AMBIENT2, z, f)
        for name in ("grade_meet", "grade_join", "measure_meet", "measure_join"):
            prof = getattr(bundle, name)
            assert PiecewiseLinearProfile(prof.breakpoints, prof.values) == prof, name

    def test_public_constructors_still_check(self):
        with pytest.raises(ValueError):
            IntervalSet(((Fraction(0), HALF), (HALF, Fraction(1))))
        with pytest.raises(ValueError):
            IntervalSet(((0, 1),))
        with pytest.raises(PreconditionViolation):
            PiecewiseLinearProfile((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)))

    def test_public_profile_constructor_reads_samples_as_fractions(self):
        prof = PiecewiseLinearProfile((0, "1/2", 1), (0, 1, "5/2"))
        assert prof.breakpoints == (Fraction(0), HALF, Fraction(1))
        assert all(type(v) is Fraction for v in prof.breakpoints + prof.values)
        assert prof.value_at("3/4") == Fraction(7, 4)
        assert prof.min_level_at_value(2) == Fraction(5, 6)


def _gen_sets():
    """Draws of gen.random_interval_set on (0, 2], int-only until something reads their pairs."""
    return st.integers(0, 2**32).map(lambda seed: random_interval_set(random.Random(seed), TWO, max_pieces=4))


def _same_set_many_ways(u):
    """u built several ways, over different denominators d."""
    nums, d = u._ints
    cover = IntervalSet(((Fraction(-1, 3), Fraction(7, 3)),))  # holds (0, 2], over d = 3
    return [
        u,
        intersect(u, cover),
        union(u, EMPTY),
        normalize(u.intervals),
        IntervalSet._of([2 * n for n in nums], 2 * d),  # the same draw at a doubled scale
    ]


class TestIntegerFormValue:
    """An IntervalSet's value is its integer form; == and hash read it across denominators."""

    @settings(max_examples=200)
    @example(u=iset((0, HALF)), v=iset((0, HALF)))
    @example(u=iset((0, HALF)), v=iset((0, Fraction(1, 3))))
    @example(u=EMPTY, v=EMPTY)
    @given(u=mixed_sets() | _gen_sets(), v=mixed_sets() | _gen_sets())
    def test_equality_and_hash_match_the_endpoint_pairs(self, u, v):
        us, vs = _same_set_many_ways(u), _same_set_many_ways(v)
        same = u.intervals == v.intervals
        for x in us:
            for y in vs:
                assert (x == y) is same and (x != y) is not same
                if same:
                    assert hash(x) == hash(y)

    def test_empty_is_equal_however_built(self):
        ways = [
            EMPTY,
            IntervalSet(()),
            IntervalSet([]),
            normalize([]),
            intersect(iset((0, HALF)), iset((1, TWO))),
            intersect(iset((0, Fraction(1, 3))), iset((HALF, Fraction(5, 7)))),
            IntervalSet._of([], 12),
        ]
        assert all(w == EMPTY and w.is_empty and w.intervals == () for w in ways)
        assert len({hash(w) for w in ways}) == 1
        assert all(repr(w) == "IntervalSet()" for w in ways)

    def test_list_input_works_like_tuple_input(self):
        listed = IntervalSet([(Fraction(0), Fraction(1))])
        tupled = IntervalSet(((Fraction(0), Fraction(1)),))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed.intervals == ((Fraction(0), Fraction(1)),)
        assert union(listed, IntervalSet(((Fraction(2), Fraction(3)),))) == iset((0, 1), (2, 3))
        assert union(IntervalSet(((Fraction(2), Fraction(3)),)), listed) == iset((0, 1), (2, 3))
        assert len({listed, tupled}) == 1

    def test_a_set_is_immutable(self):
        u = iset((0, HALF))
        with pytest.raises(AttributeError):
            u.intervals = ()
        with pytest.raises(AttributeError):
            u._ints = ([], 1)
        assert u == iset((0, HALF))

    def test_int_only_kernels_build_no_fraction(self):
        # Fraction.__new__ counts every Fraction built anywhere, arithmetic included,
        # so this also covers the names rglat.intervals and rglat.gen import.
        rng = random.Random(2026)
        upper = Fraction(7, 3)
        built = []
        real_new = Fraction.__dict__["__new__"]

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return real_new.__func__(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        try:
            draws = [random_interval_set(rng, upper, max_pieces=4) for _ in range(200)]
            drawn = len(built)
            results = [intersect(u, v) for u, v in zip(draws, draws[1:])]
            results += [union(u, v) for u, v in zip(draws, draws[2:])]
            results += [union(intersect(u, v), w) for u, v, w in zip(draws, draws[3:], draws[5:])]
            kernels = len(built) - drawn
            before = len(built)
            total = measure(results[-1])
            measured = len(built) - before
        finally:
            Fraction.__new__ = real_new
        assert (drawn, kernels, measured) == (0, 0, 1)
        # The draws are real: their pairs, built now, match the integer kernels.
        assert any(not u.is_empty for u in results)
        assert total == grid_measure(results[-1].intervals, Fraction(0), upper)
        for u, v in zip(draws[:20], draws[1:21]):
            assert intersect(u, v).intervals == fraction_intersect(u.intervals, v.intervals)


class TestMeasure:
    def test_uniform_pieces(self):
        n, m = 8, 3
        u = normalize([(Fraction(2 * i, n), Fraction(2 * i + 1, n)) for i in range(m)])
        assert measure(u) == Fraction(m, n)

    def test_empty(self):
        assert measure(EMPTY) == 0

    def test_two_piece_sum(self):
        assert measure(iset((0, Fraction(1, 3)), (HALF, 1))) == Fraction(5, 6)

    @given(u=mixed_sets())
    def test_matches_grid_counting_oracle(self, u):
        assert measure(u) == grid_measure(u.intervals)

    @given(u=interval_sets(), v=interval_sets())
    def test_measure_grading_is_modular(self, u, v):
        assert measure(union(u, v)) + measure(intersect(u, v)) == measure(u) + measure(v)


class TestStepDensity:
    def test_final_example_mass(self):
        assert FINAL_DENSITY.mass(iset((1, Fraction(3, 2)))) == 1
        assert FINAL_DENSITY.mass(iset((1, 2))) == 2

    def test_unit_density_is_lebesgue(self):
        unit = StepDensity((0, TWO), (1,))
        u = iset((0, Fraction(1, 3)), (1, Fraction(7, 4)))
        assert unit.mass(u) == measure(u)

    def test_total_of_the_ambient(self):
        assert FINAL_DENSITY.mass(iset((0, 2))) == 3
        assert FINAL_DENSITY.total == 3

    @given(u=mixed_sets(), f=step_densities() | odd_step_densities())
    def test_matches_grid_counting_oracle(self, u, f):
        assert f.mass(u) == grid_density_mass(u.intervals, f.breakpoints, f.values)

    @given(data=st.data())
    def test_matches_grid_counting_oracle_on_its_own_inverse_points(self, data):
        f = data.draw(odd_step_densities())
        u = data.draw(prefix_inverse_sets(f))
        assert f.mass(u) == grid_density_mass(u.intervals, f.breakpoints, f.values)

    @example(u=iset((HALF, 1), (Fraction(3, 2), Fraction(5, 2)), (3, 4)), f=FINAL_DENSITY)
    @example(u=iset((-1, -HALF), (1, 3)), f=FINAL_DENSITY)
    @given(u=mixed_interval_sets(lower=-2, upper=4), f=odd_step_densities())
    def test_error_names_the_first_interval_outside_the_domain(self, u, f):
        outside = [(a, b) for a, b in u.intervals if not (0 <= a and b <= f.upper)]
        if not outside:
            assert f.mass(u) == grid_density_mass(u.intervals, f.breakpoints, f.values)
            return
        a, b = outside[0]
        with pytest.raises(AmbientMismatch) as exc:
            f.mass(u)
        assert str(exc.value) == f"({a}, {b}] outside the density domain"

    @given(u=interval_sets(), v=interval_sets(), f=step_densities())
    def test_density_grading_is_modular(self, u, v, f):
        assert f.mass(union(u, v)) + f.mass(intersect(u, v)) == f.mass(u) + f.mass(v)

    def test_prefix_inverse_round_trip(self):
        for k in range(13):
            mass = Fraction(k, 4)
            assert FINAL_DENSITY.mass(chief_element(AMBIENT2, FINAL_DENSITY.prefix_inverse(mass))) == mass

    def test_validation(self):
        with pytest.raises(PreconditionViolation):
            StepDensity((Fraction(0), Fraction(1)), (Fraction(0),))
        with pytest.raises(PreconditionViolation):
            StepDensity((Fraction(1), Fraction(2)), (Fraction(1),))

    def test_float_breakpoints_and_values_are_refused(self):
        with pytest.raises(PreconditionViolation, match="float"):
            StepDensity((0, 0.5, 2), (1, 2))
        with pytest.raises(PreconditionViolation, match="float"):
            StepDensity((0, 2), (0.1,))
        assert StepDensity((0, "1/2", 2), (1, Fraction(2))).breakpoints[1] == HALF


def test_float_ambient_bound_is_refused():
    with pytest.raises(PreconditionViolation, match="float"):
        Ambient(0.1)
    assert Ambient(2) == Ambient("2") == AMBIENT2


class TestChiefElements:
    def test_bounded_extremes(self):
        assert chief_element(AMBIENT2, 0) == EMPTY
        assert chief_element(AMBIENT2, TWO) == iset((0, 2))

    def test_unbounded_symmetric_interval(self):
        m = chief_element(Ambient(None), 2)
        assert m == iset((-1, 1))
        assert measure(m) == 2

    def test_out_of_range(self):
        with pytest.raises(PreconditionViolation):
            chief_element(AMBIENT2, 3)
        with pytest.raises(PreconditionViolation):
            chief_element(Ambient(None), -1)


class TestProfiles:
    def test_prefix_geometry_slopes(self):
        ambient = Ambient(Fraction(1))
        prof = profile_bundle(ambient, iset((HALF, 1)), None).grade_meet
        assert prof.breakpoints == (Fraction(0), HALF, Fraction(1))
        assert prof.slopes == (Fraction(0), Fraction(1))

    def test_full_ambient_is_the_identity_profile(self):
        prof = profile_bundle(AMBIENT2, iset((0, 2)), None).grade_meet
        assert prof.values == prof.breakpoints

    def test_final_example_density_profile(self):
        prof = profile_bundle(AMBIENT2, iset((1, 2)), FINAL_DENSITY).grade_meet
        assert prof.breakpoints == (Fraction(0), Fraction(1), TWO)
        assert prof.values == (Fraction(0), Fraction(0), TWO)
        assert prof.slopes == (Fraction(0), TWO)
        assert prof.value_at(TWO) == 2

    @settings(max_examples=60)
    @given(z=interval_sets(), f=step_densities())
    def test_profile_matches_direct_evaluation(self, z, f):
        bundle = profile_bundle(AMBIENT2, z, f)
        meet_prof, join_prof = bundle.grade_meet, bundle.grade_join
        assert meet_prof.is_weakly_increasing and join_prof.is_weakly_increasing
        assert meet_prof.total_rise == f.mass(z)
        assert join_prof.total_rise == f.total - f.mass(z)
        for k in range(0, 17):
            level = TWO * k / 16
            probe = chief_element(AMBIENT2, level)
            assert meet_prof.value_at(level) == f.mass(intersect(z, probe))
            assert join_prof.value_at(level) == f.mass(union(z, probe))

    def test_min_level_at_value_finds_first_attainment(self):
        prof = profile_bundle(AMBIENT2, iset((1, 2)), FINAL_DENSITY).grade_meet
        assert prof.min_level_at_value(Fraction(0)) == 0
        assert prof.min_level_at_value(Fraction(1)) == Fraction(3, 2)
        with pytest.raises(PreconditionViolation):
            prof.min_level_at_value(Fraction(5))

    @given(data=st.data())
    def test_min_level_at_value_matches_the_linear_scan(self, data):
        prof = data.draw(increasing_profiles())
        vs = prof.values
        target = data.draw(st.sampled_from(vs) | st.fractions(vs[0], vs[-1], max_denominator=6))
        assert prof.min_level_at_value(target) == _scan_min_level(prof, target)

    @given(data=st.data())
    def test_value_at_matches_the_interpolation(self, data):
        prof = data.draw(increasing_profiles())
        xs = prof.breakpoints
        lo, hi = xs[0], xs[-1]
        # Breakpoints (both domain ends among them) and points between them.
        point = st.sampled_from(xs) | st.fractions(lo, hi, max_denominator=12)
        for x in data.draw(st.lists(point, max_size=12)):
            assert prof.value_at(x) == _interpolate(prof, x)
        assert (prof.value_at(lo), prof.value_at(hi)) == (prof.values[0], prof.values[-1])
        outside = data.draw(st.sampled_from([lo - Fraction(1, 8), hi + Fraction(1, 8)]))
        with pytest.raises(PreconditionViolation):
            prof.value_at(outside)

    @settings(max_examples=150)
    @example(z=iset((0, HALF), (Fraction(3, 2), 2)), f=FINAL_DENSITY)  # touches 0 and upper
    @example(z=iset((HALF, 1), (Fraction(3, 2), 2)), f=FINAL_DENSITY)  # ends on a density breakpoint
    @example(z=iset((1, Fraction(3, 2))), f=FINAL_DENSITY)  # starts on one
    @example(z=iset((0, 2)), f=None)
    @example(z=EMPTY, f=FINAL_DENSITY)
    @given(
        z=interval_sets() | mixed_interval_sets(),
        f=st.none() | step_densities() | odd_step_densities(),
    )
    def test_bundle_matches_the_sorted_set_oracle(self, z, f):
        bundle = profile_bundle(AMBIENT2, z, f)
        expected = oracle_profiles(TWO, z.intervals, None if f is None else (f.breakpoints, f.values))
        for name, (xs, values) in expected.items():
            prof = getattr(bundle, name)
            assert (prof.breakpoints, prof.values) == (xs, values), name

    def test_bundle_rejects_sets_and_densities_beyond_the_ambient(self):
        with pytest.raises(AmbientMismatch):
            profile_bundle(AMBIENT2, iset((1, 3)), None)
        with pytest.raises(AmbientMismatch):
            profile_bundle(AMBIENT2, iset((-1, 1)), FINAL_DENSITY)
        with pytest.raises(AmbientMismatch):
            profile_bundle(Ambient(Fraction(3)), EMPTY, FINAL_DENSITY)
        with pytest.raises(AmbientMismatch):
            profile_bundle(Ambient(None), EMPTY, FINAL_DENSITY)

    def test_value_outside_domain_rejected(self):
        prof = profile_bundle(AMBIENT2, iset((1, 2)), None).grade_meet
        with pytest.raises(PreconditionViolation):
            prof.value_at(Fraction(5, 2))


class TestBoundedChainDemo:
    def test_far_chain_never_touches_the_target(self):
        chain = hypothesis_line_sets().conditions[0]
        assert chain.name == "chain-meet-sup"
        assert all(v == 0 for _, v in chain.rows)
        assert chain.target_value == 2
        assert not chain.holds

    def test_chief_chain_absorbs_the_target(self):
        chief = hypothesis_line_sets().conditions[2]
        assert chief.name == "chief-meet-sup"
        assert chief.holds and chief.scan_value == chief.target_value
        for level, value in chief.rows:
            if level >= 2:
                assert value == 2

    def test_empty_target_is_trivial(self):
        amb = Ambient(None)
        assert measure(intersect(chief_element(amb, 5), EMPTY)) == 0


class TestLatticeFactory:
    def test_bounded_lattice_top(self):
        assert interval_lattice(AMBIENT2).top == iset((0, 2))
        assert interval_lattice(Ambient(None)).top is None

    def test_grade_value_selector(self):
        u = iset((1, Fraction(3, 2)))
        assert grade_value(u, None) == HALF
        assert grade_value(u, FINAL_DENSITY) == 1


class TestJson:
    @given(u=interval_sets())
    def test_interval_set_round_trip(self, u):
        assert interval_set_from_json(interval_set_to_json(u)) == u

    @given(f=step_densities())
    def test_density_round_trip(self, f):
        assert density_from_json(density_to_json(f)) == f

    def test_explicit_denominators(self):
        payload = interval_set_to_json(iset((1, 2)))
        assert payload == {"intervals": [["1/1", "2/1"]]}

    def test_malformed_payloads(self):
        with pytest.raises(InputFormatError):
            interval_set_from_json({"intervals": [["1/1"]]})
        with pytest.raises(InputFormatError):
            density_from_json({"breakpoints": []})
        with pytest.raises(InputFormatError):
            interval_set_from_json({})
