"""Problem-size bounds: exactness, the paper's worked numbers, and
agreement with the algorithms' actual eligibility checks."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bounds.analysis import (
    crossover_memory,
    eligible_problem_sizes,
    improvement_factor,
    log2_improvement_summary,
    m_beats_subblock,
    max_n_for_buffer,
    terabyte_config,
)
from repro.bounds.restrictions import (
    _icbrt,
    max_n_hybrid,
    max_n_m_columnsort,
    max_n_subblock,
    max_n_threaded,
    max_pow2_n,
    restriction_table,
)
from repro.errors import ConfigError


class TestExactness:
    @given(st.integers(min_value=1, max_value=10**9))
    def test_icbrt_is_floor_cube_root(self, n):
        x = _icbrt(n)
        assert x**3 <= n < (x + 1) ** 3

    @given(st.integers(min_value=200, max_value=1000))
    def test_icbrt_huge_inputs(self, e):
        x = _icbrt(1 << e)
        assert x**3 <= (1 << e) < (x + 1) ** 3

    @given(st.integers(min_value=4, max_value=2**20))
    def test_threaded_bound_tight(self, mem):
        """The bound is exactly the largest N with some legal (r, s):
        N² ≤ (M/P)³/2 ⟺ restriction (1)."""
        n = max_n_threaded(mem)
        assert 2 * n * n <= mem**3
        assert 2 * (n + 1) * (n + 1) > mem**3

    @given(st.integers(min_value=4, max_value=2**20))
    def test_subblock_bound_tight(self, mem):
        n = max_n_subblock(mem)
        assert 16 * n**3 <= mem**5
        assert 16 * (n + 1) ** 3 > mem**5

    def test_max_pow2(self):
        assert max_pow2_n(8192) == 8192
        assert max_pow2_n(8191) == 4096
        assert max_pow2_n(1) == 1


class TestPaperNumbers:
    def test_terabyte_example(self):
        """§1: P=16, M/P = 2^19 records, 64-byte records → 1 TB."""
        cfg = terabyte_config()
        assert cfg.max_records == 2**34
        assert cfg.max_bytes == 2**40

    def test_more_than_double_at_2_12(self):
        """§1: for M/P ≥ 2^12 subblock more than doubles the max size."""
        assert improvement_factor(2**12) > 2
        assert improvement_factor(2**11) < 2.1  # near the threshold

    def test_improvement_grows_as_sixth_root(self):
        f12, f18 = improvement_factor(2**12), improvement_factor(2**18)
        assert f18 / f12 == pytest.approx(2.0, rel=0.01)  # (2^6)^(1/6)
        sweep = [improvement_factor(1 << a) for a in range(10, 31, 4)]
        assert sweep == sorted(sweep)

    def test_crossover_p8_is_2_35(self):
        """§5: with P = 8, M-columnsort wins while total memory holds
        fewer than 2^35 records."""
        assert crossover_memory(8) == 2**35

    @given(st.sampled_from([2, 4, 8, 16]), st.integers(min_value=14, max_value=60))
    def test_crossover_closed_form_matches_bounds(self, p, log_m):
        """M^(3/2)/√2 > (M/P)^(5/3)/4^(2/3) ⟺ M < 32·P^10, checked
        against the integer bounds themselves (away from the exact
        threshold, where integer flooring may disagree by one)."""
        m = 1 << log_m
        threshold = crossover_memory(p)
        if m * 2 < threshold:
            assert m_beats_subblock(m, p)
        elif m > threshold * 2:
            assert not m_beats_subblock(m, p)

    def test_restriction_table_ordering(self):
        for log_mem in (14, 16, 18, 19, 20, 22, 24):
            row = restriction_table(1 << log_mem, 16)
            assert row["threaded"] < row["subblock"] < row["m"] < row["hybrid"]

    def test_m_scales_with_total_memory(self):
        """§4: adding processors at fixed M/P grows M-columnsort's bound
        superlinearly — unlike threaded/subblock, which do not move."""
        r8 = restriction_table(2**19, 8)
        r16 = restriction_table(2**19, 16)
        assert r16["threaded"] == r8["threaded"]
        assert r16["subblock"] == r8["subblock"]
        assert r16["m"] > 2 * r8["m"]  # superlinear in P


class TestEligibility:
    def test_subblock_sizes_are_factor_4_apart(self):
        sizes = eligible_problem_sizes("subblock", 2**19, 16, 2**24, 2**30)
        ratios = [b // a for a, b in zip(sizes, sizes[1:])]
        assert all(r == 4 for r in ratios)

    def test_m_covers_every_power_of_2(self):
        sizes = eligible_problem_sizes("m", 2**19, 16, 2**26, 2**29)
        assert sizes == [2**26, 2**27, 2**28, 2**29]

    def test_threaded_caps_out(self):
        sizes = eligible_problem_sizes("threaded", 2**18, 16, 2**20, 2**40)
        assert sizes and max(sizes) == 2**18 * 2**8  # r · max_s_basic(r)

    def test_eligibility_agrees_with_derive_shape(self):
        """The bounds module and the algorithms must agree on what is
        runnable (cross-validation of two independent implementations)."""
        from repro.cluster.config import ClusterConfig
        from repro.oocs.base import OocJob
        from repro.oocs.api import ALGORITHMS
        from repro.records.format import RecordFormat

        fmt = RecordFormat("u8", 64)
        p, buf = 4, 256
        cluster = ClusterConfig(p=p, mem_per_proc=buf)
        shapes = {
            name: ALGORITHMS[name].derive_shape
            for name in ("threaded", "subblock", "m", "hybrid")
        }
        for algorithm, derive in shapes.items():
            expected = set(
                eligible_problem_sizes(algorithm, buf, p, 2**10, 2**22)
            )
            for exp in range(10, 23):
                n = 1 << exp
                job = OocJob(cluster=cluster, fmt=fmt, n=n, buffer_records=buf)
                try:
                    derive(job)
                    runnable = True
                except Exception:
                    runnable = False
                assert runnable == (n in expected), (algorithm, n)

    def test_max_n_for_buffer(self):
        assert max_n_for_buffer("threaded", 512, 4) == 512 * 16
        maxima = {
            alg: max_n_for_buffer(alg, 2**19, 16)
            for alg in ("threaded", "subblock", "m", "hybrid")
        }
        # §6: the hybrid configures the largest problem at fixed memory.
        assert maxima["hybrid"] >= maxima["m"] >= maxima["threaded"]
        assert maxima["hybrid"] > maxima["subblock"]
        with pytest.raises(ConfigError):
            max_n_for_buffer("threaded", 2, 4)

    def test_summary_rows(self):
        rows = log2_improvement_summary(range(12, 16, 2), 8)
        assert len(rows) == 2
        assert rows[0]["improvement"] > 2
        assert rows[0]["log2_m"] > rows[0]["log2_threaded"]


class TestValidationErrors:
    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigError):
            max_n_threaded(0)
        with pytest.raises(ConfigError):
            crossover_memory(0)
        with pytest.raises(ConfigError):
            improvement_factor(-1)

    def test_m_beats_subblock_requires_divisibility(self):
        with pytest.raises(ConfigError):
            m_beats_subblock(100, 8)

    def test_eligible_requires_powers(self):
        with pytest.raises(ConfigError):
            eligible_problem_sizes("m", 100, 4, 1, 10)
        with pytest.raises(ConfigError):
            eligible_problem_sizes("nope", 128, 4, 1, 10)
