"""Zero-table ingestion, coefficient formula invariants, and cache round trips."""

import mpmath
import pytest
from mpmath import mp, mpc, mpf

from divisorlab import zeros, zeta as zeta_engine
from divisorlab.errors import (
    DomainError,
    StaleCacheError,
    ZeroDataError,
    ZeroFileParseError,
)


def write_cache(path, table, bits: int, digits: int, coefficients) -> None:
    """A cache in the format persist_cache writes, with the given headers and
    each row's fields at `digits` significant digits."""
    lines = [f"# source_digest {table.source_digest}", f"# precision_bits {bits}",
             f"# digits {digits}"]
    for c in coefficients:
        fields = (c.ordinate, c.coefficient.real, c.coefficient.imag,
                  c.derivative_at_zero.real, c.derivative_at_zero.imag)
        lines.append(" ".join(mp.nstr(v, digits) for v in fields))
    path.write_text("\n".join(lines) + "\n")


def mpmath_coefficient(gamma) -> zeros.ZeroTermCoefficient:
    """The zero's coefficient from mpmath at the suite's 220 bits, the
    independent oracle for coefficient_for."""
    rho = mpc(mpf("0.5"), gamma)
    der = mpmath.zeta(rho, derivative=1)
    return zeros.ZeroTermCoefficient(ordinate=+gamma, rho_half=rho / 2,
                                     coefficient=mpmath.zeta(rho / 2) ** 3 / (rho * der),
                                     derivative_at_zero=der)


class TestImport:
    def test_shipped_table(self, zero_table):
        assert len(zero_table) == 100
        assert abs(zero_table.ordinates[0] - mpf("14.134725141734693790")) < mpf("1e-15")
        assert abs(zero_table.ordinates[-1] - mpf("236.5242296658162058")) < mpf("1e-12")
        assert len(zero_table.source_digest) == 64

    def test_limit_count(self, zeros_path):
        table = zeros.import_zeros(zeros_path, limit_count=7)
        assert len(table) == 7
        # truncation must not change the digest: it keys the file, not the slice
        full = zeros.import_zeros(zeros_path)
        assert table.source_digest == full.source_digest
        for count in (0, -1):
            with pytest.raises(DomainError):
                zeros.import_zeros(zeros_path, limit_count=count)

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("# leading comment\n\n14.1347251417  # inline\n\n21.0220396388\n")
        table = zeros.import_zeros(p)
        assert len(table) == 2

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.1347251417\nnot-a-number\n")
        with pytest.raises(ZeroFileParseError) as exc:
            zeros.import_zeros(p)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "+inf"])
    def test_non_finite_ordinate_rejected(self, tmp_path, bad):
        """A non-finite ordinate after two good ones is a parse error at its
        line; nan would otherwise pass every ordering check."""
        p = tmp_path / "z.txt"
        p.write_text(f"14.13472514173469379\n21.022039638771554993\n{bad}\n")
        with pytest.raises(ZeroFileParseError, match="not a finite decimal") as exc:
            zeros.import_zeros(p)
        assert exc.value.line_number == 3

    def test_monotonicity_enforced(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("21.0220396388\n14.1347251417\n")
        with pytest.raises(ZeroFileParseError) as exc:
            zeros.import_zeros(p)
        assert exc.value.line_number == 2

    def test_below_ten_rejected(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("0.5\n")
        with pytest.raises(ZeroFileParseError):
            zeros.import_zeros(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("# only a comment\n")
        with pytest.raises(ZeroDataError):
            zeros.import_zeros(p)


class TestCoefficient:
    def test_formula_invariant(self, zero_coefficients):
        """A * rho_half * 2 zeta'(rho) must reproduce zeta^3(rho_half)."""
        for c in zero_coefficients[:10]:
            with mp.workprec(160):
                lhs = c.coefficient * c.rho_half * 2 * c.derivative_at_zero
                rhs = zeta_engine.zeta(c.rho_half, 144) ** 3
                assert abs(lhs - rhs) / abs(rhs) < mpf("1e-25")

    def test_all_finite_nonzero(self, zero_coefficients):
        assert len(zero_coefficients) == 100
        for c in zero_coefficients:
            mag = abs(c.coefficient)
            assert mpf(0) < mag < mpf(10)
            assert abs(c.derivative_at_zero) > mpf("1e-3")

    def test_first_coefficient_frozen_value(self, zero_coefficients):
        a = zero_coefficients[0].coefficient
        assert abs(a.real - mpf("0.114534896210771802")) < mpf("1e-15")
        assert abs(a.imag + mpf("0.055734766662176689")) < mpf("1e-15")

    def test_ordinate_kept_at_working_precision(self, zero_table):
        """Zero 93 against mpmath at 40 digits, called at mpmath's default
        53-bit ambient precision, the one a fresh process runs at."""
        gamma = zero_table.ordinates[92]
        with mp.workprec(53):
            ours = zeros.coefficient_for(gamma).coefficient
        with mp.workdps(40):
            rho = mpc(mpf("0.5"), gamma)
            theirs = (mpmath.zeta(rho / 2) ** 3
                      / (rho / 2 * 2 * mpmath.zeta(rho, derivative=1)))
        assert abs(ours - theirs) / abs(theirs) < mpf("1e-25")

    def test_non_positive_ordinate_rejected(self, zero_table):
        """Only positive ordinates are stored; the zero at -gamma enters the
        zero sum as the conjugate term."""
        for g in (-zero_table.ordinates[0], 0):
            with pytest.raises(DomainError):
                zeros.coefficient_for(g)

    def test_unpolished_ordinate_rejected(self):
        with pytest.raises(DomainError):
            zeros.coefficient_for(14.2)  # off-zero by 0.07


class TestCache:
    def test_round_trip(self, tmp_path, zeros_path):
        table = zeros.import_zeros(zeros_path, limit_count=5)
        coeffs = zeros.coefficients_for_table(table)
        cache = tmp_path / "coeffs.txt"
        zeros.persist_cache(table, coeffs, cache)
        loaded = zeros.load_cache(cache, table)
        assert len(loaded) == 5
        for a, b in zip(coeffs, loaded):
            assert abs(a.coefficient - b.coefficient) < mpf("1e-25")
            assert abs(a.ordinate - b.ordinate) < mpf("1e-25")

    def test_reload_costs_no_zeta_calls(self, tmp_path, zeros_path):
        table = zeros.import_zeros(zeros_path, limit_count=5)
        coeffs = zeros.coefficients_for_table(table)
        cache = tmp_path / "coeffs.txt"
        zeros.persist_cache(table, coeffs, cache)
        zeta_engine.reset_call_count()
        zeros.load_cache(cache, table)
        assert zeta_engine.call_count() == 0

    def test_stale_cache_detected(self, tmp_path, zeros_path):
        table = zeros.import_zeros(zeros_path, limit_count=5)
        coeffs = zeros.coefficients_for_table(table)
        cache = tmp_path / "coeffs.txt"
        zeros.persist_cache(table, coeffs, cache)
        edited = tmp_path / "edited.txt"
        edited.write_text("14.1347251417\n21.0220396388\n")
        other = zeros.import_zeros(edited)
        with pytest.raises(StaleCacheError):
            zeros.load_cache(cache, other)

    def test_serves_exactly_the_table(self, tmp_path, zeros_path):
        table = zeros.import_zeros(zeros_path, limit_count=5)
        cache = tmp_path / "coeffs.txt"
        zeros.persist_cache(table, zeros.coefficients_for_table(table), cache)
        short = zeros.import_zeros(zeros_path, limit_count=3)
        loaded = zeros.load_cache(cache, short)
        assert [c.ordinate for c in loaded] == list(short.ordinates)
        longer = zeros.import_zeros(zeros_path, limit_count=6)
        with pytest.raises(StaleCacheError):
            zeros.load_cache(cache, longer)

    def test_ordinate_mismatch_detected(self, tmp_path, zeros_path):
        """Same file digest, but one ordinate differs in its 25th digit, as a
        polished table's would."""
        table = zeros.import_zeros(zeros_path, limit_count=3)
        cache = tmp_path / "coeffs.txt"
        zeros.persist_cache(table, zeros.coefficients_for_table(table), cache)
        g = table.ordinates
        moved = zeros.ZeroTable((g[0], g[1] + mpf("1e-23"), g[2]), table.source_digest)
        with pytest.raises(StaleCacheError):
            zeros.load_cache(cache, moved)

    def test_cache_keyed_on_precision(self, tmp_path, zeros_path):
        """A cache serves when it records the 128 bits the coefficients are
        computed at, or more: a 64-bit header with 42-digit rows is refused,
        and a 192-bit, 61-digit cache, as earlier versions could write,
        serves its values read at all their digits, to 2^-180 relative."""
        table = zeros.import_zeros(zeros_path, limit_count=2)
        cache = tmp_path / "coeffs.txt"
        zeros.persist_cache(table, zeros.coefficients_for_table(table), cache)
        assert "# precision_bits 128" in cache.read_text().splitlines()
        assert len(zeros.load_cache(cache, table)) == 2
        oracle = [mpmath_coefficient(g) for g in table.ordinates]
        write_cache(cache, table, 64, 42, oracle)
        with pytest.raises(StaleCacheError, match="built at 64 bits, 128 were requested"):
            zeros.load_cache(cache, table)
        write_cache(cache, table, 192, 61, oracle)
        for a, b in zip(oracle, zeros.load_cache(cache, table)):
            for want, got in ((a.coefficient, b.coefficient),
                              (a.derivative_at_zero, b.derivative_at_zero)):
                assert abs(got - want) <= mpf(2) ** -180 * abs(want)

    def test_cache_digits_follow_the_precision(self, tmp_path, zeros_path):
        """A cache records the ceil(128 log10 2) + 3 = 42 digits it writes at
        128 bits, and carries its coefficients to 2^-130 relative."""
        table = zeros.import_zeros(zeros_path, limit_count=2)
        fresh = zeros.coefficients_for_table(table)
        cache = tmp_path / "coeffs.txt"
        zeros.persist_cache(table, fresh, cache)
        assert "# digits 42" in cache.read_text().splitlines()
        loaded = zeros.load_cache(cache, table)
        for a, b in zip(fresh, loaded):
            for want, got in ((a.coefficient, b.coefficient),
                              (a.derivative_at_zero, b.derivative_at_zero)):
                assert abs(got - want) <= mpf(2) ** -130 * abs(want)

    def test_cache_with_too_few_digits_rejected(self, tmp_path, zeros_path):
        """Rows at 30 digits (about 100 bits) cannot serve a 128-bit request,
        whatever precision the header records."""
        table = zeros.import_zeros(zeros_path, limit_count=2)
        cache = tmp_path / "coeffs.txt"
        write_cache(cache, table, 128, 30, zeros.coefficients_for_table(table))
        with pytest.raises(StaleCacheError, match="30 digits, 42 are needed"):
            zeros.load_cache(cache, table)

    def test_cache_without_precision_rejected(self, tmp_path, zeros_path):
        table = zeros.import_zeros(zeros_path, limit_count=2)
        cache = tmp_path / "coeffs.txt"
        zeros.persist_cache(table, zeros.coefficients_for_table(table), cache)
        unkeyed = tmp_path / "unkeyed.txt"
        unkeyed.write_text("".join(line for line in cache.read_text().splitlines(True)
                                   if not line.startswith("# precision_bits")))
        with pytest.raises(StaleCacheError, match="no precision_bits"):
            zeros.load_cache(unkeyed, table)

    def test_headerless_cache_rejected(self, tmp_path, zeros_path):
        table = zeros.import_zeros(zeros_path, limit_count=2)
        bad = tmp_path / "bad.txt"
        bad.write_text("14.13 0.1 0.1 0.7 0.1\n")
        with pytest.raises(ZeroDataError):
            zeros.load_cache(bad, table)

    def test_malformed_cache_row(self, tmp_path, zeros_path):
        table = zeros.import_zeros(zeros_path, limit_count=2)
        bad = tmp_path / "bad.txt"
        bad.write_text(f"# source_digest {table.source_digest}\n14.13 0.1 0.1\n")
        with pytest.raises(ZeroFileParseError) as exc:
            zeros.load_cache(bad, table)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
    def test_non_finite_cache_field_rejected(self, tmp_path, zeros_path, bad):
        """A row field of a served row that is not a finite decimal is a
        parse error at its line, not a ValueError or a nan coefficient."""
        table = zeros.import_zeros(zeros_path, limit_count=3)
        cache = tmp_path / "coeffs.txt"
        zeros.persist_cache(table, zeros.coefficients_for_table(table), cache)
        lines = cache.read_text().splitlines()
        fields = lines[5].split()
        fields[1] = bad  # re_coeff of the second zero
        lines[5] = " ".join(fields)
        cache.write_text("\n".join(lines) + "\n")
        with pytest.raises(ZeroFileParseError, match=f"not a finite decimal: '{bad}'") as exc:
            zeros.load_cache(cache, table)
        assert exc.value.line_number == 6
