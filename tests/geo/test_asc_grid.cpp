/// \file test_asc_grid.cpp
/// The hardened .asc parser: CRLF, header-key case, the xllcenter /
/// yllcenter variants (each axis independently), duplicate-key
/// rejection, and the header-only parse used by the GIS tile index.
/// The data-section scanner is pinned against an `is >> double` oracle
/// kept here: a table of edge tokens and a seeded byte-mutation
/// differential test, where both readers must give the same raster bits
/// or both throw IoError.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "pvfp/geo/asc_grid.hpp"
#include "pvfp/util/error.hpp"
#include "pvfp/util/rng.hpp"

namespace pvfp::geo {
namespace {

constexpr const char* kPlain =
    "ncols 3\n"
    "nrows 2\n"
    "xllcorner 10.0\n"
    "yllcorner 20.0\n"
    "cellsize 0.5\n"
    "NODATA_value -9999\n"
    "1 2 3\n"
    "4 5 6\n";

TEST(AscGrid, ParsesPlainLf) {
    std::istringstream in(kPlain);
    const Raster r = read_asc_grid(in);
    EXPECT_EQ(r.width(), 3);
    EXPECT_EQ(r.height(), 2);
    EXPECT_DOUBLE_EQ(r.cell_size(), 0.5);
    EXPECT_DOUBLE_EQ(r.origin_x(), 10.0);
    EXPECT_DOUBLE_EQ(r.origin_y(), 21.0);  // yll + nrows * cellsize
    EXPECT_DOUBLE_EQ(r(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(r(2, 1), 6.0);
}

TEST(AscGrid, AcceptsCrlfLineEndings) {
    std::string crlf(kPlain);
    std::string with_cr;
    for (const char c : crlf) {
        if (c == '\n') with_cr += "\r\n";
        else with_cr += c;
    }
    std::istringstream in(with_cr);
    const Raster r = read_asc_grid(in);
    EXPECT_EQ(r.width(), 3);
    EXPECT_EQ(r.height(), 2);
    EXPECT_DOUBLE_EQ(r(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(r(2, 1), 6.0);

    std::istringstream lf(kPlain);
    EXPECT_EQ(read_asc_grid(lf), r);
}

TEST(AscGrid, HeaderKeysAreCaseInsensitive) {
    std::istringstream in(
        "NCOLS 2\nNrows 1\nXLLCorner 1.0\nYllCorner 2.0\nCELLSIZE 1.0\n"
        "nodata_VALUE -1\n"
        "7 8\n");
    const Raster r = read_asc_grid(in);
    EXPECT_EQ(r.width(), 2);
    EXPECT_EQ(r.height(), 1);
    EXPECT_DOUBLE_EQ(r.nodata(), -1.0);
    EXPECT_DOUBLE_EQ(r(1, 0), 8.0);
}

TEST(AscGrid, XllcenterShiftsOnlyTheXAxis) {
    std::istringstream in(
        "ncols 2\nnrows 2\nxllcenter 10.0\nyllcorner 20.0\ncellsize 1.0\n"
        "1 2\n3 4\n");
    const Raster r = read_asc_grid(in);
    // Center of the lower-left cell at x=10 -> west edge at 9.5.
    EXPECT_DOUBLE_EQ(r.origin_x(), 9.5);
    // y axis used the corner convention: north edge at 20 + 2*1.
    EXPECT_DOUBLE_EQ(r.origin_y(), 22.0);
}

TEST(AscGrid, YllcenterShiftsOnlyTheYAxis) {
    std::istringstream in(
        "ncols 2\nnrows 2\nxllcorner 10.0\nyllcenter 20.0\ncellsize 1.0\n"
        "1 2\n3 4\n");
    const Raster r = read_asc_grid(in);
    EXPECT_DOUBLE_EQ(r.origin_x(), 10.0);
    // Lower-left cell *center* at y=20 -> south edge 19.5, north 21.5.
    EXPECT_DOUBLE_EQ(r.origin_y(), 21.5);
}

TEST(AscGrid, RejectsDuplicateHeaderKeys) {
    std::istringstream dup_ncols(
        "ncols 2\nncols 2\nnrows 1\ncellsize 1.0\n1 2\n");
    EXPECT_THROW(read_asc_grid(dup_ncols), IoError);

    // Mixed-case duplicates are still duplicates.
    std::istringstream dup_case(
        "ncols 2\nNCOLS 2\nnrows 1\ncellsize 1.0\n1 2\n");
    EXPECT_THROW(read_asc_grid(dup_case), IoError);

    // Corner + center of the same axis is a duplicate too.
    std::istringstream dup_xll(
        "ncols 2\nnrows 1\nxllcorner 0\nxllcenter 0\ncellsize 1.0\n1 2\n");
    EXPECT_THROW(read_asc_grid(dup_xll), IoError);

    std::istringstream dup_nodata(
        "ncols 2\nnrows 1\ncellsize 1.0\nNODATA_value -1\nnodata_value -2\n"
        "1 2\n");
    EXPECT_THROW(read_asc_grid(dup_nodata), IoError);
}

TEST(AscGrid, HeaderOnlyParseLeavesStreamAtData) {
    std::istringstream in(kPlain);
    const AscHeader h = read_asc_header(in);
    EXPECT_EQ(h.ncols, 3);
    EXPECT_EQ(h.nrows, 2);
    EXPECT_DOUBLE_EQ(h.xllcorner, 10.0);
    EXPECT_DOUBLE_EQ(h.yllcorner, 20.0);
    EXPECT_DOUBLE_EQ(h.cellsize, 0.5);
    EXPECT_DOUBLE_EQ(h.nodata, -9999.0);
    EXPECT_DOUBLE_EQ(h.x_max(), 11.5);
    EXPECT_DOUBLE_EQ(h.y_max(), 21.0);
    double first = 0.0;
    ASSERT_TRUE(static_cast<bool>(in >> first));
    EXPECT_DOUBLE_EQ(first, 1.0);
}

TEST(AscGrid, HeaderNormalizesCenterVariants) {
    std::istringstream in(
        "ncols 4\nnrows 3\nxllcenter 1.0\nyllcenter 2.0\ncellsize 2.0\n"
        "0 0 0 0\n0 0 0 0\n0 0 0 0\n");
    const AscHeader h = read_asc_header(in);
    EXPECT_DOUBLE_EQ(h.xllcorner, 0.0);
    EXPECT_DOUBLE_EQ(h.yllcorner, 1.0);
}

TEST(AscGrid, MissingMandatoryKeysStillRejected) {
    std::istringstream no_cell("ncols 2\nnrows 1\n1 2\n");
    EXPECT_THROW(read_asc_grid(no_cell), IoError);
    std::istringstream no_dims("cellsize 1.0\n1 2\n");
    EXPECT_THROW(read_asc_grid(no_dims), IoError);
    std::istringstream trunc("ncols 2\nnrows 2\ncellsize 1.0\n1 2 3\n");
    EXPECT_THROW(read_asc_grid(trunc), IoError);
}

/// The reader as it was before the data-section scanner: the header
/// parse, then one `is >> v` per value.
Raster istream_oracle(std::istream& is) {
    const AscHeader header = read_asc_header(is);
    Raster raster(static_cast<int>(header.ncols),
                  static_cast<int>(header.nrows), header.cellsize, 0.0,
                  header.xllcorner,
                  header.yllcorner +
                      static_cast<double>(header.nrows) * header.cellsize);
    raster.set_nodata(header.nodata);
    for (int y = 0; y < raster.height(); ++y)
        for (int x = 0; x < raster.width(); ++x) {
            double v = 0.0;
            check_io(static_cast<bool>(is >> v),
                     "asc_grid: truncated data section");
            raster(x, y) = v;
        }
    return raster;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The outcome of one reader on \p text: the raster, or nothing when it
/// threw IoError (any other exception fails the test).
template <typename Reader>
std::optional<Raster> outcome(const std::string& text, Reader read) {
    std::istringstream in(text);
    try {
        return read(in);
    } catch (const IoError&) {
        return std::nullopt;
    }
}

/// Both readers agree on \p text: both throw IoError, or both give
/// rasters equal bit for bit (signed zeros and NaN payloads included).
void expect_same_outcome(const std::string& text) {
    const auto got = outcome(text, [](std::istream& is) {
        return read_asc_grid(is);
    });
    const auto want = outcome(text, istream_oracle);
    ASSERT_EQ(got.has_value(), want.has_value()) << "input:\n" << text;
    if (!got) return;
    ASSERT_EQ(got->width(), want->width());
    ASSERT_EQ(got->height(), want->height());
    EXPECT_EQ(bits(got->cell_size()), bits(want->cell_size()));
    EXPECT_EQ(bits(got->origin_x()), bits(want->origin_x()));
    EXPECT_EQ(bits(got->origin_y()), bits(want->origin_y()));
    EXPECT_EQ(bits(got->nodata()), bits(want->nodata()));
    for (int y = 0; y < got->height(); ++y)
        for (int x = 0; x < got->width(); ++x)
            ASSERT_EQ(bits((*got)(x, y)), bits((*want)(x, y)))
                << "cell (" << x << ", " << y << ") of input:\n" << text;
}

std::string one_row(const std::string& values, int ncols) {
    return "ncols " + std::to_string(ncols) +
           "\nnrows 1\ncellsize 1.0\n" + values + "\n";
}

TEST(AscGrid, DataTokensMatchIstreamGrammar) {
    // Every token as a one-value grid, both readers: istream's grammar
    // exactly, a leading '+', underflow to +-0, and IoError for nan, inf,
    // dangling exponents, a second sign and overflow.
    const char* tokens[] = {
        "1", "-1", "+1", "+.5", "-.5", ".5", "1.", "1.e5", "1E5", "1e+5",
        "1e-5", "00012", "-0", "+0", "0e99999", "4.9e-324", "1e-310",
        "2.4703282292062328e-324", "2.4703282292062327e-324", "1e-400",
        "-1e-400", "+1e-400", "1e-99999999999999999999",
        "1.7976931348623157e308", "1.7976931348623159e308", "1e400",
        "-1e400", "nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e",
        "1E", "1.5e+", "1e-", "1.e", ".e5", ".", "+", "-", "+-1", "-+1",
        "++1", "1e+-5", "0x1p3", "0x10", "1e5e3", "1ex", "1,5", "\x01",
        "12345678901234567890123456789",
        "0.1000000000000000055511151231257827"};
    for (const char* token : tokens) {
        SCOPED_TRACE(token);
        expect_same_outcome(one_row(token, 1));
    }
    const auto read = [](const std::string& text) {
        std::istringstream in(text);
        return read_asc_grid(in);
    };
    EXPECT_EQ(read(one_row("+1", 1))(0, 0), 1.0);
    EXPECT_EQ(bits(read(one_row("1e-400", 1))(0, 0)), bits(0.0));
    EXPECT_EQ(bits(read(one_row("-1e-400", 1))(0, 0)), bits(-0.0));
    for (const char* bad : {"nan", "inf", "1e", "1.5e+", "1e400", "+-1"})
        EXPECT_THROW(read(one_row(bad, 1)), IoError) << bad;
    // A value ends where the number grammar does.
    const Raster two = read(one_row("1.5-2", 2));
    EXPECT_EQ(two(0, 0), 1.5);
    EXPECT_EQ(two(1, 0), -2.0);
    expect_same_outcome(one_row("1.5-2", 2));
    expect_same_outcome(one_row("1e5e3", 1));
    expect_same_outcome(one_row("1e5e3", 2));
    expect_same_outcome(one_row("1.2.3", 2));
    expect_same_outcome(one_row("0x1p3", 2));
    expect_same_outcome(one_row("1\v2\f3\r4", 4));
}

TEST(AscGrid, ChunkBoundariesMatchIstreamOracle) {
    // A data section many times the scanner's 64 KiB chunk, so values
    // straddle every chunk boundary, then a single 100 000-byte value
    // (an underflow, read as -0) that outgrows the chunk.
    Rng rng(31);
    const int n = 300;
    std::string text = "ncols " + std::to_string(n) + "\nnrows " +
                       std::to_string(n) + "\ncellsize 0.5\n";
    const char* separators[] = {" ", "  ", "\n", "\t", "\r\n"};
    for (int i = 0; i + 1 < n * n; ++i) {
        text += std::to_string(rng.uniform(-500.0, 500.0));
        if (rng.bernoulli(0.1)) text += "e-2";
        text += separators[rng.uniform_int(5)];
    }
    expect_same_outcome(text + "7.25\n");
    const std::string tail = text + "-0." + std::string(100000, '0') + "1\n";
    expect_same_outcome(tail);
    std::istringstream in(tail);
    EXPECT_EQ(bits(read_asc_grid(in)(n - 1, n - 1)), bits(-0.0));
}

TEST(AscGrid, ByteMutationsMatchIstreamOracle) {
    // Seeded byte mutations of a valid grid — replace, insert, delete and
    // duplicate bytes, mostly from the number grammar's own alphabet —
    // read by both readers.  Mutated headers whose grids would exceed
    // 4096 cells are skipped, so a mutated ncols cannot allocate
    // gigabytes.
    const std::string base =
        "ncols 6\nnrows 4\nxllcorner 100.0\nyllcorner 200.5\n"
        "cellsize 0.5\nNODATA_value -9999\n"
        "1 2.5 -3 +4 .5 6e2\n"
        "-9999 0 -0 1e-3 7.25 8\n"
        "12.000001 1E1 -.75 3. 0.1 2\n"
        "5 5 5 5 5 5\n";
    const std::string alphabet = "0123456789+-.eE \n\t\rnaifx";
    Rng rng(20240611);
    int compared = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        std::string text = base;
        const int ops = 1 + static_cast<int>(rng.uniform_int(4));
        for (int o = 0; o < ops && !text.empty(); ++o) {
            const std::size_t at =
                static_cast<std::size_t>(rng.uniform_int(text.size()));
            const char c =
                rng.bernoulli(0.8)
                    ? alphabet[static_cast<std::size_t>(
                          rng.uniform_int(alphabet.size()))]
                    : static_cast<char>(rng.uniform_int(256));
            switch (rng.uniform_int(4)) {
                case 0: text[at] = c; break;
                case 1: text.insert(text.begin() + static_cast<long>(at), c);
                        break;
                case 2: text.erase(at, 1); break;
                default: {
                    const std::size_t len = 1 + static_cast<std::size_t>(
                        rng.uniform_int(6));
                    text.insert(at, text.substr(at, len));
                }
            }
        }
        std::istringstream header_in(text);
        try {
            const AscHeader h = read_asc_header(header_in);
            if (h.ncols * h.nrows > 4096) continue;
        } catch (const IoError&) {
            // Both readers parse the header alike: compare the throw.
        }
        SCOPED_TRACE(iter);
        expect_same_outcome(text);
        if (::testing::Test::HasFatalFailure()) return;
        ++compared;
    }
    EXPECT_GT(compared, 3000);
}

}  // namespace
}  // namespace pvfp::geo
