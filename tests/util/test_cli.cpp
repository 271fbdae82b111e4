/// \file test_cli.cpp
/// Checked CLI value parsing: whole-string acceptance, the malformed /
/// trailing-garbage / overflow rejections that used to reach atoi as
/// silent zeros, and the flag-naming error messages.

#include <gtest/gtest.h>

#include "pvfp/util/cli.hpp"

#include "pvfp/geo/horizon.hpp"
#include "pvfp/geo/raster.hpp"

namespace pvfp::cli {
namespace {

TEST(Cli, ParsesWellFormedIntegers) {
    EXPECT_EQ(parse_int("--shard", "32"), 32);
    EXPECT_EQ(parse_int("--shard", "-5"), -5);
    EXPECT_EQ(parse_long("--stride", "4"), 4L);
    EXPECT_EQ(parse_u64("--seed", "18446744073709551615"),
              18446744073709551615ull);
    EXPECT_EQ(parse_u64("--seed", "0"), 0ull);
}

TEST(Cli, RejectsMalformedIntegers) {
    // The motivating bug: `--shard=abc` must become a UsageError, not
    // atoi's silent 0 (and never an uncaught std::invalid_argument).
    EXPECT_THROW(parse_int("--shard", "abc"), UsageError);
    EXPECT_THROW(parse_int("--shard", ""), UsageError);
    EXPECT_THROW(parse_int("--shard", "12abc"), UsageError);  // garbage tail
    EXPECT_THROW(parse_int("--shard", "1 2"), UsageError);
    EXPECT_THROW(parse_int("--shard", " 12"), UsageError);
    EXPECT_THROW(parse_int("--shard", "999999999999999999999"), UsageError);
    EXPECT_THROW(parse_u64("--seed", "-1"), UsageError);
    EXPECT_THROW(parse_u64("--seed", "0x10"), UsageError);
}

TEST(Cli, EnforcesRanges) {
    EXPECT_EQ(parse_int("--minutes", "1", 1, 1440), 1);
    EXPECT_EQ(parse_int("--minutes", "1440", 1, 1440), 1440);
    EXPECT_THROW(parse_int("--minutes", "0", 1, 1440), UsageError);
    EXPECT_THROW(parse_int("--minutes", "1441", 1, 1440), UsageError);
    EXPECT_THROW(parse_long("--stride", "0", 1), UsageError);
}

TEST(Cli, ParsesAndRejectsDoubles) {
    EXPECT_DOUBLE_EQ(parse_double("--margin", "8.5"), 8.5);
    EXPECT_DOUBLE_EQ(parse_double("--margin", "-2e-3"), -2e-3);
    EXPECT_THROW(parse_double("--margin", "abc"), UsageError);
    EXPECT_THROW(parse_double("--margin", ""), UsageError);
    EXPECT_THROW(parse_double("--margin", "1.5x"), UsageError);
    EXPECT_THROW(parse_double("--margin", "nan"), UsageError);
    EXPECT_THROW(parse_double("--margin", "-1", 0.0), UsageError);
    EXPECT_THROW(parse_double("--margin", "1e999"), UsageError);
}

TEST(Cli, SectorsStayInsideWhatTheHorizonBuildAccepts) {
    // --sectors 2 used to pass the CLI and fail every roof; a huge count
    // used to reach the allocator.  Both are usage errors now, and the
    // ceiling is the library's own.
    EXPECT_EQ(parse_sectors("--sectors", "4"), 4);
    EXPECT_EQ(parse_sectors("--sectors", "72"), 72);
    EXPECT_EQ(parse_sectors("--sectors", "3600"), geo::kMaxAzimuthSectors);
    EXPECT_THROW(parse_sectors("--sectors", "2"), UsageError);
    EXPECT_THROW(parse_sectors("--sectors", "0"), UsageError);
    EXPECT_THROW(parse_sectors("--sectors", "3601"), UsageError);
    EXPECT_THROW(parse_sectors("--sectors", "2000000000"), UsageError);

    // Past the CLI, the library refuses the same counts with a typed
    // error before it allocates.
    const geo::Raster dsm(8, 8, 1.0);
    geo::HorizonOptions opt;
    opt.azimuth_sectors = 2;
    EXPECT_THROW(geo::HorizonMap(dsm, 0, 0, 8, 8, opt), InvalidArgument);
    opt.azimuth_sectors = 2000000000;
    EXPECT_THROW(geo::HorizonMap(dsm, 0, 0, 8, 8, opt), InvalidArgument);
    opt.azimuth_sectors = geo::kMaxAzimuthSectors;
    EXPECT_NO_THROW(geo::HorizonMap(dsm, 0, 0, 2, 1, opt));
}

TEST(Cli, ErrorMessageNamesTheFlagAndValue) {
    try {
        parse_int("--shard", "abc");
        FAIL() << "expected UsageError";
    } catch (const UsageError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("--shard"), std::string::npos) << what;
        EXPECT_NE(what.find("'abc'"), std::string::npos) << what;
    }
}

}  // namespace
}  // namespace pvfp::cli
