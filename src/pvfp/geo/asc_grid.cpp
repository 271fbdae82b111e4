#include "pvfp/geo/asc_grid.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <limits>
#include <locale>
#include <sstream>
#include <system_error>
#include <vector>

#include "pvfp/util/error.hpp"

namespace pvfp::geo {
namespace {

std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

/// Mark a header key as seen; a second occurrence is corruption (e.g.
/// two concatenated files) and must not silently win.
void mark_seen(bool& seen, const std::string& key) {
    check_io(!seen, "asc_grid: duplicate header key '" + key + "'");
    seen = true;
}

bool is_space(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// The data value starting at \p p (a non-space byte, or \p end),
/// advancing \p p past it: exactly what `is >> v` reads from the
/// classic locale, or the same IoError when it fails.  std::from_chars
/// parses the common case; the grammar differences are closed
/// explicitly:
///  - a leading '+' is accepted, but no second sign;
///  - "nan" and "inf" are refused (from_chars takes them; "0x1p3" reads
///    as 0 followed by "x1p3" in both);
///  - an exponent without digits ("1e", "1.5e+") fails: istream
///    consumes it, from_chars leaves it unread;
///  - a value out of double range (from_chars: result_out_of_range)
///    goes to istream itself, which reads an underflow as +-0 and fails
///    on an overflow.
/// A value ends where the number grammar does, so "1.5-2" is two values.
double next_value(const char*& p, const char* end) {
    const char* const start = p;
    const char* digits = p;
    if (digits != end && (*digits == '+' || *digits == '-')) ++digits;
    check_io(digits != end && (is_digit(*digits) || *digits == '.'),
             "asc_grid: truncated data section");
    double v = 0.0;
    const auto [stop, ec] =
        std::from_chars(*start == '+' ? digits : start, end, v);
    check_io(ec == std::errc() || ec == std::errc::result_out_of_range,
             "asc_grid: truncated data section");
    const bool has_exponent =
        std::find_if(start, stop, [](char c) {
            return c == 'e' || c == 'E';
        }) != stop;
    check_io(has_exponent || stop == end || (*stop != 'e' && *stop != 'E'),
             "asc_grid: truncated data section");
    if (ec == std::errc::result_out_of_range) {
        std::istringstream token(std::string(start, stop));
        token.imbue(std::locale::classic());
        check_io(static_cast<bool>(token >> v),
                 "asc_grid: truncated data section");
    }
    p = stop;
    return v;
}

/// Streams the data section through a buffer of kChunk bytes (grown
/// only for a run of non-space bytes longer than the buffer), skipping
/// whitespace (the classic ctype set) and handing next_value one whole
/// whitespace-delimited run at a time, so the number grammar always sees
/// where a value ends.  A fixed chunk keeps memory flat in the tile size
/// and never makes a large transient allocation.
class ValueScanner {
public:
    explicit ValueScanner(std::istream& is) : is_(is), buf_(kChunk) {}

    double next() {
        for (;;) {
            while (pos_ < end_ && is_space(buf_[pos_])) ++pos_;
            if (pos_ < end_ || !fill()) break;
        }
        std::size_t stop = pos_;
        for (;;) {
            while (stop < end_ && !is_space(buf_[stop])) ++stop;
            if (stop < end_) break;
            const std::size_t scanned = stop - pos_;
            if (!fill()) break;
            stop = pos_ + scanned;
        }
        const char* p = buf_.data() + pos_;
        const double v = next_value(p, buf_.data() + stop);
        pos_ = static_cast<std::size_t>(p - buf_.data());
        return v;
    }

private:
    static constexpr std::size_t kChunk = 64 * 1024;

    /// Move the unread bytes to the front (doubling the buffer when
    /// they fill it) and read more behind them; false at end of input.
    bool fill() {
        if (eof_) return false;
        std::copy(buf_.begin() + static_cast<long>(pos_),
                  buf_.begin() + static_cast<long>(end_), buf_.begin());
        end_ -= pos_;
        pos_ = 0;
        if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
        is_.read(buf_.data() + end_,
                 static_cast<std::streamsize>(buf_.size() - end_));
        const std::size_t got = static_cast<std::size_t>(is_.gcount());
        end_ += got;
        eof_ = !is_;
        return got > 0;
    }

    std::istream& is_;
    std::vector<char> buf_;
    std::size_t pos_ = 0;  ///< next unread byte
    std::size_t end_ = 0;  ///< bytes of buf_ holding input
    bool eof_ = false;
};

}  // namespace

AscHeader read_asc_header(std::istream& is) {
    // Header: key/value pairs in flexible order until the first row of
    // numbers.  ncols/nrows/cellsize are mandatory.  operator>> treats
    // '\r' as whitespace, so CRLF (and lone-CR) files parse unchanged.
    long ncols = -1;
    long nrows = -1;
    double xll = 0.0;
    double yll = 0.0;
    bool x_centered = false;  // xllcenter variant (per-axis, ESRI spec)
    bool y_centered = false;
    double cellsize = -1.0;
    double nodata = kDefaultNoData;
    bool seen_ncols = false;
    bool seen_nrows = false;
    bool seen_xll = false;
    bool seen_yll = false;
    bool seen_cellsize = false;
    bool seen_nodata = false;

    std::string token;
    for (;;) {
        const auto pos = is.tellg();
        if (!(is >> token)) throw IoError("asc_grid: truncated header");
        const std::string key = lower(token);
        if (key == "ncols") {
            mark_seen(seen_ncols, key);
            check_io(static_cast<bool>(is >> ncols), "asc_grid: bad ncols");
        } else if (key == "nrows") {
            mark_seen(seen_nrows, key);
            check_io(static_cast<bool>(is >> nrows), "asc_grid: bad nrows");
        } else if (key == "xllcorner" || key == "xllcenter") {
            mark_seen(seen_xll, "xllcorner/xllcenter");
            check_io(static_cast<bool>(is >> xll), "asc_grid: bad " + key);
            x_centered = (key == "xllcenter");
        } else if (key == "yllcorner" || key == "yllcenter") {
            mark_seen(seen_yll, "yllcorner/yllcenter");
            check_io(static_cast<bool>(is >> yll), "asc_grid: bad " + key);
            y_centered = (key == "yllcenter");
        } else if (key == "cellsize") {
            mark_seen(seen_cellsize, key);
            check_io(static_cast<bool>(is >> cellsize),
                     "asc_grid: bad cellsize");
        } else if (key == "nodata_value") {
            mark_seen(seen_nodata, key);
            check_io(static_cast<bool>(is >> nodata),
                     "asc_grid: bad NODATA_value");
        } else {
            // First data token: rewind and stop header parsing.
            is.clear();
            is.seekg(pos);
            break;
        }
    }

    check_io(ncols > 0 && nrows > 0, "asc_grid: missing/invalid ncols/nrows");
    check_io(cellsize > 0.0, "asc_grid: missing/invalid cellsize");
    check_io(ncols * nrows <=
                 static_cast<long>(std::numeric_limits<int>::max()),
             "asc_grid: grid too large");

    AscHeader header;
    header.ncols = ncols;
    header.nrows = nrows;
    // Normalize the center variants to the corner convention, per axis.
    header.xllcorner = x_centered ? xll - 0.5 * cellsize : xll;
    header.yllcorner = y_centered ? yll - 0.5 * cellsize : yll;
    header.cellsize = cellsize;
    header.nodata = nodata;
    return header;
}

AscHeader read_asc_header_file(const std::string& path) {
    std::ifstream is(path);
    check_io(is.good(), "asc_grid: cannot open '" + path + "'");
    return read_asc_header(is);
}

Raster read_asc_grid(std::istream& is) {
    const AscHeader header = read_asc_header(is);

    // Raster origin is the top-left (NW) corner; the header gives the
    // bottom-left (SW) corner, nrows*cellsize further south.
    const double origin_x = header.xllcorner;
    const double origin_y =
        header.yllcorner + static_cast<double>(header.nrows) * header.cellsize;
    Raster raster(static_cast<int>(header.ncols),
                  static_cast<int>(header.nrows), header.cellsize, 0.0,
                  origin_x, origin_y);
    raster.set_nodata(header.nodata);

    // The values a `is >> v` loop would read, scanned in chunks.
    ValueScanner values(is);
    for (int y = 0; y < raster.height(); ++y)
        for (int x = 0; x < raster.width(); ++x)
            raster(x, y) = values.next();
    return raster;
}

Raster read_asc_grid_file(const std::string& path) {
    std::ifstream is(path);
    check_io(is.good(), "asc_grid: cannot open '" + path + "'");
    return read_asc_grid(is);
}

void write_asc_grid(const Raster& raster, std::ostream& os) {
    // Georeferencing must survive the text round trip exactly enough for
    // lattice-alignment checks (UTM eastings/northings have 6-7 integer
    // digits); the default 6 significant digits would truncate them.
    const std::streamsize saved_precision = os.precision(12);
    os << "ncols " << raster.width() << '\n';
    os << "nrows " << raster.height() << '\n';
    os << "xllcorner " << raster.origin_x() << '\n';
    os << "yllcorner "
       << raster.origin_y() - raster.height() * raster.cell_size() << '\n';
    os << "cellsize " << raster.cell_size() << '\n';
    os << "NODATA_value " << raster.nodata() << '\n';
    os.precision(6);
    for (int y = 0; y < raster.height(); ++y) {
        for (int x = 0; x < raster.width(); ++x) {
            if (x) os << ' ';
            os << raster(x, y);
        }
        os << '\n';
    }
    os.precision(saved_precision);
}

void write_asc_grid_file(const Raster& raster, const std::string& path) {
    std::ofstream os(path);
    check_io(os.good(), "asc_grid: cannot open '" + path + "' for writing");
    write_asc_grid(raster, os);
    check_io(os.good(), "asc_grid: write to '" + path + "' failed");
}

}  // namespace pvfp::geo
