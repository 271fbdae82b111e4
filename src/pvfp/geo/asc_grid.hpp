#pragma once
/// \file asc_grid.hpp
/// ESRI ASCII grid (.asc) import/export for Raster.
///
/// This is the interchange format used in place of GDAL/GeoTIFF: it is a
/// plain-text grid format that every GIS package (QGIS, ArcGIS, GRASS, and
/// GDAL itself) reads, so synthetic DSMs produced here can be inspected in
/// real GIS tools and real LiDAR DSMs can be fed to the floorplanner.
///
/// Format:
///   ncols 4
///   nrows 3
///   xllcorner 0.0
///   yllcorner 0.0
///   cellsize 0.2
///   NODATA_value -9999
///   <nrows lines of ncols numbers, row 0 = northernmost>
///
/// The parser accepts the variations found in the wild: header keys in any
/// case and order, CRLF line endings, and the xllcenter/yllcenter variant
/// (lower-left *cell center* instead of corner, per the ESRI spec — each
/// axis independently).  Duplicate header keys are rejected: real exporters
/// never emit them, so a duplicate means a corrupted or concatenated file.

#include <iosfwd>
#include <string>

#include "pvfp/geo/raster.hpp"

namespace pvfp::geo {

/// Parsed .asc header, in the file's own conventions (lower-left
/// reference).  This is all a tile index needs to place a tile in world
/// coordinates without reading its data section.
struct AscHeader {
    long ncols = 0;
    long nrows = 0;
    /// World easting/northing of the lower-left *corner* of the grid
    /// (center variants are already converted by the parser).
    double xllcorner = 0.0;
    double yllcorner = 0.0;
    double cellsize = 0.0;
    double nodata = kDefaultNoData;

    /// Easting of the east edge.
    double x_max() const { return xllcorner + ncols * cellsize; }
    /// Northing of the north edge.
    double y_max() const { return yllcorner + nrows * cellsize; }
};

/// Parse only the header of an ASCII grid from a stream, leaving the
/// stream positioned at the first data token; throws IoError on malformed
/// or duplicated header keys.
AscHeader read_asc_header(std::istream& is);

/// Parse the header of an ASCII grid file without loading its data
/// section (tile discovery over large directories).
AscHeader read_asc_header_file(const std::string& path);

/// Parse an ASCII grid from a stream; throws IoError on malformed content.
/// The data section reads exactly the values an `is >> double` loop would
/// (same grammar, same failures), scanned with std::from_chars through a
/// fixed-size buffer.
Raster read_asc_grid(std::istream& is);

/// Parse an ASCII grid file; throws IoError when it cannot be opened.
Raster read_asc_grid_file(const std::string& path);

/// Serialize \p raster to a stream in ESRI ASCII grid format.
/// Note: the format's yllcorner refers to the *bottom-left* corner while
/// Raster's origin is top-left; the writer converts.
void write_asc_grid(const Raster& raster, std::ostream& os);

/// Serialize to a file; throws IoError on failure.
void write_asc_grid_file(const Raster& raster, const std::string& path);

}  // namespace pvfp::geo
