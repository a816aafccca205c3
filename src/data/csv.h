// Minimal CSV import/export so examples can persist/load datasets and the
// raw-data analytics path (RT2.3) has a "raw file" representation to adapt
// over.
#pragma once

#include <iosfwd>
#include <string>

#include "data/table.h"

namespace sea {

/// Writes `table` as a header line followed by one comma-separated row per
/// tuple, full double precision.
void write_csv(const Table& table, std::ostream& out);

/// Parses a CSV produced by write_csv (header + numeric rows).
/// Throws std::runtime_error on malformed input.
Table read_csv(std::istream& in);

}  // namespace sea
