// Copyright (c) 2026 libvcdn authors. Apache-2.0 license.
//
// CSV trace (de)serialization: the text interchange format, header
// "arrival_time,video,byte_begin,byte_end", interoperable with
// spreadsheet/plotting tooling. Lossless: every double is written with
// %.17g, so ReadCsv(WriteCsv(t)) reproduces t field for field.
//
// Real anonymized logs can be replayed through the simulator in place of
// synthetic ones; tools/trace_pack packs CSV into the mmap-replayable
// VCDNTRS2 binary format (src/trace/trace_file.h).

#ifndef VCDN_SRC_TRACE_TRACE_IO_H_
#define VCDN_SRC_TRACE_TRACE_IO_H_

#include <iosfwd>
#include <string>

#include "src/trace/request.h"
#include "src/util/status.h"

namespace vcdn::trace {

util::Status WriteCsv(const Trace& trace, std::ostream& out);
util::Status WriteCsvFile(const Trace& trace, const std::string& path);

util::Result<Trace> ReadCsv(std::istream& in);
util::Result<Trace> ReadCsvFile(const std::string& path);

}  // namespace vcdn::trace

#endif  // VCDN_SRC_TRACE_TRACE_IO_H_
