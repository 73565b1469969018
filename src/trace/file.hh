/**
 * @file
 * Binary trace file serialization. The format is a fixed header
 * (magic, version, record count) followed by packed records. Intended
 * for caching generated traces between runs and for interchange.
 */

#ifndef STACK3D_TRACE_FILE_HH
#define STACK3D_TRACE_FILE_HH

#include <string>

#include "trace/buffer.hh"

namespace stack3d {
namespace trace {

/** Current trace file format version. */
constexpr std::uint32_t kTraceFileVersion = 1;

/**
 * Write @p buf to @p path.
 * Calls stack3d_fatal() if the file cannot be created or written.
 */
void writeTraceFile(const std::string &path, const TraceBuffer &buf);

/**
 * Read a trace file written by writeTraceFile().
 * Calls stack3d_fatal() on missing file, bad magic, bad version, a
 * record count the file does not hold (or over kMaxTraceRecords), or
 * records that fail TraceBuffer::validate().
 */
TraceBuffer readTraceFile(const std::string &path);

} // namespace trace
} // namespace stack3d

#endif // STACK3D_TRACE_FILE_HH
