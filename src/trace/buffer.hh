/**
 * @file
 * In-memory trace container with summary statistics (operation mix,
 * footprint, dependency-chain properties).
 *
 * A trace is stored as columns, one array per record field, plus a
 * per-cpu program-order index that links each row to the next row of
 * the same cpu. Both are filled row by row through append(), the one
 * way records enter a buffer (the writer, the merger and the file
 * reader all use it). The replay engine streams the narrow columns
 * and the order index; everything else reads rows through
 * operator[], which assembles a TraceRecord by value.
 */

#ifndef STACK3D_TRACE_BUFFER_HH
#define STACK3D_TRACE_BUFFER_HH

#include <cstdint>
#include <vector>

#include "trace/record.hh"

namespace stack3d {
namespace trace {

/**
 * Sentinel row index: "no dependency" in the 32-bit dep column, and
 * the end of a cpu's program-order chain.
 */
constexpr std::uint32_t kNoRow = ~std::uint32_t(0);

/**
 * Most records one trace may hold (2^32 - 1): row indices fit the
 * 32-bit dep column and order chain, and never collide with kNoRow.
 */
constexpr std::uint64_t kMaxTraceRecords = kNoRow;

/** Summary statistics of a trace. */
struct TraceStats
{
    std::uint64_t num_records = 0;
    std::uint64_t num_loads = 0;
    std::uint64_t num_stores = 0;
    std::uint64_t num_ifetches = 0;
    std::uint64_t num_with_dep = 0;
    /** Unique 64 B lines touched. */
    std::uint64_t footprint_lines = 0;
    /** Footprint in bytes (lines * 64). */
    std::uint64_t footprint_bytes = 0;
    /** Longest dependency chain (records). */
    std::uint64_t max_dep_chain = 0;
    std::uint64_t records_cpu0 = 0;
    std::uint64_t records_cpu1 = 0;
};

/** A sequence of trace records, stored column by column. */
class TraceBuffer
{
  public:
    /** The record fields, one array each, indexed by row. */
    struct Columns
    {
        std::vector<Addr> addr;
        std::vector<Addr> ip;
        /** Row this one depends on, or kNoRow. */
        std::vector<std::uint32_t> dep;
        std::vector<std::uint8_t> cpu;
        std::vector<MemOp> op;
        std::vector<std::uint8_t> size;
    };

    /** Pre-size the columns and order chain for @p rows records. */
    void reserve(std::size_t rows);

    /**
     * Append one record as the next row. Its dependency, if any, must
     * fit the dep column (validate() checks that it is an earlier
     * row), and the buffer must hold fewer than kMaxTraceRecords.
     */
    void append(const TraceRecord &rec);

    /** Row @p i assembled from the columns. */
    TraceRecord operator[](std::size_t i) const;

    std::size_t size() const { return _cols.addr.size(); }
    bool empty() const { return _cols.addr.empty(); }

    const Columns &columns() const { return _cols; }

    /** Highest cpu id seen plus one (0 for an empty trace). */
    unsigned numCpus() const { return unsigned(_first.size()); }

    /** First row issued by @p cpu, or kNoRow (also past numCpus()). */
    std::uint32_t
    firstRow(unsigned cpu) const
    {
        return cpu < _first.size() ? _first[cpu] : kNoRow;
    }

    /** The next row of @p row's cpu in program order, or kNoRow. */
    std::uint32_t nextRow(std::size_t row) const { return _next[row]; }

    /**
     * Validate structural invariants: every dependency points at an
     * earlier record, every size is in [1, 64] and every op is a
     * MemOp. @return true if well-formed.
     */
    [[nodiscard]] bool validate() const;

    /** Compute summary statistics (O(n), walks the whole trace). */
    TraceStats computeStats() const;

  private:
    Columns _cols;
    /**
     * Per-cpu program-order index, linked as rows are appended: each
     * cpu's rows form a chain from _first[cpu] through _next to
     * _last[cpu].
     */
    std::vector<std::uint32_t> _next;
    std::vector<std::uint32_t> _first;
    std::vector<std::uint32_t> _last;
};

} // namespace trace
} // namespace stack3d

#endif // STACK3D_TRACE_BUFFER_HH
