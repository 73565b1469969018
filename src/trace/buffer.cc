#include "buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace stack3d {
namespace trace {

const char *
memOpName(MemOp op)
{
    switch (op) {
      case MemOp::Load:
        return "load";
      case MemOp::Store:
        return "store";
      case MemOp::Ifetch:
        return "ifetch";
    }
    return "unknown";
}

void
TraceBuffer::reserve(std::size_t rows)
{
    _cols.addr.reserve(rows);
    _cols.ip.reserve(rows);
    _cols.dep.reserve(rows);
    _cols.cpu.reserve(rows);
    _cols.op.reserve(rows);
    _cols.size.reserve(rows);
    _next.reserve(rows);
}

void
TraceBuffer::append(const TraceRecord &rec)
{
    const std::size_t n = size();
    stack3d_assert(n < kMaxTraceRecords, "trace exceeds ",
                   kMaxTraceRecords, " records");
    stack3d_assert(!rec.hasDep() || rec.dep < kNoRow, "dependency ",
                   rec.dep, " does not fit the dep column");
    const std::uint32_t row = std::uint32_t(n);
    _cols.addr.push_back(rec.addr);
    _cols.ip.push_back(rec.ip);
    _cols.dep.push_back(rec.hasDep() ? std::uint32_t(rec.dep) : kNoRow);
    _cols.cpu.push_back(rec.cpu);
    _cols.op.push_back(rec.op);
    _cols.size.push_back(rec.size);

    _next.push_back(kNoRow);
    if (rec.cpu >= _first.size()) {
        _first.resize(std::size_t(rec.cpu) + 1, kNoRow);
        _last.resize(std::size_t(rec.cpu) + 1, kNoRow);
    }
    if (_last[rec.cpu] == kNoRow)
        _first[rec.cpu] = row;
    else
        _next[_last[rec.cpu]] = row;
    _last[rec.cpu] = row;
}

TraceRecord
TraceBuffer::operator[](std::size_t i) const
{
    TraceRecord rec;
    rec.addr = _cols.addr[i];
    rec.ip = _cols.ip[i];
    if (_cols.dep[i] != kNoRow)
        rec.dep = _cols.dep[i];
    rec.cpu = _cols.cpu[i];
    rec.op = _cols.op[i];
    rec.size = _cols.size[i];
    return rec;
}

bool
TraceBuffer::validate() const
{
    for (std::size_t i = 0; i < size(); ++i) {
        const TraceRecord rec = (*this)[i];
        if (rec.hasDep() && rec.dep >= i)
            return false;
        if (rec.size == 0 || rec.size > 64)
            return false;
        if (rec.op > MemOp::Ifetch)
            return false;
    }
    return true;
}

TraceStats
TraceBuffer::computeStats() const
{
    TraceStats st;
    st.num_records = size();

    // Unique 64 B lines via sort+unique: deterministic (no hash
    // iteration anywhere near results) and cache-friendlier than a
    // node-based set for multi-million-record traces.
    std::vector<Addr> lines;
    lines.reserve(size());
    // depth[i] = length of the dependency chain ending at record i.
    std::vector<std::uint32_t> depth(size(), 1);

    for (std::size_t i = 0; i < size(); ++i) {
        const TraceRecord rec = (*this)[i];
        switch (rec.op) {
          case MemOp::Load:
            ++st.num_loads;
            break;
          case MemOp::Store:
            ++st.num_stores;
            break;
          case MemOp::Ifetch:
            ++st.num_ifetches;
            break;
        }
        if (rec.hasDep()) {
            ++st.num_with_dep;
            depth[i] = depth[rec.dep] + 1;
        }
        st.max_dep_chain = std::max<std::uint64_t>(st.max_dep_chain,
                                                   depth[i]);
        if (rec.cpu == 0)
            ++st.records_cpu0;
        else
            ++st.records_cpu1;
        lines.push_back(rec.addr >> 6);
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    st.footprint_lines = lines.size();
    st.footprint_bytes = st.footprint_lines * 64;
    return st;
}

} // namespace trace
} // namespace stack3d
