#include "writer.hh"

#include <utility>

#include "common/check.hh"
#include "common/logging.hh"

namespace stack3d {
namespace trace {

RecordId
ThreadTracer::push(const TraceRecord &rec)
{
    RecordId id = _records.size();
    stack3d_assert(!rec.hasDep() || rec.dep < id,
                   "dependency must reference an earlier record");
    _records.append(rec);
    return id;
}

RecordId
ThreadTracer::load(Addr addr, Addr ip, RecordId addr_dep, std::uint8_t size)
{
    TraceRecord rec;
    rec.addr = addr;
    rec.ip = ip;
    rec.cpu = _cpu;
    rec.op = MemOp::Load;
    rec.size = size;

    if (addr_dep != kNone) {
        rec.dep = addr_dep;
    } else {
        auto it = _last_writer.find(addr >> 6);
        if (it != _last_writer.end())
            rec.dep = it->second;
    }
    return push(rec);
}

RecordId
ThreadTracer::store(Addr addr, Addr ip, RecordId data_dep, std::uint8_t size)
{
    TraceRecord rec;
    rec.addr = addr;
    rec.ip = ip;
    rec.cpu = _cpu;
    rec.op = MemOp::Store;
    rec.size = size;
    if (data_dep != kNone)
        rec.dep = data_dep;

    RecordId id = push(rec);
    _last_writer[addr >> 6] = id;
    return id;
}

RecordId
ThreadTracer::ifetch(Addr addr, std::uint8_t size)
{
    TraceRecord rec;
    rec.addr = addr;
    rec.ip = addr;
    rec.cpu = _cpu;
    rec.op = MemOp::Ifetch;
    rec.size = size;
    return push(rec);
}

TraceBuffer
ThreadTracer::take()
{
    _last_writer.clear();
    return std::exchange(_records, TraceBuffer());
}

TraceBuffer
TraceMerger::merge(std::vector<TraceBuffer> thread_traces) const
{
    stack3d_assert(_chunk > 0, "merge chunk must be positive");

    std::uint64_t total = 0;
    for (const TraceBuffer &tt : thread_traces)
        total += tt.size();
    stack3d_assert(total <= kMaxTraceRecords, "merged trace of ", total,
                   " records exceeds ", kMaxTraceRecords);

    TraceBuffer merged;
    merged.reserve(total);

    // For each thread, map local record id -> merged id.
    std::vector<std::vector<std::uint32_t>> remap(thread_traces.size());
    for (std::size_t t = 0; t < thread_traces.size(); ++t)
        remap[t].resize(thread_traces[t].size());

    std::vector<std::size_t> pos(thread_traces.size(), 0);
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t t = 0; t < thread_traces.size(); ++t) {
            const TraceBuffer &src = thread_traces[t];
            std::size_t take_n = std::min(_chunk, src.size() - pos[t]);
            for (std::size_t k = 0; k < take_n; ++k) {
                std::size_t local = pos[t] + k;
                TraceRecord rec = src[local];
                if (rec.hasDep()) {
                    // Same-thread, earlier-record dependency: its
                    // remap entry was filled in a previous iteration.
                    S3D_DCHECK(rec.dep < local)
                        << "thread " << t << " record " << local
                        << " depends on " << rec.dep;
                    rec.dep = remap[t][S3D_BOUNDS(rec.dep,
                                                  remap[t].size())];
                }
                remap[t][local] = std::uint32_t(merged.size());
                merged.append(rec);
            }
            pos[t] += take_n;
            progress = progress || take_n > 0;
        }
    }

    S3D_DCHECK(merged.size() == total)
        << "merged " << merged.size() << " of " << total;
    stack3d_assert(merged.validate(), "merged trace failed validation");
    return merged;
}

} // namespace trace
} // namespace stack3d
