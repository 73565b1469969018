/**
 * @file
 * Base classes for instrumented RMS workload kernels.
 *
 * Each kernel (Table 1 of the paper) implements the real algorithm's
 * memory-access pattern: setup builds the shared data structures
 * (array placement, sparse structure), then each simulated thread
 * traces its share of the computation through a ThreadTracer. The
 * per-thread traces are merged chunk-wise into one SMP trace.
 */

#ifndef STACK3D_WORKLOADS_KERNEL_HH
#define STACK3D_WORKLOADS_KERNEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/units.hh"
#include "trace/buffer.hh"
#include "trace/writer.hh"
#include "workloads/config.hh"

namespace stack3d {
namespace workloads {

/**
 * A named, placed array in the simulated address space. Element
 * addresses are base + index * elem_size.
 */
struct ArrayRef
{
    Addr base = 0;
    std::uint32_t elem_size = 8;
    std::uint64_t count = 0;

    Addr
    at(std::uint64_t idx) const
    {
        stack3d_assert(idx < count, "array index out of range: ", idx,
                       " >= ", count);
        return base + idx * elem_size;
    }

    std::uint64_t sizeBytes() const { return count * elem_size; }
};

/**
 * Allocates arrays in the simulated address space during kernel
 * setup. Allocation is a 4 KB-aligned bump pointer; threads share
 * the same placement so shared structures have shared addresses.
 */
class SetupContext
{
  public:
    explicit SetupContext(const WorkloadConfig &cfg)
        : _cfg(cfg), _rng(cfg.seed)
    {
    }

    /** Allocate an array of @p count elements of @p elem_size bytes. */
    ArrayRef alloc(std::uint64_t count, std::uint32_t elem_size);

    const WorkloadConfig &config() const { return _cfg; }
    Random &rng() { return _rng; }

    /** Scaled element count: max(floor(n * scale), minimum). */
    std::uint64_t
    scaled(std::uint64_t n, std::uint64_t minimum = 64) const
    {
        auto v = std::uint64_t(double(n) * _cfg.scale);
        return v < minimum ? minimum : v;
    }

  private:
    static constexpr Addr kBase = 0x10000000;
    const WorkloadConfig &_cfg;
    Random _rng;
    Addr _next = kBase;
};

/** Opaque per-kernel shared state (sparse structures, dimensions). */
struct KernelState
{
    virtual ~KernelState() = default;
};

/**
 * Per-thread tracing context handed to RmsKernel::runThread. Wraps a
 * ThreadTracer with convenience element and streaming accessors, a
 * per-thread RNG, and the record budget.
 */
class KernelContext
{
  public:
    KernelContext(unsigned thread_id, unsigned num_threads,
                  std::uint64_t budget, std::uint64_t seed)
        : _thread_id(thread_id), _num_threads(num_threads),
          _budget(budget), _tracer(std::uint8_t(thread_id)),
          _rng(seed ^ (0x9e3779b9ULL * (thread_id + 1)))
    {
        // Kernels stop within one loop body past the budget; the
        // headroom absorbs that overshoot, so the columns are
        // allocated once instead of doubled for the last few rows.
        _tracer.reserve(budget + budget / 64 + 4096);
    }

    unsigned threadId() const { return _thread_id; }
    unsigned numThreads() const { return _num_threads; }
    Random &rng() { return _rng; }

    /** True once this thread has produced its share of records. */
    bool done() const { return _tracer.size() >= _budget; }

    std::uint64_t recordCount() const { return _tracer.size(); }

    /**
     * Trace one element load.
     * @param site static access-site id (becomes the record's IP)
     * @param dep record that produced the address or input value
     */
    trace::RecordId
    load(const ArrayRef &arr, std::uint64_t idx, unsigned site,
         trace::RecordId dep = trace::kNone)
    {
        return _tracer.load(arr.at(idx), siteIp(site), dep,
                            accessSize(arr));
    }

    /** Trace one element store. */
    trace::RecordId
    store(const ArrayRef &arr, std::uint64_t idx, unsigned site,
          trace::RecordId dep = trace::kNone)
    {
        return _tracer.store(arr.at(idx), siteIp(site), dep,
                             accessSize(arr));
    }

    /**
     * Trace a sequential sweep of @p bytes starting at element @p idx,
     * one record per @p gran bytes (modelling vectorized/unrolled
     * code). @return id of the last record.
     */
    trace::RecordId
    streamLoad(const ArrayRef &arr, std::uint64_t idx, std::uint64_t bytes,
               unsigned gran, unsigned site)
    {
        return stream(arr, idx, bytes, gran, site, /*is_store=*/false);
    }

    /** Store variant of streamLoad(). */
    trace::RecordId
    streamStore(const ArrayRef &arr, std::uint64_t idx, std::uint64_t bytes,
                unsigned gran, unsigned site)
    {
        return stream(arr, idx, bytes, gran, site, /*is_store=*/true);
    }

    /** Partition [0, n) among threads; this thread's half-open range. */
    std::pair<std::uint64_t, std::uint64_t>
    myRange(std::uint64_t n) const
    {
        std::uint64_t per = n / _num_threads;
        std::uint64_t lo = per * _thread_id;
        std::uint64_t hi =
            _thread_id + 1 == _num_threads ? n : lo + per;
        return {lo, hi};
    }

    /** Steal the thread's records (called by the generator). */
    trace::TraceBuffer takeRecords() { return _tracer.take(); }

  private:
    static Addr siteIp(unsigned site) { return 0x400000 + Addr(site) * 16; }

    static std::uint8_t
    accessSize(const ArrayRef &arr)
    {
        return std::uint8_t(arr.elem_size <= 64 ? arr.elem_size : 64);
    }

    trace::RecordId stream(const ArrayRef &arr, std::uint64_t idx,
                           std::uint64_t bytes, unsigned gran,
                           unsigned site, bool is_store);

    unsigned _thread_id;
    unsigned _num_threads;
    std::uint64_t _budget;
    trace::ThreadTracer _tracer;
    Random _rng;
};

/**
 * An instrumented RMS benchmark kernel (one row of Table 1).
 */
class RmsKernel
{
  public:
    virtual ~RmsKernel() = default;

    /** Short benchmark name as used in Figure 5 (e.g. "gauss"). */
    virtual const char *name() const = 0;

    /** One-line description from Table 1. */
    virtual const char *description() const = 0;

    /**
     * Approximate data footprint in bytes at the given config's scale
     * (used by tests and to document Figure 5 capacity sensitivity).
     */
    virtual std::uint64_t nominalFootprintBytes(
        const WorkloadConfig &cfg) const = 0;

    /** Generate the merged SMP trace for this kernel. */
    trace::TraceBuffer generate(const WorkloadConfig &cfg) const;

  protected:
    /** Build shared data structures (dimensions, sparse patterns). */
    virtual std::unique_ptr<KernelState> buildState(
        SetupContext &setup) const = 0;

    /** Trace one thread's share of the computation until ctx.done(). */
    virtual void runThread(KernelContext &ctx,
                           const KernelState &state) const = 0;
};

} // namespace workloads
} // namespace stack3d

#endif // STACK3D_WORKLOADS_KERNEL_HH
