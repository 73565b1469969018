/**
 * @file
 * Chunked bump allocator for replay-hot transient state.
 *
 * The trace-replay engine allocates its issue-window rings, MSHR-style
 * in-flight tables and completion queues once per run. Individually
 * those are a dozen small vectors; at serve-traffic rates the
 * malloc/free churn and the scattered placement both show up. An
 * Arena gives them one contiguous backing store with pointer-bump
 * allocation: allocation is a couple of arithmetic ops, everything
 * lands hot in cache together, and the whole run's state is released
 * in O(chunks) at destruction.
 *
 * Restrictions by design: only trivially-destructible element types
 * (nothing runs destructors), and no per-object deallocation — the
 * arena frees as a unit. That is exactly the lifetime shape of
 * per-replay scratch state.
 */

#ifndef STACK3D_COMMON_ARENA_HH
#define STACK3D_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace stack3d {

/** A chunked bump allocator; see file comment for the contract. */
class Arena
{
  public:
    /** @param chunk_bytes  granularity of backing allocations. */
    explicit Arena(std::size_t chunk_bytes = std::size_t(1) << 20)
        : _chunk_bytes(chunk_bytes)
    {
        stack3d_assert(chunk_bytes >= 4096,
                       "arena chunks below 4 KiB defeat the point");
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * Allocate @p n default-initialized objects of trivial type T,
     * aligned for T. The memory is owned by the arena; do not free.
     */
    template <typename T>
    T *
    allocate(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena never runs destructors");
        if (n == 0)
            return nullptr;
        std::size_t bytes = n * sizeof(T);
        void *raw = allocateBytes(bytes, alignof(T));
        // Value-initialize: replay state (completion times, ring
        // cursors) relies on zeroed starting contents the same way
        // the std::vector-based code did.
        // Placement-new into the arena's chunk, not a heap
        // allocation. lint3d: safe-naked-new-ok
        return new (raw) T[n]();
    }

    /** Total bytes handed out (excluding alignment padding). */
    std::size_t bytesAllocated() const { return _allocated; }

    /** Number of backing chunks currently held. */
    std::size_t numChunks() const { return _chunks.size(); }

  private:
    struct Chunk
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
        std::size_t used = 0;
    };

    void *
    allocateBytes(std::size_t bytes, std::size_t align)
    {
        if (_chunks.empty() || !fits(_chunks.back(), bytes, align)) {
            Chunk chunk;
            chunk.size = bytes > _chunk_bytes ? bytes + align
                                              : _chunk_bytes;
            chunk.data = std::make_unique<std::byte[]>(chunk.size);
            _chunks.push_back(std::move(chunk));
        }
        Chunk &chunk = _chunks.back();
        std::size_t base =
            reinterpret_cast<std::size_t>(chunk.data.get());
        std::size_t aligned =
            (base + chunk.used + align - 1) & ~(align - 1);
        std::size_t offset = aligned - base;
        chunk.used = offset + bytes;
        _allocated += bytes;
        return chunk.data.get() + offset;
    }

    static bool
    fits(const Chunk &chunk, std::size_t bytes, std::size_t align)
    {
        std::size_t padded = chunk.used + align - 1;
        padded &= ~(align - 1);
        return padded + bytes <= chunk.size;
    }

    std::size_t _chunk_bytes;
    std::size_t _allocated = 0;
    std::vector<Chunk> _chunks;
};

} // namespace stack3d

#endif // STACK3D_COMMON_ARENA_HH
