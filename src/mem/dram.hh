/**
 * @file
 * DRAM timing and state models shared by the 3D-stacked DRAM cache
 * and the off-die DDR main memory:
 *
 *  - DramBankEngine: per-bank open-page timing (RAS / CAS / precharge
 *    from Table 3) over N address-interleaved banks.
 *  - DramCacheArray: page-granular, sector-valid tag state of the
 *    stacked DRAM cache (512 B pages, 64 B sectors).
 */

#ifndef STACK3D_MEM_DRAM_HH
#define STACK3D_MEM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"
#include "mem/params.hh"
#include "mem/tagsearch.hh"

namespace stack3d {
namespace mem {

/** Counters for a bank engine. */
struct DramBankCounters
{
    std::uint64_t page_hits = 0;      ///< open-page CAS-only accesses
    std::uint64_t page_misses = 0;    ///< bank idle, page opened
    std::uint64_t page_conflicts = 0; ///< other page open, precharged
};

/**
 * Open-page timing over address-interleaved banks. Each access picks
 * the bank from the page address, waits for the bank to go idle, then
 * pays CAS (open page), RAS+CAS (idle bank), or PRE+RAS+CAS (page
 * conflict).
 */
class DramBankEngine
{
  public:
    /**
     * @param xor_hash  XOR-fold the bank index. Right for a small-
     *     page DRAM cache where many concurrent streams would
     *     otherwise camp on the same bank in lockstep; wrong for
     *     sequential-heavy main memory where plain modulo gives
     *     perfect round-robin.
     */
    DramBankEngine(unsigned num_banks, std::uint32_t page_bytes,
                   const DramTiming &timing, std::string name,
                   bool xor_hash = false);

    /**
     * Access @p addr no earlier than @p start.
     *
     * Demand accesses queue only behind other demand traffic at the
     * bank (the controller prioritizes demand reads and lets them
     * preempt queued speculative requests); speculative accesses
     * (prefetch fills) queue behind everything.
     *
     * @return the cycle the column data is available.
     */
    Cycles access(Addr addr, Cycles start, bool speculative = false);

    const DramBankCounters &counters() const { return _ctr; }
    const std::string &name() const { return _name; }
    unsigned numBanks() const { return unsigned(_banks.size()); }

    /** Bank index servicing @p addr (page-interleaved). */
    unsigned bankIndex(Addr addr) const;

    /** Cycle the bank for @p addr goes idle (queue backlog probe). */
    Cycles busyUntil(Addr addr) const;

    /** Close all pages and return banks to idle at time 0. */
    void reset();

  private:
    struct Bank
    {
        Addr open_page = 0;
        bool page_open = false;
        /** Queue head for demand traffic (demand-priority lane). */
        Cycles busy_demand = 0;
        /** Queue head including speculative bookings. */
        Cycles busy_any = 0;
    };

    std::uint32_t _page_bytes;
    unsigned _page_shift;
    DramTiming _timing;
    std::string _name;
    bool _xor_hash;
    /** num_banks - 1 when the bank count is a power of two (the
     *  common configs), letting bankIndex mask instead of divide;
     *  0 means fall back to the modulo. */
    Addr _bank_mask = 0;
    std::vector<Bank> _banks;
    DramBankCounters _ctr;
};

/** Outcome of a DRAM-cache tag/sector lookup. */
struct DramCacheResult
{
    bool page_hit = false;    ///< tag matched an allocated page
    bool sector_hit = false;  ///< requested sector is valid
    bool evicted = false;     ///< a page was evicted to allocate
    Addr victim_page = 0;     ///< page-aligned address of the victim
    unsigned victim_dirty_sectors = 0; ///< writeback traffic (sectors)
};

/** Counters for the DRAM cache tag array. */
struct DramCacheCounters
{
    std::uint64_t sector_hits = 0;
    std::uint64_t sector_misses = 0;   ///< page present, sector not
    std::uint64_t page_misses = 0;     ///< page absent
    std::uint64_t evictions = 0;
    std::uint64_t writeback_sectors = 0;

    double
    missRate() const
    {
        std::uint64_t total =
            sector_hits + sector_misses + page_misses;
        return total
            ? double(sector_misses + page_misses) / double(total)
            : 0.0;
    }
};

/**
 * Tag state of the sectored stacked-DRAM cache. Pages are allocated
 * set-associatively with LRU replacement; sectors within a page are
 * filled on demand (the paper's 512 B pages with 64 B sectors).
 */
class DramCacheArray
{
  public:
    explicit DramCacheArray(const DramCacheParams &params,
                            std::string name);

    /**
     * Access the sector containing @p addr, allocating the page
     * and/or filling the sector as needed. Stores dirty the sector.
     */
    DramCacheResult access(Addr addr, bool is_store);

    /** True if the page and sector for @p addr are both valid. */
    bool probe(Addr addr) const;

    /**
     * Mark the sector containing @p addr dirty if it is resident
     * (an L1 victim draining into the DRAM cache).
     * @return true if the sector was resident.
     */
    bool markSectorDirty(Addr addr);

    const DramCacheCounters &counters() const { return _ctr; }
    const DramCacheParams &params() const { return _params; }
    std::uint64_t numSets() const { return _num_sets; }
    unsigned sectorsPerPage() const { return _sectors_per_page; }

  private:
    /** Per-page sector state; tags/valid live in contiguous arrays
     *  alongside so lookups use the vector signature probe. */
    struct PageEntry
    {
        std::uint64_t sector_valid = 0;
        std::uint64_t sector_dirty = 0;
        std::uint64_t lru = 0;
    };

    std::uint64_t setIndex(Addr addr) const;
    Addr pageTag(Addr addr) const;
    unsigned sectorIndex(Addr addr) const;
    int findPageWay(std::uint64_t set, Addr tag) const;

    DramCacheParams _params;
    std::string _name;
    std::uint64_t _num_sets;
    unsigned _page_shift;
    unsigned _sector_shift;
    unsigned _sectors_per_page;
    unsigned _sig_stride;
    std::vector<PageEntry> _pages;       // num_sets * assoc
    std::vector<Addr> _tags;             // num_sets * assoc
    std::vector<TagSig> _sigs;           // num_sets * _sig_stride
    std::vector<std::uint32_t> _valid;   // num_sets (way bitmasks)
    std::uint64_t _tick = 0;
    DramCacheCounters _ctr;
};

} // namespace mem
} // namespace stack3d

#endif // STACK3D_MEM_DRAM_HH
