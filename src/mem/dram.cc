#include "dram.hh"

#include <bit>

#include "common/logging.hh"

namespace stack3d {
namespace mem {

DramBankEngine::DramBankEngine(unsigned num_banks,
                               std::uint32_t page_bytes,
                               const DramTiming &timing, std::string name,
                               bool xor_hash)
    : _page_bytes(page_bytes), _timing(timing), _name(std::move(name)),
      _xor_hash(xor_hash), _banks(num_banks)
{
    if (num_banks == 0)
        stack3d_fatal("DRAM '", _name, "' needs at least one bank");
    if (!units::isPowerOfTwo(page_bytes))
        stack3d_fatal("DRAM '", _name, "' page size not a power of two");
    _page_shift = units::floorLog2(page_bytes);
    if (units::isPowerOfTwo(num_banks))
        _bank_mask = Addr(num_banks) - 1;
}

unsigned
DramBankEngine::bankIndex(Addr addr) const
{
    Addr page = addr >> _page_shift;
    if (_xor_hash) {
        // XOR-folded bank hash: plain modulo interleaving makes
        // streams whose base addresses differ by a multiple of
        // num_banks pages collide on the same bank in lockstep
        // forever (bank camping); folding higher page bits into the
        // index decorrelates concurrent streams the way real
        // controllers' bank-address hashing does.
        page = page ^ (page >> 4) ^ (page >> 8) ^ (page >> 12);
    }
    if (_bank_mask != 0 || _banks.size() == 1)
        return unsigned(page & _bank_mask);
    return unsigned(page % _banks.size());
}

Cycles
DramBankEngine::access(Addr addr, Cycles start, bool speculative)
{
    Bank &bank = _banks[bankIndex(addr)];
    Addr page = addr >> _page_shift;

    Cycles queue_head =
        speculative ? bank.busy_any : bank.busy_demand;
    Cycles t0 = std::max(start, queue_head);

    // Idle auto-precharge: a long-idle bank has already closed its
    // page in the background.
    if (bank.page_open && _timing.idle_close > 0 && t0 > bank.busy_any &&
        t0 - bank.busy_any > _timing.idle_close &&
        bank.open_page != page) {
        bank.page_open = false;
    }

    Cycles data;
    Cycles busy_end;
    if (bank.page_open && bank.open_page == page) {
        ++_ctr.page_hits;
        data = t0 + _timing.read;
        busy_end = t0 + _timing.burst;
    } else if (!bank.page_open) {
        ++_ctr.page_misses;
        data = t0 + _timing.page_open + _timing.read;
        busy_end = _timing.pipelined_activate
                       ? t0 + _timing.burst
                       : t0 + _timing.page_open + _timing.burst;
    } else {
        ++_ctr.page_conflicts;
        data = t0 + _timing.precharge + _timing.page_open +
               _timing.read;
        busy_end = _timing.pipelined_activate
                       ? t0 + _timing.burst
                       : t0 + _timing.precharge + _timing.page_open +
                             _timing.burst;
    }
    if (speculative) {
        bank.busy_any = busy_end;
    } else {
        bank.busy_demand = busy_end;
        bank.busy_any = std::max(bank.busy_any, busy_end);
    }
    bank.page_open = true;
    bank.open_page = page;
    return data;
}

Cycles
DramBankEngine::busyUntil(Addr addr) const
{
    return _banks[bankIndex(addr)].busy_any;
}

void
DramBankEngine::reset()
{
    for (Bank &bank : _banks)
        bank = Bank{};
}

DramCacheArray::DramCacheArray(const DramCacheParams &params,
                               std::string name)
    : _params(params), _name(std::move(name))
{
    if (params.size_bytes == 0 || params.assoc == 0)
        stack3d_fatal("DRAM cache '", _name, "' has zero size or assoc");
    if (!units::isPowerOfTwo(params.page_bytes) ||
        !units::isPowerOfTwo(params.sector_bytes)) {
        stack3d_fatal("DRAM cache '", _name,
                      "' page/sector sizes must be powers of two");
    }
    if (params.sector_bytes > params.page_bytes)
        stack3d_fatal("DRAM cache '", _name, "' sector larger than page");

    _sectors_per_page = params.page_bytes / params.sector_bytes;
    if (_sectors_per_page > 64)
        stack3d_fatal("DRAM cache '", _name,
                      "' supports at most 64 sectors per page");

    _num_sets = params.size_bytes /
                (std::uint64_t(params.page_bytes) * params.assoc);
    if (_num_sets == 0 || !units::isPowerOfTwo(_num_sets)) {
        stack3d_fatal("DRAM cache '", _name, "': ", _num_sets,
                      " sets (must be a non-zero power of two)");
    }
    if (params.assoc > 32)
        stack3d_fatal("DRAM cache '", _name, "' assoc ", params.assoc,
                      " exceeds the 32-way metadata bitmasks");
    _page_shift = units::floorLog2(params.page_bytes);
    _sector_shift = units::floorLog2(params.sector_bytes);
    _sig_stride = sigStride(params.assoc);
    _pages.resize(_num_sets * params.assoc);
    _tags.resize(_num_sets * params.assoc);
    _sigs.resize(_num_sets * _sig_stride);
    _valid.resize(_num_sets);
}

std::uint64_t
DramCacheArray::setIndex(Addr addr) const
{
    return (addr >> _page_shift) & (_num_sets - 1);
}

Addr
DramCacheArray::pageTag(Addr addr) const
{
    return addr >> _page_shift;
}

unsigned
DramCacheArray::sectorIndex(Addr addr) const
{
    return unsigned((addr >> _sector_shift) &
                    (_sectors_per_page - 1));
}

int
DramCacheArray::findPageWay(std::uint64_t set, Addr tag) const
{
    return findWay(&_sigs[set * _sig_stride],
                   &_tags[set * _params.assoc], _valid[set],
                   _params.assoc, tag);
}

DramCacheResult
DramCacheArray::access(Addr addr, bool is_store)
{
    DramCacheResult res;
    ++_tick;

    std::uint64_t set = setIndex(addr);
    Addr tag = pageTag(addr);
    unsigned sector = sectorIndex(addr);
    std::uint64_t sector_bit = std::uint64_t(1) << sector;

    PageEntry *base = &_pages[set * _params.assoc];
    int way = findPageWay(set, tag);
    if (way >= 0) {
        PageEntry *entry = &base[unsigned(way)];
        res.page_hit = true;
        entry->lru = _tick;
        if (entry->sector_valid & sector_bit) {
            ++_ctr.sector_hits;
            res.sector_hit = true;
        } else {
            ++_ctr.sector_misses;
            entry->sector_valid |= sector_bit;
        }
        if (is_store)
            entry->sector_dirty |= sector_bit;
        return res;
    }

    // Page miss: allocate, evicting the LRU page if necessary
    // (first invalid way, else first strict-minimum LRU — same
    // order as the old struct scan).
    ++_ctr.page_misses;
    const std::uint32_t all_ways =
        _params.assoc == 32 ? ~std::uint32_t(0)
                            : (std::uint32_t(1u) << _params.assoc) - 1u;
    std::uint32_t invalid = ~_valid[set] & all_ways;
    unsigned victim_way;
    if (invalid) {
        victim_way = unsigned(std::countr_zero(invalid));
    } else {
        victim_way = 0;
        for (unsigned w = 1; w < _params.assoc; ++w) {
            if (base[w].lru < base[victim_way].lru)
                victim_way = w;
        }
    }

    PageEntry *victim = &base[victim_way];
    std::uint64_t flat = set * _params.assoc + victim_way;
    std::uint32_t way_bit = std::uint32_t(1u) << victim_way;
    if (_valid[set] & way_bit) {
        ++_ctr.evictions;
        res.evicted = true;
        res.victim_page = _tags[flat] << _page_shift;
        res.victim_dirty_sectors =
            unsigned(std::popcount(victim->sector_dirty));
        _ctr.writeback_sectors += res.victim_dirty_sectors;
    }

    _tags[flat] = tag;
    _sigs[set * _sig_stride + victim_way] = sigOf(tag);
    _valid[set] |= way_bit;
    victim->sector_valid = sector_bit;
    victim->sector_dirty = is_store ? sector_bit : 0;
    victim->lru = _tick;
    return res;
}

bool
DramCacheArray::markSectorDirty(Addr addr)
{
    std::uint64_t set = setIndex(addr);
    Addr tag = pageTag(addr);
    std::uint64_t sector_bit = std::uint64_t(1) << sectorIndex(addr);
    PageEntry *base = &_pages[set * _params.assoc];
    int way = findPageWay(set, tag);
    if (way >= 0 && (base[unsigned(way)].sector_valid & sector_bit)) {
        base[unsigned(way)].sector_dirty |= sector_bit;
        return true;
    }
    return false;
}

bool
DramCacheArray::probe(Addr addr) const
{
    std::uint64_t set = setIndex(addr);
    Addr tag = pageTag(addr);
    std::uint64_t sector_bit = std::uint64_t(1) << sectorIndex(addr);
    const PageEntry *base = &_pages[set * _params.assoc];
    int way = findPageWay(set, tag);
    if (way >= 0)
        return (base[unsigned(way)].sector_valid & sector_bit) != 0;
    return false;
}

} // namespace mem
} // namespace stack3d
