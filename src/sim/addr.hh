/**
 * @file
 * Fundamental address and data-classification types shared by the
 * memory-hierarchy simulator (dss::sim) and the DBMS engine (dss::db).
 *
 * The taxonomy mirrors the HPCA'97 paper: every traced reference carries a
 * DataClass naming the *software* structure it touches, so misses and stall
 * time can be broken down exactly like the paper's Figures 6-12.
 */

#ifndef DSS_SIM_ADDR_HH
#define DSS_SIM_ADDR_HH

#include <cstdint>
#include <string_view>

namespace dss {
namespace sim {

/** Simulated virtual address. */
using Addr = std::uint64_t;

/** Simulated time in processor cycles (500 MHz in the paper). */
using Cycles = std::uint64_t;

/** Processor (node) identifier; the baseline machine has 4. */
using ProcId = std::uint32_t;

/** Most processors a machine may have: the directory's sharer mask width. */
constexpr unsigned kMaxProcs = 64;

/**
 * Software data structure classification of a memory reference.
 *
 * The five metadata classes (BufDesc..LockSLock) are the Postgres95 shared
 * control structures of the paper's Figure 4; reports aggregate them into
 * "Metadata" where the paper does (Figs 6b, 8, 10) and keep them separate
 * where the paper does (Fig 7).
 */
enum class DataClass : std::uint8_t {
    Priv,       ///< Private heap (tuple copies, temp tables, hash tables)
    Data,       ///< Shared database data (heap tuples in buffer blocks)
    Index,      ///< Shared database indices (B-tree pages in buffer blocks)
    BufDesc,    ///< Buffer descriptors
    BufLook,    ///< Buffer lookup hash table
    LockHash,   ///< Lock manager: lock hash table
    XidHash,    ///< Lock manager: transaction (xid) hash table
    LockSLock,  ///< Metalock spinlock words (LockMgrLock, BufMgrLock, ...)
    MetaOther,  ///< Remaining shared engine metadata (catalog, inval cache)
    NumClasses
};

constexpr std::size_t kNumDataClasses =
    static_cast<std::size_t>(DataClass::NumClasses);

/** Short printable name, matching the paper's figure labels. */
constexpr std::string_view
dataClassName(DataClass c)
{
    switch (c) {
      case DataClass::Priv: return "Priv";
      case DataClass::Data: return "Data";
      case DataClass::Index: return "Index";
      case DataClass::BufDesc: return "BufDesc";
      case DataClass::BufLook: return "BufLook";
      case DataClass::LockHash: return "LockHash";
      case DataClass::XidHash: return "XidHash";
      case DataClass::LockSLock: return "LockSLock";
      case DataClass::MetaOther: return "MetaOther";
      default: return "?";
    }
}

/** True for the classes the paper aggregates as "Metadata". */
constexpr bool
isMetadataClass(DataClass c)
{
    switch (c) {
      case DataClass::BufDesc:
      case DataClass::BufLook:
      case DataClass::LockHash:
      case DataClass::XidHash:
      case DataClass::LockSLock:
      case DataClass::MetaOther:
        return true;
      default:
        return false;
    }
}

/** True for every shared class (everything except private heap). */
constexpr bool
isSharedClass(DataClass c)
{
    return c != DataClass::Priv;
}

/**
 * Coarse grouping used by Figures 6b, 8 and 10: Priv / Data / Index /
 * Metadata.
 */
enum class ClassGroup : std::uint8_t { Priv, Data, Index, Metadata, NumGroups };

constexpr std::size_t kNumClassGroups =
    static_cast<std::size_t>(ClassGroup::NumGroups);

constexpr ClassGroup
groupOf(DataClass c)
{
    switch (c) {
      case DataClass::Priv: return ClassGroup::Priv;
      case DataClass::Data: return ClassGroup::Data;
      case DataClass::Index: return ClassGroup::Index;
      default: return ClassGroup::Metadata;
    }
}

constexpr std::string_view
classGroupName(ClassGroup g)
{
    switch (g) {
      case ClassGroup::Priv: return "Priv";
      case ClassGroup::Data: return "Data";
      case ClassGroup::Index: return "Index";
      case ClassGroup::Metadata: return "Metadata";
      default: return "?";
    }
}

} // namespace sim
} // namespace dss

#endif // DSS_SIM_ADDR_HH
