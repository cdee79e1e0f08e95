// Unused-resource volume and most-matched VM selection (Eq. 22).
//
//   volume_j = sum_k r_hat_{jk} / C'_k
//
// where C' is the component-wise maximum VM capacity in the cluster. Among
// the VMs whose available vector satisfies the entity's demand, the one
// with the SMALLEST volume is the "most matched" — it leaves the least
// stranded capacity behind. CORP answers that query from a VolumeIndex;
// the random-feasible rule of the baselines scans a candidate list.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "trace/resources.hpp"

namespace corp::sched {

using trace::ResourceVector;

/// One candidate VM's availability snapshot.
struct VmAvailability {
  std::uint32_t vm_id = 0;
  ResourceVector available;
};

/// Eq. 22. `max_capacity` must be strictly positive in every component.
double unused_volume(const ResourceVector& available,
                     const ResourceVector& max_capacity);

/// The smallest Eq. 22 volume any availability that fits `demand` can
/// have. ResourceVector::fits_within accepts a demand up to 1e-9 above
/// the availability, so a feasible VM's volume can sit below the
/// demand's own; this bound subtracts a margin that covers that tolerance
/// and the rounding of the check at any magnitude. It is not clamped at
/// zero: a VM's unallocated ledger can carry -1e-9 of commit dust and
/// still fit a demand of 0 in that resource.
double feasible_volume_floor(const ResourceVector& demand,
                             const ResourceVector& max_capacity);

/// Candidate VMs ordered by (Eq. 22 volume, view position). A most-matched
/// query walks up from feasible_volume_floor(demand): the first feasible
/// entry is the smallest volume with the lowest position among its ties —
/// exactly what a linear scan keeping the first strict minimum returns —
/// and the entries after it with the same volume are the rest of its tie
/// set, in position order.
///
/// Layout: fixed-capacity sorted blocks in one contiguous arena, chained
/// in key order by a block-id list; a full block splits in half and an
/// emptied one is recycled. Insert and erase cost O(log blocks + block
/// size), so keeping a 100k-VM index current costs O(changed VMs), not a
/// re-sort or a scan.
class VolumeIndex {
 public:
  struct Entry {
    double volume = 0.0;
    std::uint32_t position = 0;
    /// Caller data riding in the entry's padding; not part of the key.
    std::uint32_t tag = 0;
  };

  /// Replaces the contents with `entries` (any order; positions unique).
  void assign(std::vector<Entry> entries);

  void insert(const Entry& entry);

  /// Removes the entry keyed (volume, position), which must be present.
  void erase(double volume, std::uint32_t position);

  std::size_t size() const { return size_; }

  /// Calls `visit(entry)` in ascending (volume, position) order, starting
  /// at the first entry whose volume is not below `from`, until `visit`
  /// returns false or the entries run out.
  template <typename Visit>
  void walk_from(double from, const Visit& visit) const {
    if (order_.empty()) return;
    std::size_t b = block_for(from, 0);
    std::size_t i = lower_bound_in(order_[b], from, 0);
    for (; b < order_.size(); ++b, i = 0) {
      const Entry* block = block_data(order_[b]);
      for (; i < count_[order_[b]]; ++i) {
        if (!visit(block[i])) return;
      }
    }
  }

  /// Eq. 22 selection over the index. Clears `fits`, then appends the
  /// feasible entry with the smallest volume and, among exact ties, the
  /// lowest position — the pick of a scan keeping the first strict
  /// minimum — and with `all_ties` every later feasible entry of exactly
  /// that volume, in position order. `available(entry)` is the entry's
  /// availability; `fits` stays empty when nothing fits.
  template <typename Available>
  void most_matched(const ResourceVector& demand,
                    const ResourceVector& max_capacity,
                    const Available& available, bool all_ties,
                    std::vector<Entry>& fits) const {
    fits.clear();
    walk_from(feasible_volume_floor(demand, max_capacity),
              [&](const Entry& entry) {
                if (!fits.empty() && entry.volume != fits.front().volume) {
                  return false;
                }
                if (!demand.fits_within(available(entry))) return true;
                fits.push_back(entry);
                return all_ties;
              });
  }

  /// Calls `visit(entry)` for every entry, in key order.
  template <typename Visit>
  void for_each(const Visit& visit) const {
    for (const std::uint32_t id : order_) {
      const Entry* block = block_data(id);
      for (std::size_t i = 0; i < count_[id]; ++i) visit(block[i]);
    }
  }

 private:
  /// Entries per block: a split or an erase moves at most this many.
  static constexpr std::size_t kBlock = 256;

  Entry* block_data(std::uint32_t id) { return &arena_[id * kBlock]; }
  const Entry* block_data(std::uint32_t id) const {
    return &arena_[id * kBlock];
  }
  /// Index into order_ of the block that holds key (volume, position) or
  /// would receive it: the last block whose first entry is not above it.
  std::size_t block_for(double volume, std::uint32_t position) const;
  /// Offset of the first entry of block `id` not below the key.
  std::size_t lower_bound_in(std::uint32_t id, double volume,
                             std::uint32_t position) const;
  std::uint32_t new_block();

  std::vector<Entry> arena_;
  std::vector<std::uint32_t> count_;  // per block id
  std::vector<std::uint32_t> order_;  // non-empty block ids in key order
  std::vector<std::uint32_t> free_;   // recycled block ids
  std::size_t size_ = 0;
};

/// Index of a uniformly random feasible candidate (the RCCR / CloudScale /
/// DRA placement rule: "randomly chose a VM that can satisfy the resource
/// demands"), or nullopt when none fits. `pick` must be a uniform draw in
/// [0, 1).
std::optional<std::size_t> random_feasible(
    std::span<const VmAvailability> candidates, const ResourceVector& demand,
    double pick);

}  // namespace corp::sched
