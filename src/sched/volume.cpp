#include "sched/volume.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace corp::sched {

namespace {

/// The index key order: volume, then view position.
bool key_less(double a_volume, std::uint32_t a_position, double b_volume,
              std::uint32_t b_position) {
  return a_volume < b_volume ||
         (a_volume == b_volume && a_position < b_position);
}

bool entry_less(const VolumeIndex::Entry& a, const VolumeIndex::Entry& b) {
  return key_less(a.volume, a.position, b.volume, b.position);
}

}  // namespace

double unused_volume(const ResourceVector& available,
                     const ResourceVector& max_capacity) {
  double volume = 0.0;
  for (std::size_t k = 0; k < trace::kNumResources; ++k) {
    const double cap = max_capacity[k];
    if (cap > 0.0) volume += available[k] / cap;
  }
  return volume;
}

double feasible_volume_floor(const ResourceVector& demand,
                             const ResourceVector& max_capacity) {
  // fits_within passes when demand[k] <= fl(available[k] + 1e-9), so
  // available[k] >= demand[k] - 1e-9 - u|demand[k]| (u = 2^-53). Twice
  // the tolerance plus 2^-50 |demand[k]| stays below that after this
  // line's own rounding. unused_volume is monotone in every component
  // (each quotient and partial sum rounds monotonically), so no feasible
  // availability has a smaller volume than this floor.
  // A NaN demand fits everything, so its floor is -inf.
  ResourceVector floor;
  for (std::size_t k = 0; k < trace::kNumResources; ++k) {
    floor[k] = demand[k] - 2e-9 - std::abs(demand[k]) * 0x1p-50;
  }
  const double volume = unused_volume(floor, max_capacity);
  return std::isnan(volume) ? -std::numeric_limits<double>::infinity()
                            : volume;
}

void VolumeIndex::assign(std::vector<Entry> entries) {
  std::sort(entries.begin(), entries.end(), entry_less);
  const std::size_t blocks = (entries.size() + kBlock - 1) / kBlock;
  arena_.assign(blocks * kBlock, Entry{});
  count_.assign(blocks, 0);
  order_.resize(blocks);
  free_.clear();
  std::copy(entries.begin(), entries.end(), arena_.begin());
  for (std::size_t b = 0; b < blocks; ++b) {
    order_[b] = static_cast<std::uint32_t>(b);
    count_[b] = static_cast<std::uint32_t>(
        std::min(kBlock, entries.size() - b * kBlock));
  }
  size_ = entries.size();
}

std::size_t VolumeIndex::block_for(double volume,
                                   std::uint32_t position) const {
  const auto it = std::partition_point(
      order_.begin(), order_.end(), [&](std::uint32_t id) {
        const Entry& first = block_data(id)[0];
        return !key_less(volume, position, first.volume, first.position);
      });
  return it == order_.begin()
             ? 0
             : static_cast<std::size_t>(it - order_.begin()) - 1;
}

std::size_t VolumeIndex::lower_bound_in(std::uint32_t id, double volume,
                                        std::uint32_t position) const {
  const Entry* data = block_data(id);
  const Entry* it = std::lower_bound(
      data, data + count_[id], Entry{volume, position, 0}, entry_less);
  return static_cast<std::size_t>(it - data);
}

std::uint32_t VolumeIndex::new_block() {
  if (!free_.empty()) {
    const std::uint32_t id = free_.back();
    free_.pop_back();
    return id;
  }
  const auto id = static_cast<std::uint32_t>(count_.size());
  count_.push_back(0);
  arena_.resize(arena_.size() + kBlock);
  return id;
}

void VolumeIndex::insert(const Entry& entry) {
  if (order_.empty()) order_.push_back(new_block());
  std::size_t b = block_for(entry.volume, entry.position);
  std::uint32_t id = order_[b];
  if (count_[id] == kBlock) {
    // Split the full block in half; the upper half becomes a new block
    // chained right after it.
    const std::uint32_t upper = new_block();
    constexpr std::size_t kHalf = kBlock / 2;
    std::copy(block_data(id) + kHalf, block_data(id) + kBlock,
              block_data(upper));
    count_[id] = kHalf;
    count_[upper] = kBlock - kHalf;
    order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(b) + 1,
                  upper);
    if (!entry_less(entry, block_data(upper)[0])) id = upper;
  }
  Entry* data = block_data(id);
  const std::size_t at = lower_bound_in(id, entry.volume, entry.position);
  std::copy_backward(data + at, data + count_[id], data + count_[id] + 1);
  data[at] = entry;
  ++count_[id];
  ++size_;
}

void VolumeIndex::erase(double volume, std::uint32_t position) {
  if (order_.empty()) {
    throw std::logic_error("VolumeIndex::erase: index is empty");
  }
  const std::size_t b = block_for(volume, position);
  const std::uint32_t id = order_[b];
  Entry* data = block_data(id);
  const std::size_t at = lower_bound_in(id, volume, position);
  if (at == count_[id] || data[at].position != position ||
      !(data[at].volume == volume)) {
    throw std::logic_error("VolumeIndex::erase: key not present");
  }
  std::copy(data + at + 1, data + count_[id], data + at);
  --count_[id];
  --size_;
  if (count_[id] == 0) {
    order_.erase(order_.begin() + static_cast<std::ptrdiff_t>(b));
    free_.push_back(id);
  }
}

std::optional<std::size_t> random_feasible(
    std::span<const VmAvailability> candidates, const ResourceVector& demand,
    double pick) {
  std::vector<std::size_t> feasible;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (demand.fits_within(candidates[i].available)) feasible.push_back(i);
  }
  if (feasible.empty()) return std::nullopt;
  const double clamped = std::clamp(pick, 0.0, 1.0 - 1e-12);
  const auto idx = static_cast<std::size_t>(
      clamped * static_cast<double>(feasible.size()));
  return feasible[std::min(idx, feasible.size() - 1)];
}

}  // namespace corp::sched
