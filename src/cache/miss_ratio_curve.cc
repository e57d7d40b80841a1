#include "cache/miss_ratio_curve.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>

#include "cache/compiled_mrc.h"
#include "common/logging.h"

namespace copart {
namespace {

// Cache-line granularity of the occupancy model. All modeled machines in
// this repository use 64-byte lines (Table 1).
constexpr double kLineBytes = 64.0;

// Bisection iterations for the characteristic-time solve; 0.5^48 relative
// precision is far below the model's own accuracy.
constexpr int kBisectionIterations = 48;

// Exact content of a profile as far as its compiled table is concerned:
// the streaming weight's bit pattern, then (weight bits, working set) per
// component in order. Equal keys compile to bit-identical tables.
using ContentKey = std::vector<uint64_t>;

ContentKey KeyOf(const ReuseProfile& profile) {
  ContentKey key;
  key.reserve(1 + 2 * profile.components().size());
  key.push_back(std::bit_cast<uint64_t>(profile.streaming_weight()));
  for (const ReuseComponent& component : profile.components()) {
    key.push_back(std::bit_cast<uint64_t>(component.weight));
    key.push_back(component.working_set_bytes);
  }
  return key;
}

std::atomic<uint64_t> compiled_build_count{0};

// One table per live profile content.
struct InternedTable {
  std::once_flag once;
  std::unique_ptr<const CompiledMrc> table;
};

// Process-wide content -> table registry. It holds weak references only, so
// a table lives exactly as long as some profile holds it and memory stays
// bounded by what is resident: interning every table for the life of the
// process would keep one ~43 KB table per distinct mixture ever seen.
// Expired entries are pruned whenever the map doubles past its last live
// size, which keeps inserts amortized O(log n).
class TableRegistry {
 public:
  std::shared_ptr<InternedTable> Intern(ContentKey key) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::weak_ptr<InternedTable>& entry = entries_[std::move(key)];
    if (std::shared_ptr<InternedTable> live = entry.lock()) {
      return live;
    }
    auto slot = std::make_shared<InternedTable>();
    entry = slot;
    if (entries_.size() >= prune_at_) {
      std::erase_if(entries_,
                    [](const auto& kv) { return kv.second.expired(); });
      prune_at_ = std::max(kMinPruneSize, 2 * entries_.size());
    }
    return slot;
  }

 private:
  static constexpr size_t kMinPruneSize = 64;

  std::mutex mutex_;
  std::map<ContentKey, std::weak_ptr<InternedTable>> entries_;
  size_t prune_at_ = kMinPruneSize;
};

TableRegistry& Registry() {
  static TableRegistry registry;
  return registry;
}

}  // namespace

struct ReuseProfile::LazyCompiled {
  std::once_flag once;
  // Keeps the interned table alive while any copy of this profile is.
  std::shared_ptr<InternedTable> interned;
  const CompiledMrc* table = nullptr;
};

ReuseProfile::ReuseProfile(std::vector<ReuseComponent> components,
                           double streaming_weight)
    : components_(std::move(components)),
      streaming_weight_(streaming_weight),
      compiled_(std::make_shared<LazyCompiled>()) {
  CHECK_GE(streaming_weight_, 0.0);
  double total = streaming_weight_;
  lines_.reserve(components_.size());
  rates_.reserve(components_.size());
  for (const ReuseComponent& component : components_) {
    CHECK_GE(component.weight, 0.0);
    CHECK_GT(component.working_set_bytes, 0u);
    total += component.weight;
    const double lines = std::max(
        1.0, static_cast<double>(component.working_set_bytes) / kLineBytes);
    lines_.push_back(lines);
    rates_.push_back(component.weight / lines);
    total_lines_ += lines;
  }
  CHECK_LE(total, 1.0 + 1e-9) << "reuse profile weights exceed 1";
}

ReuseProfile ReuseProfile::Streaming() { return ReuseProfile({}, 1.0); }

double ReuseProfile::MissRatio(uint64_t capacity_bytes) const {
  // Degenerate capacity: nothing is retained.
  if (capacity_bytes == 0) {
    double miss = streaming_weight_;
    for (const ReuseComponent& component : components_) {
      miss += component.weight;
    }
    return std::clamp(miss, 0.0, 1.0);
  }

  const double capacity_lines = static_cast<double>(capacity_bytes) / kLineBytes;
  const size_t n = components_.size();

  // Everything resident and no stream to pollute: no misses.
  if (streaming_weight_ <= 0.0 && total_lines_ <= capacity_lines) {
    return 0.0;
  }

  // Occupancy at characteristic time T: resident fraction of each component
  // plus the streamed lines still aging out (one per stream access, alive
  // for T accesses).
  auto occupancy = [&](double t) {
    double lines_used = streaming_weight_ * t;
    for (size_t j = 0; j < n; ++j) {
      lines_used += lines_[j] * (1.0 - std::exp(-rates_[j] * t));
    }
    return lines_used;
  };

  // Bracket the root of occupancy(T) == capacity_lines. occupancy is
  // strictly increasing whenever this branch is reached.
  double t_hi = 1.0;
  while (occupancy(t_hi) < capacity_lines) {
    t_hi *= 2.0;
    if (t_hi > 1e18) {
      // Numerically everything fits; only the stream misses.
      return std::clamp(streaming_weight_, 0.0, 1.0);
    }
  }
  double t_lo = 0.0;
  for (int i = 0; i < kBisectionIterations; ++i) {
    const double mid = 0.5 * (t_lo + t_hi);
    if (occupancy(mid) < capacity_lines) {
      t_lo = mid;
    } else {
      t_hi = mid;
    }
  }
  const double t = 0.5 * (t_lo + t_hi);

  double miss = streaming_weight_;
  for (size_t j = 0; j < n; ++j) {
    miss += components_[j].weight * std::exp(-rates_[j] * t);
  }
  return std::clamp(miss, 0.0, 1.0);
}

double ReuseProfile::MissRatio(uint64_t capacity_bytes, MrcMode mode) const {
  if (mode == MrcMode::kCompiled) {
    const CompiledMrc& table = Compiled();
    if (table.Covers(capacity_bytes)) {
      return table.Evaluate(capacity_bytes);
    }
  }
  return MissRatio(capacity_bytes);
}

const CompiledMrc& ReuseProfile::Compiled() const {
  std::call_once(compiled_->once, [this] {
    std::shared_ptr<InternedTable> interned = Registry().Intern(KeyOf(*this));
    // Racing resolvers of one key share the slot, so each live content is
    // built once; distinct keys build concurrently outside the registry lock.
    std::call_once(interned->once, [&] {
      interned->table = std::make_unique<const CompiledMrc>(*this);
      compiled_build_count.fetch_add(1, std::memory_order_relaxed);
    });
    compiled_->table = interned->table.get();
    compiled_->interned = std::move(interned);
  });
  return *compiled_->table;
}

uint64_t ReuseProfile::CompiledBuildCount() {
  return compiled_build_count.load(std::memory_order_relaxed);
}

uint64_t ReuseProfile::MaxWorkingSetBytes() const {
  uint64_t max_ws = 0;
  for (const ReuseComponent& component : components_) {
    max_ws = std::max(max_ws, component.working_set_bytes);
  }
  return max_ws;
}

}  // namespace copart
