#include "src/server/topology.h"

#include <utility>

#include "src/core/persist.h"
#include "src/obs/metrics.h"

namespace xseq {

namespace {

/// Registry handles for the hot-swap metrics, resolved once.
struct TopologyMetricSet {
  obs::Counter* reloads;
  obs::Counter* reload_failures;
  obs::Gauge* epoch;
};

const TopologyMetricSet& TopologyMetrics() {
  static const TopologyMetricSet s = [] {
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    return TopologyMetricSet{r->GetCounter("xseq.topology.reloads"),
                             r->GetCounter("xseq.topology.reload_failures"),
                             r->GetGauge("xseq.topology.epoch")};
  }();
  return s;
}

}  // namespace

TopologyManager::TopologyManager(TopologyOptions options)
    : options_(std::move(options)) {}

void TopologyManager::Install(
    std::shared_ptr<const ShardedCollection> collection, std::string prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  current_ = std::move(collection);
  prefix_ = std::move(prefix);
  ++epoch_;
  if (obs::MetricsEnabled()) {
    TopologyMetrics().epoch->Set(static_cast<int64_t>(epoch_));
  }
}

Status TopologyManager::RunCanaries(const ShardedCollection& candidate) const {
  for (const CanaryQuery& canary : options_.canaries) {
    auto result = candidate.Query(canary.xpath);
    if (!result.ok()) {
      return AnnotateStatus(result.status(), "canary '" + canary.xpath + "'");
    }
    if (canary.expect_docs >= 0 &&
        static_cast<int64_t>(result->docs.size()) != canary.expect_docs) {
      return Status::FailedPrecondition(
          "canary '" + canary.xpath + "' answered " +
          std::to_string(result->docs.size()) + " docs, expected " +
          std::to_string(canary.expect_docs));
    }
  }
  return Status::OK();
}

StatusOr<uint64_t> TopologyManager::Reload(const std::string& prefix) {
  // One pipeline at a time: concurrent reloads would race each other's
  // swaps and double memory. Queries never take this lock.
  std::lock_guard<std::mutex> reload_lock(reload_mu_);

  auto fail = [](Status st) -> StatusOr<uint64_t> {
    if (obs::MetricsEnabled()) TopologyMetrics().reload_failures->Increment();
    return st;
  };

  if (prefix.empty()) {
    return fail(Status::InvalidArgument(
        "reload needs an image prefix (the live generation has no on-disk "
        "home to re-read)"));
  }

  // Step 1: offline validation, cheapest check first. Nothing is loaded
  // into serving memory yet.
  auto manifest = ReadShardedManifest(prefix, options_.persist);
  if (!manifest.ok()) return fail(manifest.status());
  Status verified = VerifyShardImages(prefix, *manifest, options_.persist);
  if (!verified.ok()) return fail(verified);

  // Step 2: load the candidate next to the live generation.
  auto loaded =
      ShardedCollection::Load(prefix, options_.threads, options_.persist);
  if (!loaded.ok()) return fail(loaded.status());
  auto candidate =
      std::make_shared<const ShardedCollection>(std::move(*loaded));

  // Step 3: canaries run against the candidate only; the live generation
  // keeps serving untouched.
  Status canaried = RunCanaries(*candidate);
  if (!canaried.ok()) return fail(canaried);

  // Step 4: the swap — a pointer assignment. In-flight queries hold their
  // own shared_ptr and finish on the old image; it is freed when the last
  // holder drops it.
  uint64_t next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(candidate);
    prefix_ = prefix;
    ++epoch_;
    next = (epoch_ << 32) | (current_->generation() & 0xffffffffu);
    if (obs::MetricsEnabled()) {
      TopologyMetrics().epoch->Set(static_cast<int64_t>(epoch_));
    }
  }
  if (obs::MetricsEnabled()) TopologyMetrics().reloads->Increment();
  return next;
}

std::shared_ptr<const ShardedCollection> TopologyManager::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

StatusOr<QueryResult> TopologyManager::Query(std::string_view xpath,
                                             const ExecOptions& options) const {
  std::shared_ptr<const ShardedCollection> live = Current();
  if (live == nullptr) {
    return Status::FailedPrecondition("no generation installed");
  }
  return live->Query(xpath, options);
}

uint64_t TopologyManager::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ == nullptr) return 0;
  return (epoch_ << 32) | (current_->generation() & 0xffffffffu);
}

uint64_t TopologyManager::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

std::string TopologyManager::prefix() const {
  std::lock_guard<std::mutex> lock(mu_);
  return prefix_;
}

}  // namespace xseq
