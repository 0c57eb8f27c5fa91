#include "core/depsky_client.h"

#include <numeric>

#include "common/checksum.h"
#include "dist/scheme.h"

namespace hyrd::core {

DepSkyClient::DepSkyClient(gcs::MultiCloudSession& session,
                           std::size_t faults_tolerated,
                           std::string data_container)
    : StorageClientBase(session, std::move(data_container)),
      quorum_(session.client_count() - faults_tolerated),
      replication_(container_),
      erasure_(container_, {.k = 3, .m = 1}) {
  recovery_.emplace(session_, store_, log_, replication_, erasure_);
  all_targets_.resize(session_.client_count());
  std::iota(all_targets_.begin(), all_targets_.end(), 0);
  (void)session_.ensure_container_everywhere(container_);
}

dist::WriteResult DepSkyClient::await_quorum(
    gcs::AsyncBatch& batch, const std::vector<std::string>& providers,
    std::vector<std::string>* unreachable) const {
  // DepSky's quorum write is the engine's kQuorum ack policy verbatim.
  dist::WriteResult result;
  gcs::BatchStats stats;
  auto puts = batch.await_ack(gcs::AckPolicy::kQuorum, &stats, quorum_);
  if (stats.succeeded < quorum_) {
    result.status = common::unavailable(
        "quorum unreachable (" + std::to_string(stats.succeeded) + "/" +
        std::to_string(quorum_) + " acks)");
    // The client still waited for the failures to time out.
    result.latency = stats.max_latency;
    return result;
  }
  result.latency = stats.latency;
  for (std::size_t i = 0; i < puts.size(); ++i) {
    if (!puts[i].ok() && unreachable != nullptr) {
      unreachable->push_back(providers[i]);
    }
  }
  return result;
}

dist::WriteResult DepSkyClient::write_object(
    const std::string& path, common::Buffer data,
    std::vector<std::string>* unreachable) {
  gcs::AsyncBatch batch(session_);
  meta::FileMeta m;
  m.path = path;
  m.size = data.size();
  m.redundancy = meta::RedundancyKind::kReplicated;
  m.crc = common::crc32c(data);
  std::vector<std::string> providers;
  for (std::size_t i = 0; i < all_targets_.size(); ++i) {
    providers.push_back(session_.client(all_targets_[i]).provider_name());
    m.locations.push_back(
        {providers.back(), dist::fragment_object_name(path, 'q', i)});
    batch.submit(gcs::CloudOp::put(
        all_targets_[i], {container_, m.locations.back().object_name}, data));
  }
  dist::WriteResult result = await_quorum(batch, providers, unreachable);
  if (result.status.is_ok()) result.meta = std::move(m);
  return result;
}

dist::ReadResult DepSkyClient::read_object(const meta::FileMeta& m) {
  return replication_.read(session_, m);
}

dist::WriteResult DepSkyClient::update_object(
    const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
    std::vector<std::string>* unreachable) {
  if (offset == 0 && data.size() == m.size) {
    return write_object(m.path, common::Buffer::borrow(data), unreachable);
  }
  gcs::AsyncBatch batch(session_);
  std::vector<std::string> providers;
  for (const auto& loc : m.locations) {
    const std::size_t idx = session_.index_of(loc.provider);
    if (idx == static_cast<std::size_t>(-1)) continue;
    batch.submit(gcs::CloudOp::put_range(idx, {container_, loc.object_name},
                                         offset, data));
    providers.push_back(loc.provider);
  }
  dist::WriteResult result = await_quorum(batch, providers, unreachable);
  if (result.status.is_ok()) {
    result.meta = m;
    result.meta.crc = 0;  // whole-object digest unknown after a block write
  }
  return result;
}

dist::RemoveResult DepSkyClient::remove_object(const meta::FileMeta& m) {
  return replication_.remove(session_, m);
}

}  // namespace hyrd::core
