#include "core/racs_client.h"

#include "common/checksum.h"

namespace hyrd::core {

RACSClient::RACSClient(gcs::MultiCloudSession& session,
                       erasure::StripeGeometry geometry,
                       std::string data_container)
    : StorageClientBase(session, std::move(data_container)),
      // RACS has no evaluator tracking provider availability; degraded
      // reads discover the outage per request (two-round reconstruction).
      erasure_(container_, geometry, /*outage_aware=*/false),
      replication_(container_) {
  recovery_.emplace(session_, store_, log_, replication_, erasure_);
  (void)session_.ensure_container_everywhere(container_);
}

std::vector<std::size_t> RACSClient::slots_for(const std::string& path) const {
  const std::size_t n = session_.client_count();
  const std::size_t start =
      static_cast<std::size_t>(common::fnv1a(std::string_view(path))) % n;
  std::vector<std::size_t> out;
  out.reserve(erasure_.geometry().total());
  for (std::size_t i = 0; i < erasure_.geometry().total(); ++i) {
    out.push_back((start + i) % n);
  }
  return out;
}

dist::WriteResult RACSClient::write_object(
    const std::string& path, common::Buffer data,
    std::vector<std::string>* unreachable) {
  // RACS has no small-file special case: metadata blocks are striped like
  // any other object.
  const auto prev = store_.lookup(path);
  std::vector<std::size_t> slots;
  if (prev.has_value()) {
    for (const auto& loc : prev->locations) {
      slots.push_back(session_.index_of(loc.provider));
    }
  } else {
    slots = slots_for(path);
  }
  return erasure_.write(session_, path, std::move(data), slots, unreachable);
}

dist::ReadResult RACSClient::read_object(const meta::FileMeta& m) {
  return erasure_.read(session_, m);
}

dist::WriteResult RACSClient::update_object(
    const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
    std::vector<std::string>* unreachable) {
  return erasure_.update_range(session_, m, offset, data, nullptr,
                               unreachable);
}

dist::RemoveResult RACSClient::remove_object(const meta::FileMeta& m) {
  return erasure_.remove(session_, m);
}

}  // namespace hyrd::core
