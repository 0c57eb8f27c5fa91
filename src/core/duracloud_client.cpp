#include "core/duracloud_client.h"

#include <cassert>

namespace hyrd::core {

DuraCloudClient::DuraCloudClient(gcs::MultiCloudSession& session,
                                 std::vector<std::string> providers,
                                 std::string data_container)
    : StorageClientBase(session, std::move(data_container)),
      // DuraCloud keeps copies synchronized: a write completes only after
      // every copy is confirmed in turn (sequential), which is why the
      // paper sees its latency *improve* when one provider is down.
      replication_(container_, dist::ReplicaWriteMode::kSequential),
      erasure_(container_, {.k = 3, .m = 1}) {
  recovery_.emplace(session_, store_, log_, replication_, erasure_);
  for (const auto& name : providers) {
    const std::size_t idx = session_.index_of(name);
    assert(idx != static_cast<std::size_t>(-1) && "unknown provider");
    targets_.push_back(idx);
  }
  (void)session_.ensure_container_everywhere(container_);
}

dist::WriteResult DuraCloudClient::write_object(
    const std::string& path, common::Buffer data,
    std::vector<std::string>* unreachable) {
  return replication_.write(session_, path, std::move(data), targets_,
                            unreachable);
}

dist::ReadResult DuraCloudClient::read_object(const meta::FileMeta& m) {
  return replication_.read(session_, m);
}

dist::WriteResult DuraCloudClient::update_object(
    const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
    std::vector<std::string>* unreachable) {
  if (offset == 0 && data.size() == m.size) {
    return write_object(m.path, common::Buffer::borrow(data), unreachable);
  }
  return replication_.update_range(session_, m, offset, data, unreachable);
}

dist::RemoveResult DuraCloudClient::remove_object(const meta::FileMeta& m) {
  return replication_.remove(session_, m);
}

}  // namespace hyrd::core
