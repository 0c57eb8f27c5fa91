#include "core/single_client.h"

#include <cassert>

namespace hyrd::core {

SingleCloudClient::SingleCloudClient(gcs::MultiCloudSession& session,
                                     std::string provider,
                                     std::string data_container)
    : StorageClientBase(session, std::move(data_container)),
      provider_(std::move(provider)),
      replication_(container_) {
  const std::size_t idx = session_.index_of(provider_);
  assert(idx != static_cast<std::size_t>(-1) && "unknown provider");
  target_ = {idx};
  (void)session_.client(idx).ensure_container(container_);
}

dist::WriteResult SingleCloudClient::write_object(
    const std::string& path, common::Buffer data,
    std::vector<std::string>* unreachable) {
  return replication_.write(session_, path, std::move(data), target_,
                            unreachable);
}

dist::ReadResult SingleCloudClient::read_object(const meta::FileMeta& m) {
  return replication_.read(session_, m);
}

dist::WriteResult SingleCloudClient::update_object(
    const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
    std::vector<std::string>* unreachable) {
  if (offset == 0 && data.size() == m.size) {
    return write_object(m.path, common::Buffer::borrow(data), unreachable);
  }
  return replication_.update_range(session_, m, offset, data, unreachable);
}

dist::RemoveResult SingleCloudClient::remove_object(const meta::FileMeta& m) {
  return replication_.remove(session_, m);
}

}  // namespace hyrd::core
