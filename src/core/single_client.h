// SingleCloudClient: everything on one provider, no redundancy — the
// baseline Fig. 6 normalizes against (Amazon S3) and the configuration
// whose outage behaviour motivates the whole paper: when the provider is
// down, the service is simply unavailable.
#pragma once

#include "core/storage_client.h"
#include "dist/replication.h"

namespace hyrd::core {

class SingleCloudClient final : public StorageClientBase {
 public:
  SingleCloudClient(gcs::MultiCloudSession& session, std::string provider,
                    std::string data_container = "single-data");

  [[nodiscard]] std::string name() const override {
    return "Single(" + provider_ + ")";
  }
  [[nodiscard]] const std::string& provider() const { return provider_; }

  /// With a single copy there is nothing to resync from: writes during
  /// the outage failed outright, and no update log is kept.
  common::SimDuration on_provider_restored(
      const std::string& provider) override {
    (void)provider;
    return 0;
  }

 protected:
  dist::WriteResult write_object(
      const std::string& path, common::Buffer data,
      std::vector<std::string>* unreachable) override;
  dist::ReadResult read_object(const meta::FileMeta& m) override;
  dist::WriteResult update_object(
      const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
      std::vector<std::string>* unreachable) override;
  dist::RemoveResult remove_object(const meta::FileMeta& m) override;

  /// No update log: a remove that missed the provider is not replayed.
  void log_unreachable(const std::vector<std::string>& providers,
                       const meta::FileMeta& m,
                       meta::LogAction action) override {
    (void)providers;
    (void)m;
    (void)action;
  }

 private:
  std::string provider_;
  dist::ReplicationScheme replication_;  // degenerate level-1 replication
  std::vector<std::size_t> target_;
};

}  // namespace hyrd::core
