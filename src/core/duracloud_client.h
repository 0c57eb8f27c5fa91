// DuraCloudClient: the DuraCloud baseline — full replication of every
// object (any size, plus metadata blocks) across a fixed pair of
// providers, kept synchronized. Simple and outage-proof, but it doubles
// storage and bandwidth for large files, which is exactly the cost the
// paper's Fig. 4 shows dominating.
#pragma once

#include "core/storage_client.h"
#include "dist/erasure_scheme.h"
#include "dist/recovery.h"
#include "dist/replication.h"

namespace hyrd::core {

class DuraCloudClient final : public StorageClientBase {
 public:
  /// `providers` is the replication pair (or more). Defaults to the two
  /// performance-oriented providers of the standard fleet.
  explicit DuraCloudClient(
      gcs::MultiCloudSession& session,
      std::vector<std::string> providers = {"WindowsAzure", "Aliyun"},
      std::string data_container = "duracloud-data");

  [[nodiscard]] std::string name() const override { return "DuraCloud"; }

  [[nodiscard]] const std::vector<std::size_t>& replica_targets() const {
    return targets_;
  }

  /// Hedged replica reads (see gcsapi/async_batch.h); on by default.
  void set_hedge(dist::HedgePolicy p) { replication_.set_hedge(p); }

 protected:
  dist::WriteResult write_object(
      const std::string& path, common::Buffer data,
      std::vector<std::string>* unreachable) override;
  dist::ReadResult read_object(const meta::FileMeta& m) override;
  dist::WriteResult update_object(
      const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
      std::vector<std::string>* unreachable) override;
  dist::RemoveResult remove_object(const meta::FileMeta& m) override;

 private:
  dist::ReplicationScheme replication_;
  dist::ErasureScheme erasure_;  // unused; RecoveryManager wiring only
  std::vector<std::size_t> targets_;
};

}  // namespace hyrd::core
