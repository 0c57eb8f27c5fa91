// DepSkyClient: a simplified DepSky baseline (Bessani et al., EuroSys'11)
// — the fourth related system in the paper's Table I.
//
// DepSky replicates data on every cloud and uses Byzantine quorums: with
// n = 4 clouds and f = 1 tolerated faults, a write completes when
// n - f = 3 clouds acknowledge, and a read is served from any verified
// replica. We model the quorum-latency semantics (a write costs the
// 3rd-fastest acknowledgment, not the slowest) and full 4x replication's
// storage bill; the cryptographic machinery (signatures, secret sharing)
// is out of scope — Table I's axes are redundancy, recovery, performance
// and cost, all of which this model reproduces.
#pragma once

#include "core/storage_client.h"
#include "dist/erasure_scheme.h"
#include "dist/recovery.h"
#include "dist/replication.h"
#include "gcsapi/async_batch.h"

namespace hyrd::core {

class DepSkyClient final : public StorageClientBase {
 public:
  explicit DepSkyClient(gcs::MultiCloudSession& session,
                        std::size_t faults_tolerated = 1,
                        std::string data_container = "depsky-data");

  [[nodiscard]] std::string name() const override { return "DepSky"; }
  [[nodiscard]] std::size_t quorum() const { return quorum_; }

 protected:
  /// Quorum write of a full replica to every cloud.
  dist::WriteResult write_object(
      const std::string& path, common::Buffer data,
      std::vector<std::string>* unreachable) override;
  dist::ReadResult read_object(const meta::FileMeta& m) override;
  /// A whole-file overwrite is a write; a partial one a quorum block write.
  dist::WriteResult update_object(
      const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
      std::vector<std::string>* unreachable) override;
  dist::RemoveResult remove_object(const meta::FileMeta& m) override;

 private:
  /// Awaits `batch` (one put per entry of `providers`) at the quorum-th
  /// acknowledgment. Every put still runs to completion; the providers
  /// whose put failed go to `unreachable`. Missing quorum fails the write,
  /// charged the time the client waited for the failures.
  dist::WriteResult await_quorum(gcs::AsyncBatch& batch,
                                 const std::vector<std::string>& providers,
                                 std::vector<std::string>* unreachable) const;

  std::size_t quorum_;
  dist::ReplicationScheme replication_;  // read path + RecoveryManager
  dist::ErasureScheme erasure_;          // RecoveryManager wiring only
  std::vector<std::size_t> all_targets_;
};

}  // namespace hyrd::core
