// RACSClient: the RACS baseline (Abu-Libdeh et al., SoCC'10) — RAID-like
// erasure striping of *all* data, regardless of size or type, across every
// provider. Parity placement rotates per object (classic RAID5), derived
// deterministically from the path hash so overwrites reuse their slots.
//
// This is the scheme the paper's §II-B critiques: small updates pay the
// read-modify-write penalty, and reading metadata or a small file during
// an outage touches every surviving provider to reconstruct.
#pragma once

#include "core/storage_client.h"
#include "dist/erasure_scheme.h"
#include "dist/recovery.h"
#include "dist/replication.h"
#include "erasure/striper.h"

namespace hyrd::core {

class RACSClient final : public StorageClientBase {
 public:
  explicit RACSClient(gcs::MultiCloudSession& session,
                      erasure::StripeGeometry geometry = {.k = 3, .m = 1},
                      std::string data_container = "racs-data");

  [[nodiscard]] std::string name() const override { return "RACS"; }

  [[nodiscard]] const erasure::StripeGeometry& geometry() const {
    return erasure_.geometry();
  }

  /// Erasure read strategy (see gcsapi/async_batch.h); the default reads
  /// the preferred k fragments.
  void set_read_strategy(dist::ErasureReadStrategy s) {
    erasure_.set_read_strategy(s);
  }

 protected:
  /// Stripes one object (data or metadata block); an overwrite reuses the
  /// previous placement so fragments stay put.
  dist::WriteResult write_object(
      const std::string& path, common::Buffer data,
      std::vector<std::string>* unreachable) override;
  dist::ReadResult read_object(const meta::FileMeta& m) override;
  /// Every update, whole-file ones included, is the stripe's
  /// read-modify-write.
  dist::WriteResult update_object(
      const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
      std::vector<std::string>* unreachable) override;
  dist::RemoveResult remove_object(const meta::FileMeta& m) override;

 private:
  /// Slot assignment for one object: rotation start = hash(path) mod n.
  [[nodiscard]] std::vector<std::size_t> slots_for(const std::string& path) const;

  dist::ErasureScheme erasure_;
  dist::ReplicationScheme replication_;  // only for RecoveryManager wiring
};

}  // namespace hyrd::core
