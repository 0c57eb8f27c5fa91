// StorageClient: the uniform client-facing API every evaluated scheme
// implements — HyRD and the three baselines (RACS, DuraCloud, single
// cloud). Benchmarks drive all schemes through this interface so their
// latency/cost numbers are directly comparable.
//
// Every public operation is a non-virtual interface (NVI) over the
// scheme's do_* hook. The NVI layer owns two cross-cutting concerns:
//  * same-path write ordering (striped path_write_mu, see below), and
//  * the optional client cache (cache::ClientCache): small replicated
//    PUTs are absorbed into a bounded write-back FIFO and flushed in
//    group-commit batches; GETs consult the dirty set and a segmented-LRU
//    read cache before touching a provider. Disabled (the default) the
//    NVI paths collapse to the pre-cache behavior exactly.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cache/client_cache.h"
#include "common/checksum.h"

#include "common/stats.h"
#include "dist/recovery.h"
#include "dist/scheme.h"
#include "gcsapi/session.h"
#include "metadata/metadata_store.h"
#include "metadata/update_log.h"

namespace hyrd::core {

/// Per-client operation statistics (virtual milliseconds).
struct ClientStats {
  common::RunningStat put_ms;
  common::RunningStat get_ms;
  common::RunningStat update_ms;
  common::RunningStat remove_ms;
  std::uint64_t degraded_reads = 0;
  std::uint64_t failed_ops = 0;

  [[nodiscard]] double mean_op_ms() const {
    const double n = static_cast<double>(put_ms.count() + get_ms.count() +
                                         update_ms.count() + remove_ms.count());
    if (n == 0) return 0.0;
    return (put_ms.sum() + get_ms.sum() + update_ms.sum() + remove_ms.sum()) / n;
  }
};

class StorageClient {
 public:
  virtual ~StorageClient() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Writes (or overwrites) the file at `path`. The Buffer overload is the
  /// zero-copy entry point: the payload travels by reference all the way to
  /// the stores (schemes slice it, they never duplicate it). The ByteSpan
  /// overload borrows the caller's memory for the (synchronous) call.
  /// With the write-back cache active, small writes are absorbed (latency
  /// = 0 unless this write trips a watermark, in which case the group
  /// flush is charged to it — the lazy-fsync stall).
  dist::WriteResult put(const std::string& path, common::Buffer data);
  dist::WriteResult put(const std::string& path, common::ByteSpan data) {
    return put(path, common::Buffer::borrow(data));
  }

  /// Reads the whole file. Dirty (unflushed) paths are served from the
  /// cache by default (they are the newest version) or flushed first when
  /// the flush-on-read coherence rule is configured; clean paths consult
  /// the read cache before the remote scheme.
  dist::ReadResult get(const std::string& path);

  /// In-place update of [offset, offset+data.size()); must not grow the
  /// file. This is the operation whose cost separates replication from
  /// erasure coding (paper §II-B write amplification). A dirty path is
  /// flushed first (updates patch remote state, so the base version must
  /// exist remotely).
  dist::WriteResult update(const std::string& path, std::uint64_t offset,
                           common::ByteSpan data);

  dist::RemoveResult remove(const std::string& path);

  // --- Async-issue path (the continuation seam the discrete-event engine
  // drives; see sim/). The contract is completion-ordered, not
  // thread-ordered: `done` receives the finished result exactly once, and
  // the call itself never blocks on wall-clock waits when issued under a
  // common::VirtualScope — every AsyncBatch the schemes build inside
  // detects the scope and runs its ops inline, so the whole operation is
  // one deterministic state-machine step whose cost is CPU work, not
  // thread round trips. Without a scope these are plain synchronous calls
  // with a callback, so non-sim callers can share code with the engine.
  void put_async(const std::string& path, common::Buffer data,
                 std::function<void(dist::WriteResult)> done) {
    done(put(path, std::move(data)));
  }
  void get_async(const std::string& path,
                 std::function<void(dist::ReadResult)> done) {
    done(get(path));
  }
  void remove_async(const std::string& path,
                    std::function<void(dist::RemoveResult)> done) {
    done(remove(path));
  }

  /// Client-side metadata lookup (served from the in-memory store; the
  /// paper loads metadata blocks into client memory before file access).
  [[nodiscard]] virtual std::optional<meta::FileMeta> stat(
      const std::string& path) const = 0;

  [[nodiscard]] virtual std::vector<std::string> list() const = 0;

  /// Notification that a provider finished an outage and is back online;
  /// schemes with update logs run their consistency update now. Returns
  /// the virtual time the resync took.
  virtual common::SimDuration on_provider_restored(
      const std::string& provider) = 0;

  // --- Client cache control ---

  /// Installs (config.enabled) or removes (!config.enabled) the cache.
  /// Callers must drain (flush_cache) before reconfiguring a live cache;
  /// a dirty entry present at removal is silently dropped.
  void configure_cache(const cache::CacheConfig& config);
  [[nodiscard]] cache::ClientCache* client_cache() { return cache_.get(); }
  [[nodiscard]] const cache::ClientCache* client_cache() const {
    return cache_.get();
  }

  struct CacheDrainReport {
    common::SimDuration latency = 0;   // sum over group-commit rounds
    std::uint64_t flushed_entries = 0;
    std::uint64_t flushed_bytes = 0;
    // Entries that could not be flushed (providers unreachable); they
    // remain dirty — the caller decides to retry later or account them
    // as lost via client_cache()->discard_all_dirty().
    std::uint64_t remaining_entries = 0;
    std::uint64_t remaining_bytes = 0;
  };

  /// Explicit flush/drain: group-commits every dirty entry, one batch at
  /// a time, attempting each entry once. Call before shutdown and before
  /// reading stats that must include all writes.
  CacheDrainReport flush_cache();

  [[nodiscard]] ClientStats stats_snapshot() const;
  void reset_stats();

 protected:
  virtual dist::WriteResult do_put(const std::string& path,
                                   common::Buffer data) = 0;
  virtual dist::ReadResult do_get(const std::string& path) = 0;
  virtual dist::WriteResult do_update(const std::string& path,
                                      std::uint64_t offset,
                                      common::ByteSpan data) = 0;
  virtual dist::RemoveResult do_remove(const std::string& path) = 0;

  /// Writes at or above this size bypass the write-back cache (they are
  /// the scheme's large/erasure traffic). Schemes with a size classifier
  /// override this to keep absorption aligned with classification; the
  /// cache's own max_object_bytes cap applies in addition.
  [[nodiscard]] virtual std::uint64_t write_back_threshold() const {
    return UINT64_MAX;
  }

  /// Read-cache hit notification (data served with zero provider I/O).
  /// `hits` counts lookups since insertion; HyRD drives hot promotion off
  /// it instead of the raw per-path read-count map.
  virtual void on_cache_hit(const std::string& path,
                            const common::Buffer& data, std::uint32_t hits) {
    (void)path;
    (void)data;
    (void)hits;
  }

  /// True when `path` exists remotely (its metadata is known). Lets the
  /// NVI remove() short-circuit removal of a never-flushed object.
  [[nodiscard]] virtual bool has_remote(const std::string& path) const {
    (void)path;
    return true;
  }

  /// Hook for schemes to wire the adaptive-threshold cost model into a
  /// freshly configured cache (see cache::CostModel). Default: none.
  virtual void wire_adaptive(cache::ClientCache& cache) { (void)cache; }

  struct FlushResult {
    common::SimDuration latency = 0;
    std::size_t flushed = 0;
    std::uint64_t flushed_bytes = 0;
    std::vector<cache::DirtyEntry> failed;  // restored to the dirty set
  };

  /// Writes a group of dirty entries out. The caller already holds every
  /// involved path-write stripe. The default issues one do_put per entry
  /// and charges the *slowest* entry's latency: under a VirtualScope all
  /// entries are issued at the same virtual instant, so the batch
  /// overlaps into one round trip — exactly the group-commit model.
  /// Schemes override to batch harder (HyRD: one AsyncBatch for the
  /// whole group per provider, see ReplicationScheme::write_many).
  virtual FlushResult flush_entries(std::vector<cache::DirtyEntry> entries);

  /// Overwrites of one path are serialized end-to-end (fragment writes,
  /// metadata upsert, metadata persist). Without this, two concurrent
  /// writers can land on the scheme's replicas in different orders —
  /// object names are path-derived, not versioned — leaving one replica's
  /// bytes disagreeing with the winning metadata CRC, which a later
  /// degraded read (other replicas offline) surfaces as data loss.
  /// Striped so distinct paths keep their write parallelism. Clients with
  /// a sharded MetadataStore override this to fold the stripes into the
  /// keyspace-routed shard layout (one stripe set per shard), so write
  /// ordering and metadata ownership agree on which shard a path lives in.
  [[nodiscard]] virtual std::mutex& path_write_mu(const std::string& path) {
    return path_write_mu_[common::fnv1a(std::string_view(path)) %
                          kPathWriteLocks];
  }

  void note_put(common::SimDuration latency, bool ok);
  void note_get(common::SimDuration latency, bool ok, bool degraded);
  void note_update(common::SimDuration latency, bool ok);
  void note_remove(common::SimDuration latency, bool ok);

 private:
  [[nodiscard]] bool should_absorb(std::uint64_t size) const;
  dist::WriteResult absorb_put(const std::string& path, common::Buffer data);
  /// Locks the involved stripes in address order, flushes, restores
  /// failures. Returns the flush result.
  FlushResult run_flush_group(std::vector<cache::DirtyEntry> entries,
                              bool forced);
  /// Takes one group from the cache under flush_mu_ and flushes it.
  FlushResult run_flush_group(bool forced);
  /// Coherence flush of a single dirty path (read/update/remove paths).
  common::SimDuration flush_path(const std::string& path);

  static constexpr std::size_t kPathWriteLocks = 64;
  std::array<std::mutex, kPathWriteLocks> path_write_mu_;
  mutable std::mutex stats_mu_;
  ClientStats stats_;
  std::unique_ptr<cache::ClientCache> cache_;
  /// Serializes flush rounds: take-order must equal flush-order so a
  /// path's older incarnation can never land after a newer one.
  std::mutex flush_mu_;
};

/// The client skeleton every scheme shares. It owns the per-operation
/// pipeline — metadata lookup, the scheme's redundancy step, the metadata
/// upsert, update-log records for the providers the step missed, the
/// directory-block persist and the stats — so two schemes differ only in
/// where their redundancy goes (paper §III). A concrete client supplies
/// the redundancy step through the protected hooks below.
class StorageClientBase : public StorageClient {
 public:
  [[nodiscard]] std::optional<meta::FileMeta> stat(
      const std::string& path) const override;
  [[nodiscard]] std::vector<std::string> list() const override;

  [[nodiscard]] const meta::MetadataStore& metadata() const { return store_; }
  [[nodiscard]] const meta::UpdateLog& update_log() const { return log_; }

  /// Replays the update log against the returned provider (RecoveryManager).
  common::SimDuration on_provider_restored(
      const std::string& provider) override;

  /// Synthetic logical path used in the update log for a directory's
  /// metadata block.
  static std::string meta_block_path(const std::string& dir);
  /// Provider-side object name for a directory's metadata block.
  static std::string meta_block_object_name(const std::string& dir);
  /// True if `path` is a synthetic metadata-block path; returns the dir.
  static std::optional<std::string> parse_meta_block_path(
      const std::string& path);

 protected:
  /// `data_container` is where the scheme keeps its objects; update-log
  /// records of missed fragments name it.
  StorageClientBase(gcs::MultiCloudSession& session,
                    std::string data_container)
      : session_(session), container_(std::move(data_container)) {
    log_.bind_keyspace(&store_.keyspace());
  }

  // --- The pipeline, once for every scheme ---

  /// write_object, then on success commit, persist and note_put.
  dist::WriteResult do_put(const std::string& path,
                           common::Buffer data) override;
  /// Lookup, read_object, note_get.
  dist::ReadResult do_get(const std::string& path) override;
  /// Lookup and range check, update_object, then as do_put.
  dist::WriteResult do_update(const std::string& path, std::uint64_t offset,
                              common::ByteSpan data) override;
  /// Lookup, remove_object, kRemove records for the providers it missed,
  /// metadata erase, persist, note_remove.
  dist::RemoveResult do_remove(const std::string& path) override;

  // --- The redundancy step: what each scheme supplies ---

  /// Stores `data` as `path` (no metadata upsert: the skeleton commits).
  /// Providers that missed a fragment go to `unreachable`.
  virtual dist::WriteResult write_object(
      const std::string& path, common::Buffer data,
      std::vector<std::string>* unreachable) = 0;
  /// Reads the object `m` describes. Records no stats.
  virtual dist::ReadResult read_object(const meta::FileMeta& m) = 0;
  /// Overwrites [offset, offset+data.size()) of `m`, already range-checked.
  /// Whether a whole-file overwrite skips the read is the scheme's call.
  virtual dist::WriteResult update_object(
      const meta::FileMeta& m, std::uint64_t offset, common::ByteSpan data,
      std::vector<std::string>* unreachable) = 0;
  /// Deletes the object's fragments; unreachable_providers lists misses.
  virtual dist::RemoveResult remove_object(const meta::FileMeta& m) = 0;

  /// Writes `dir`'s metadata block and returns the time it took. The
  /// default stores it as one more object through write_object, so it gets
  /// the data's redundancy and a recoverable update-log trail.
  virtual common::SimDuration persist_metadata(const std::string& dir);

  /// Appends one `action` record per fragment of `m` held by a provider
  /// in `providers`, replayed when the provider returns.
  virtual void log_unreachable(const std::vector<std::string>& providers,
                               const meta::FileMeta& m,
                               meta::LogAction action);

  /// Versioned metadata upsert plus kPut records for `unreachable`.
  void commit(meta::FileMeta& m, const std::vector<std::string>& unreachable);

  /// Same-path write ordering routed through the store's keyspace: the
  /// stripe lives on the shard that owns the path's directory.
  [[nodiscard]] std::mutex& path_write_mu(const std::string& path) override {
    return store_.write_order_mu(path);
  }

  [[nodiscard]] bool has_remote(const std::string& path) const override {
    return store_.lookup(path).has_value();
  }

  gcs::MultiCloudSession& session_;
  const std::string container_;
  meta::MetadataStore store_;
  meta::UpdateLog log_;
  /// Log replay for on_provider_restored; emplaced by clients whose
  /// schemes it rebuilds from.
  std::optional<dist::RecoveryManager> recovery_;

 private:
  /// The file's metadata, or nullopt with `status` set to not_found.
  std::optional<meta::FileMeta> lookup(const std::string& path,
                                       common::Status& status) const;
  /// write_object followed, on success, by commit.
  dist::WriteResult store_object(const std::string& path, common::Buffer data);
};

}  // namespace hyrd::core
