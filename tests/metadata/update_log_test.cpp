#include "metadata/update_log.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <unordered_map>
#include <vector>

#include "metadata/keyspace.h"

namespace hyrd::meta {
namespace {

TEST(UpdateLog, AppendAssignsIncreasingSeq) {
  UpdateLog log;
  const auto s1 = log.append("P", "c", "/a", "o1", LogAction::kPut);
  const auto s2 = log.append("P", "c", "/b", "o2", LogAction::kPut);
  EXPECT_LT(s1, s2);
  EXPECT_EQ(log.size(), 2u);
}

TEST(UpdateLog, PendingFiltersByProvider) {
  UpdateLog log;
  log.append("P1", "c", "/a", "o1", LogAction::kPut);
  log.append("P2", "c", "/b", "o2", LogAction::kPut);
  const auto pending = log.pending_for("P1");
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].path, "/a");
  EXPECT_EQ(pending[0].container, "c");
}

TEST(UpdateLog, PendingCompactsPerObject) {
  UpdateLog log;
  log.append("P", "c", "/a", "obj", LogAction::kPut);
  log.append("P", "c", "/a", "obj", LogAction::kPut);
  log.append("P", "c", "/a", "obj", LogAction::kRemove);
  const auto pending = log.pending_for("P");
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].action, LogAction::kRemove);  // last wins
}

TEST(UpdateLog, PendingOrderedBySeq) {
  UpdateLog log;
  log.append("P", "c", "/z", "oz", LogAction::kPut);
  log.append("P", "c", "/a", "oa", LogAction::kPut);
  const auto pending = log.pending_for("P");
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_LT(pending[0].seq, pending[1].seq);
  EXPECT_EQ(pending[0].path, "/z");
}

TEST(UpdateLog, TruncateDropsOnlyThatProviderPrefix) {
  UpdateLog log;
  const auto s1 = log.append("P1", "c", "/a", "o1", LogAction::kPut);
  log.append("P2", "c", "/b", "o2", LogAction::kPut);
  const auto s3 = log.append("P1", "c", "/c", "o3", LogAction::kPut);
  log.truncate("P1", s1);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.pending_for("P1").size(), 1u);
  log.truncate("P1", s3);
  EXPECT_TRUE(log.pending_for("P1").empty());
  EXPECT_EQ(log.pending_for("P2").size(), 1u);
}

TEST(UpdateLog, SerializeRestoreRoundTrip) {
  UpdateLog log;
  log.append("P1", "data", "/a", "o1", LogAction::kPut);
  log.append("P2", "meta", "//meta//d", "md1", LogAction::kRemove);
  const auto snapshot = log.serialize();

  UpdateLog restored;
  ASSERT_TRUE(restored.restore(snapshot).is_ok());
  EXPECT_EQ(restored.size(), 2u);
  const auto p2 = restored.pending_for("P2");
  ASSERT_EQ(p2.size(), 1u);
  EXPECT_EQ(p2[0].action, LogAction::kRemove);
  EXPECT_EQ(p2[0].container, "meta");

  // Sequence numbering continues after restore.
  const auto next = restored.append("P3", "c", "/x", "o", LogAction::kPut);
  EXPECT_GT(next, p2[0].seq);
}

TEST(UpdateLog, RestoreRejectsGarbage) {
  UpdateLog log;
  EXPECT_FALSE(log.restore(common::bytes_of("nonsense")).is_ok());
  EXPECT_FALSE(log.restore({}).is_ok());
}

TEST(UpdateLog, EmptyLogBehaviour) {
  UpdateLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_TRUE(log.pending_for("P").empty());
  log.truncate("P", 100);  // no-op
  const auto snapshot = log.serialize();
  UpdateLog restored;
  EXPECT_TRUE(restored.restore(snapshot).is_ok());
  EXPECT_TRUE(restored.empty());
}

// --- UpdateLogIndex: the per-provider/per-shard record indexes ------------

const std::vector<std::string>& six_providers() {
  static const std::vector<std::string> p = {"AmazonS3",  "WindowsAzure",
                                             "Aliyun",    "Rackspace",
                                             "GoogleGCS", "BackblazeB2"};
  return p;
}

/// Fills a log with `n` records round-robined over six providers, where a
/// bounded hot set of objects keeps getting re-logged (a long outage's
/// shape). Also appends into `mirror` when given (the scan baseline).
void fill_outage_log(UpdateLog& log, std::size_t n,
                     std::vector<LogRecord>* mirror = nullptr) {
  const auto& providers = six_providers();
  const std::size_t hot = n / 50 + 1;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t object = (state >> 33) % hot;
    LogRecord rec;
    rec.provider = providers[i % providers.size()];
    rec.container = "hyrd-data";
    rec.path = "d" + std::to_string(object % 7) + "/o" + std::to_string(object);
    rec.object_name = "o" + std::to_string(object);
    rec.action = LogAction::kPut;
    rec.seq = log.append(rec.provider, rec.container, rec.path,
                         rec.object_name, rec.action);
    if (mirror != nullptr) mirror->push_back(rec);
  }
}

/// The pre-index pending_for: scan the whole log, compact per object.
std::vector<LogRecord> scan_pending(const std::vector<LogRecord>& records,
                                    const std::string& provider) {
  std::unordered_map<std::string, std::size_t> latest;
  std::vector<LogRecord> out;
  for (const auto& rec : records) {
    if (rec.provider != provider) continue;
    auto [it, fresh] = latest.try_emplace(rec.object_name, out.size());
    if (fresh) {
      out.push_back(rec);
    } else {
      out[it->second] = rec;
    }
  }
  return out;
}

TEST(UpdateLogIndex, PendingForIsIndexedNotQuadraticOn100kRecords) {
  // Regression gate for the pre-index quadratic behavior: querying every
  // provider against a 10^5-record log must not rescan the whole log per
  // call. The wall-clock ratio bound is deliberately conservative (the
  // bench pins >= 10x on a quiet machine; sanitizer lanes run this test
  // too), and the results must agree with the scan oracle exactly.
  constexpr std::size_t kRecords = 100'000;
  UpdateLog log;
  std::vector<LogRecord> raw;
  fill_outage_log(log, kRecords, &raw);

  using Clock = std::chrono::steady_clock;
  double indexed_s = 0.0, scan_s = 0.0;
  for (const auto& provider : six_providers()) {
    const auto t0 = Clock::now();
    const auto pending = log.pending_for(provider);
    const auto t1 = Clock::now();
    const auto oracle = scan_pending(raw, provider);
    const auto t2 = Clock::now();
    indexed_s += std::chrono::duration<double>(t1 - t0).count();
    scan_s += std::chrono::duration<double>(t2 - t1).count();

    ASSERT_EQ(pending.size(), oracle.size()) << provider;
    std::unordered_map<std::string, std::uint64_t> oracle_seq;
    for (const auto& rec : oracle) oracle_seq[rec.object_name] = rec.seq;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      EXPECT_EQ(pending[i].seq, oracle_seq.at(pending[i].object_name));
      if (i > 0) {
        EXPECT_LT(pending[i - 1].seq, pending[i].seq);
      }
    }
  }
  EXPECT_GT(scan_s / indexed_s, 3.0)
      << "indexed " << indexed_s * 1e3 << " ms vs scan " << scan_s * 1e3
      << " ms";
}

TEST(UpdateLogIndex, TruncateLeavesOtherProvidersByteIdentical) {
  UpdateLog log;
  fill_outage_log(log, 3000);
  // Snapshot the other providers' pending sets, truncate one provider
  // completely, and require the rest unchanged record-for-record.
  const std::string victim = six_providers()[0];
  std::vector<std::vector<LogRecord>> before;
  for (std::size_t i = 1; i < six_providers().size(); ++i) {
    before.push_back(log.pending_for(six_providers()[i]));
  }
  const auto victim_pending = log.pending_for(victim);
  ASSERT_FALSE(victim_pending.empty());
  log.truncate(victim, victim_pending.back().seq);
  EXPECT_TRUE(log.pending_for(victim).empty());
  for (std::size_t i = 1; i < six_providers().size(); ++i) {
    const auto after = log.pending_for(six_providers()[i]);
    ASSERT_EQ(after.size(), before[i - 1].size());
    for (std::size_t r = 0; r < after.size(); ++r) {
      EXPECT_EQ(after[r].seq, before[i - 1][r].seq);
      EXPECT_EQ(after[r].object_name, before[i - 1][r].object_name);
    }
  }
}

TEST(UpdateLogIndex, SerializeIsByteStableForUnchangedLogicalLog) {
  UpdateLog log;
  fill_outage_log(log, 2000);
  const auto snapshot = log.serialize();

  // Read-side traffic must not perturb the serialized form.
  for (const auto& p : six_providers()) (void)log.pending_for(p);
  (void)log.pending_for_shard(six_providers()[0], 0);
  log.truncate(six_providers()[0], 0);  // logical no-op: seq 0 drops nothing
  EXPECT_EQ(log.serialize(), snapshot);

  // A restore of the snapshot re-serializes byte-identically.
  UpdateLog restored;
  ASSERT_TRUE(restored.restore(snapshot).is_ok());
  EXPECT_EQ(restored.serialize(), snapshot);

  // Binding a keyspace changes routing metadata only, never the bytes.
  const Keyspace ks(16);
  restored.bind_keyspace(&ks);
  EXPECT_EQ(restored.serialize(), snapshot);
}

TEST(UpdateLogIndex, WatermarkCompactionDropsShadowedRecords) {
  UpdateLog log;
  log.set_compaction_watermark(8);
  for (int i = 0; i < 32; ++i) {
    log.append("P", "c", "/a", "hot", LogAction::kPut);
  }
  EXPECT_GT(log.compactions(), 0u);
  // Shadowed records past the watermark are gone from the logical log;
  // only the latest survives, and pending still answers correctly.
  EXPECT_LT(log.size(), 32u);
  const auto pending = log.pending_for("P");
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].seq, 32u);
}

TEST(UpdateLogIndex, RestoreRebuildsProviderAndShardIndexes) {
  const Keyspace ks(16);
  UpdateLog log;
  log.bind_keyspace(&ks);
  fill_outage_log(log, 2000);
  const auto snapshot = log.serialize();

  UpdateLog restored;
  restored.bind_keyspace(&ks);
  ASSERT_TRUE(restored.restore(snapshot).is_ok());
  for (const auto& provider : six_providers()) {
    const auto want = log.pending_for(provider);
    const auto got = restored.pending_for(provider);
    ASSERT_EQ(got.size(), want.size()) << provider;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].seq, want[i].seq);
    }
    for (std::size_t shard = 0; shard < ks.shard_count(); ++shard) {
      EXPECT_EQ(restored.pending_for_shard(provider, shard).size(),
                log.pending_for_shard(provider, shard).size());
    }
  }
}

TEST(UpdateLogIndex, PendingForShardPartitionsThePendingSet) {
  const Keyspace ks(4);
  UpdateLog log;
  log.bind_keyspace(&ks);
  fill_outage_log(log, 1500);

  for (const auto& provider : six_providers()) {
    const auto all = log.pending_for(provider);
    std::vector<LogRecord> unioned;
    for (std::size_t shard = 0; shard < ks.shard_count(); ++shard) {
      for (const auto& rec : log.pending_for_shard(provider, shard)) {
        EXPECT_EQ(ks.shard_of_path(rec.path), shard);
        unioned.push_back(rec);
      }
    }
    ASSERT_EQ(unioned.size(), all.size()) << provider;
  }

  // Unbound logs put everything in shard 0.
  UpdateLog unbound;
  fill_outage_log(unbound, 300);
  const auto& p0 = six_providers()[0];
  EXPECT_EQ(unbound.pending_for_shard(p0, 0).size(),
            unbound.pending_for(p0).size());
  EXPECT_TRUE(unbound.pending_for_shard(p0, 1).empty());
}

}  // namespace
}  // namespace hyrd::meta
