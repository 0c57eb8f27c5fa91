// Golden per-scheme pin: one fixed script of puts, updates, gets, removes,
// an outage and its resync runs against each of the six clients, and
// everything observable is folded into one 64-bit digest per scheme —
// per-op status, virtual latency, degraded flag and payload CRC, the
// serialized metadata directories and update log (before and after the
// resync), every provider's counters, object count and bill, and the
// client's own stats. The literals below pin today's behaviour, so a
// refactor of the client pipeline that shifts any of it fails here with
// the per-step trace.
//
// The script runs under a common::VirtualScope whose `now` advances by
// each op's latency: every AsyncBatch then runs its ops inline on this
// thread, so the digest never depends on thread timing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "cloud/profiles.h"
#include "common/checksum.h"
#include "common/virtual_time.h"
#include "core/depsky_client.h"
#include "core/duracloud_client.h"
#include "core/hyrd_client.h"
#include "core/nccloud_client.h"
#include "core/racs_client.h"
#include "core/single_client.h"

namespace hyrd {
namespace {

constexpr std::uint64_t kFleetSeed = 2015;
constexpr std::uint64_t kTenant = 7;

struct GoldenCase {
  const char* name;
  std::function<std::unique_ptr<core::StorageClientBase>(
      gcs::MultiCloudSession&)>
      make;
  std::uint64_t digest;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

/// FNV-1a over everything folded in, in order.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void buf(common::ByteSpan data) {
    u64(data.size());
    bytes(data.data(), data.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

class Script {
 public:
  Script(cloud::CloudRegistry& registry, core::StorageClientBase& client)
      : registry_(registry), client_(client) {}

  /// Runs `fn` at the script's virtual instant.
  template <typename Fn>
  auto at_now(Fn&& fn) {
    const common::VirtualScope scope(
        common::VirtualContext{.now = now_, .tenant = kTenant, .weight = 1.0});
    return fn();
  }

  void put(const std::string& path, std::size_t size, std::uint64_t seed) {
    auto r = at_now([&] { return client_.put(path, common::patterned(size, seed)); });
    record("put " + path, r.status, r.latency, false, 0);
  }
  void update(const std::string& path, std::uint64_t offset, std::size_t size,
              std::uint64_t seed) {
    auto r = at_now([&] {
      return client_.update(path, offset, common::patterned(size, seed));
    });
    record("update " + path, r.status, r.latency, false, 0);
  }
  void get(const std::string& path) {
    auto r = at_now([&] { return client_.get(path); });
    record("get " + path, r.status, r.latency, r.degraded,
           r.status.is_ok() ? common::crc32c(r.data) : 0);
  }
  void remove(const std::string& path) {
    auto r = at_now([&] { return client_.remove(path); });
    record("remove " + path, r.status, r.latency, false, 0);
  }
  void restore(const std::string& provider) {
    registry_.find(provider)->set_online(true);
    const auto latency =
        at_now([&] { return client_.on_provider_restored(provider); });
    record("restore " + provider, common::Status::ok(), latency, false, 0);
  }

  /// Metadata directories (user and synthetic) and the update log.
  void fold_client_state(const std::string& label) {
    std::set<std::string> dirs;
    for (const auto& path : client_.metadata().all_paths()) {
      dirs.insert(meta::split_path(path).first);
    }
    for (const auto& dir : dirs) {
      digest_.str(dir);
      digest_.buf(client_.metadata().serialize_directory(dir));
    }
    digest_.buf(client_.update_log().serialize());
    trace_ << label << ": dirs=" << dirs.size()
           << " log=" << client_.update_log().serialize().size()
           << " digest=" << std::hex << digest_.value() << std::dec << "\n";
  }

  void fold_fleet_and_stats() {
    for (const auto& p : registry_.all()) {
      const auto c = p->counters();
      for (std::uint64_t v :
           {c.lists, c.gets, c.creates, c.puts, c.removes, c.bytes_read,
            c.bytes_written, c.rejected_unavailable, c.cancelled,
            c.throttled}) {
        digest_.u64(v);
      }
      digest_.u64(p->object_count());
      digest_.u64(p->stored_bytes());
      digest_.f64(p->billing().open_month_transfer_cost());
      trace_ << p->name() << ": ops=" << c.total_ops()
             << " objects=" << p->object_count()
             << " stored=" << p->stored_bytes() << "\n";
    }
    const auto s = client_.stats_snapshot();
    for (const auto* stat : {&s.put_ms, &s.get_ms, &s.update_ms, &s.remove_ms}) {
      digest_.u64(stat->count());
      digest_.f64(stat->sum());
    }
    digest_.u64(s.degraded_reads);
    digest_.u64(s.failed_ops);
    trace_ << "stats: puts=" << s.put_ms.count() << " gets=" << s.get_ms.count()
           << " updates=" << s.update_ms.count()
           << " removes=" << s.remove_ms.count()
           << " degraded=" << s.degraded_reads << " failed=" << s.failed_ops
           << " digest=" << std::hex << digest_.value() << std::dec << "\n";
  }

  [[nodiscard]] std::uint64_t digest() const { return digest_.value(); }
  [[nodiscard]] std::string trace() const { return trace_.str(); }

 private:
  void record(const std::string& step, const common::Status& status,
              common::SimDuration latency, bool degraded, std::uint32_t crc) {
    now_ += latency;
    digest_.u64(static_cast<std::uint64_t>(status.code()));
    digest_.u64(static_cast<std::uint64_t>(latency));
    digest_.u64(degraded ? 1 : 0);
    digest_.u64(crc);
    trace_ << step << ": code=" << static_cast<int>(status.code())
           << " latency=" << latency << " degraded=" << degraded
           << " crc=" << std::hex << crc << " digest=" << digest_.value()
           << std::dec << "\n";
  }

  cloud::CloudRegistry& registry_;
  core::StorageClientBase& client_;
  common::SimDuration now_ = 0;
  Digest digest_;
  std::ostringstream trace_;
};

class SchemeGolden : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(SchemeGolden, ScriptDigestIsPinned) {
  cloud::CloudRegistry registry;
  cloud::install_standard_four(registry, kFleetSeed);
  gcs::MultiCloudSession session(registry);
  std::unique_ptr<core::StorageClientBase> client;
  {
    // HyRD's evaluator probes run at construction; keep them inline too.
    const common::VirtualScope scope(
        common::VirtualContext{.now = 0, .tenant = kTenant, .weight = 1.0});
    client = GetParam().make(session);
  }
  Script s(registry, *client);

  // Small and large files in two directories.
  s.put("/a/s1", 4 << 10, 1);
  s.put("/a/s2", 64 << 10, 2);
  s.put("/a/big1", 3 << 20, 3);
  s.put("/b/s3", 10 << 10, 4);
  s.put("/b/big2", 2 << 20, 5);
  // Whole-file update, then partial updates of a small and a large file.
  s.update("/a/s1", 0, 4 << 10, 6);
  s.update("/b/s3", 100, 200, 7);
  s.update("/a/big1", 1000, 500, 8);
  for (const char* p : {"/a/s1", "/a/s2", "/a/big1", "/b/s3", "/b/big2"}) {
    s.get(p);
  }

  // One provider offline during a put, an update, a remove and reads.
  registry.find("Aliyun")->set_online(false);
  s.put("/b/s4", 8 << 10, 9);
  s.update("/a/s2", 10, 100, 10);
  s.remove("/b/big2");
  s.get("/a/big1");
  s.get("/a/s2");
  s.get("/b/missing");
  s.fold_client_state("before resync");

  s.restore("Aliyun");
  s.fold_client_state("after resync");
  for (const char* p : {"/a/s1", "/a/s2", "/a/big1", "/b/s3", "/b/s4", "/b/big2"}) {
    s.get(p);
  }
  s.fold_fleet_and_stats();

  EXPECT_EQ(s.digest(), GetParam().digest)
      << std::hex << "0x" << s.digest() << std::dec << "\n"
      << s.trace();
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeGolden,
    ::testing::Values(
        GoldenCase{"HyRD",
                   [](gcs::MultiCloudSession& s) {
                     return std::make_unique<core::HyRDClient>(s);
                   },
                   0x80bcdc8d64180568ULL},
        GoldenCase{"RACS",
                   [](gcs::MultiCloudSession& s) {
                     return std::make_unique<core::RACSClient>(s);
                   },
                   0xc8868e66dd7aff2cULL},
        GoldenCase{"DuraCloud",
                   [](gcs::MultiCloudSession& s) {
                     return std::make_unique<core::DuraCloudClient>(s);
                   },
                   0x7237adca9d12c51dULL},
        GoldenCase{"DepSky",
                   [](gcs::MultiCloudSession& s) {
                     return std::make_unique<core::DepSkyClient>(s);
                   },
                   0x2daca40a7d9346c8ULL},
        GoldenCase{"NCCloud",
                   [](gcs::MultiCloudSession& s) {
                     return std::make_unique<core::NCCloudClient>(s);
                   },
                   0xae4c3d003dface52ULL},
        GoldenCase{"Single",
                   [](gcs::MultiCloudSession& s) {
                     return std::make_unique<core::SingleCloudClient>(
                         s, "Aliyun");
                   },
                   0x8116da3ee43981d1ULL}),
    [](const auto& param_info) { return std::string(param_info.param.name); });

}  // namespace
}  // namespace hyrd
