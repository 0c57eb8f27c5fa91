// A forwarding StorageClient for the traced run: it wraps the real client,
// times each public put / get / stat call with a steady clock (PUT and GET
// durations are kept per call), and records the CRC32C of every PUT payload
// for the read-back oracle. It adds no instrumentation to the library; the
// wrapped client is unchanged.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "core/storage_client.h"
#include "harness/alloc_counter.h"

namespace perfbench {

class TracingClient final : public hyrd::core::StorageClient {
 public:
  struct PutRecord {
    std::string path;
    std::uint32_t crc = 0;
    std::uint64_t size = 0;
    bool acked = false;
  };

  explicit TracingClient(hyrd::core::StorageClient& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::optional<hyrd::meta::FileMeta> stat(
      const std::string& path) const override {
    const Clock::time_point t0 = Clock::now();
    auto result = inner_.stat(path);
    client_ns_ += ns(Clock::now() - t0);
    return result;
  }

  [[nodiscard]] std::vector<std::string> list() const override {
    return inner_.list();
  }

  hyrd::common::SimDuration on_provider_restored(
      const std::string& provider) override {
    return inner_.on_provider_restored(provider);
  }

  /// Every PUT in call order, acknowledged or not.
  [[nodiscard]] const std::vector<PutRecord>& puts() const { return puts_; }
  [[nodiscard]] const std::vector<double>& put_us() const { return put_us_; }
  [[nodiscard]] const std::vector<double>& get_us() const { return get_us_; }
  /// Wall time spent inside this wrapper: the forwarded calls plus the
  /// recording around them.
  [[nodiscard]] double client_seconds() const {
    return static_cast<double>(client_ns_) * 1e-9;
  }
  [[nodiscard]] std::uint64_t put_bytes() const { return put_bytes_; }

 protected:
  hyrd::dist::WriteResult do_put(const std::string& path,
                                 hyrd::common::Buffer data) override {
    const Clock::time_point t0 = Clock::now();
    PutRecord record;
    {
      const AllocPause pause;
      record.path = path;
      record.size = data.size();
      record.crc = hyrd::common::crc32c(data.span());
    }
    const Clock::time_point t1 = Clock::now();
    auto result = inner_.put(path, std::move(data));
    const Clock::time_point t2 = Clock::now();
    const AllocPause pause;
    put_us_.push_back(us(t2 - t1));
    record.acked = result.status.is_ok();
    put_bytes_ += record.size;
    puts_.push_back(std::move(record));
    client_ns_ += ns(Clock::now() - t0);
    return result;
  }

  hyrd::dist::ReadResult do_get(const std::string& path) override {
    const Clock::time_point t0 = Clock::now();
    auto result = inner_.get(path);
    const Clock::time_point t1 = Clock::now();
    const AllocPause pause;
    get_us_.push_back(us(t1 - t0));
    client_ns_ += ns(Clock::now() - t0);
    return result;
  }

  // Tenants never update or remove; forwarded untimed.
  hyrd::dist::WriteResult do_update(const std::string& path,
                                    std::uint64_t offset,
                                    hyrd::common::ByteSpan data) override {
    return inner_.update(path, offset, data);
  }
  hyrd::dist::RemoveResult do_remove(const std::string& path) override {
    return inner_.remove(path);
  }

 private:
  using Clock = std::chrono::steady_clock;
  static double us(Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  }
  static std::uint64_t ns(Clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  }

  hyrd::core::StorageClient& inner_;
  std::vector<PutRecord> puts_;
  std::vector<double> put_us_;
  std::vector<double> get_us_;
  mutable std::uint64_t client_ns_ = 0;
  std::uint64_t put_bytes_ = 0;
};

}  // namespace perfbench
