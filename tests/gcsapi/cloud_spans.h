// Test helper: the per-op spans CloudClient emits under an obs::TraceScope
// (category "cloud", one per op, carrying its attempt count, status, bytes
// and backoff). The fair queue's "throttle429" spans share the category
// but carry no "attempts" arg, so they are skipped.
#pragma once

#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace hyrd::gcs {

/// Value of `key` in the span's args, or -1 when absent.
inline long long span_arg(const obs::TraceSpan& span, std::string_view key) {
  for (std::uint32_t i = 0; i < span.arg_count; ++i) {
    if (key == span.args[i].key) return span.args[i].value;
  }
  return -1;
}

inline std::vector<obs::TraceSpan> client_op_spans(
    const obs::TraceRecorder& recorder) {
  std::vector<obs::TraceSpan> ops;
  for (auto& span : recorder.spans()) {
    if (std::string_view(span.cat) == "cloud" &&
        span_arg(span, "attempts") >= 0) {
      ops.push_back(std::move(span));
    }
  }
  return ops;
}

}  // namespace hyrd::gcs
