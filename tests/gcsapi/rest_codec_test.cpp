#include "gcsapi/rest_codec.h"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>
#include <utility>

#include "core/config.h"
#include "core/storage_client.h"
#include "dist/scheme.h"

namespace hyrd::cloud {

// Readable test parameters: gtest would otherwise print these as raw
// object bytes (pointer values included) in every test name.
void PrintTo(OpKind op, std::ostream* os) { *os << op_kind_name(op); }
void PrintTo(const ObjectKey& key, std::ostream* os) {
  *os << key.container << "/" << key.name;
}

}  // namespace hyrd::cloud

namespace hyrd::gcs {
namespace {

// A request with only method and path set (headers and body empty).
RestRequest request(std::string method, std::string path) {
  RestRequest req;
  req.method = std::move(method);
  req.path = std::move(path);
  return req;
}

using cloud::ObjectKey;
using cloud::OpKind;

TEST(RestCodec, EncodePutCarriesBody) {
  const auto req = encode_op(OpKind::kPut, {"c", "obj"},
                             common::bytes_of("payload"));
  EXPECT_EQ(req.method, "PUT");
  EXPECT_EQ(req.path, "/c/obj");
  EXPECT_EQ(common::to_string(req.body), "payload");
  EXPECT_EQ(req.headers.at("Content-Length"), "7");
}

TEST(RestCodec, EncodeMappings) {
  EXPECT_EQ(encode_op(OpKind::kCreate, {"c", ""}, {}).method, "PUT");
  EXPECT_EQ(encode_op(OpKind::kCreate, {"c", ""}, {}).path, "/c");
  EXPECT_EQ(encode_op(OpKind::kGet, {"c", "o"}, {}).method, "GET");
  EXPECT_EQ(encode_op(OpKind::kRemove, {"c", "o"}, {}).method, "DELETE");
  EXPECT_EQ(encode_op(OpKind::kList, {"c", ""}, {}).path, "/c?list");
}

class CodecRoundTripTest
    : public ::testing::TestWithParam<std::tuple<OpKind, ObjectKey>> {};

TEST_P(CodecRoundTripTest, EncodeSerializeParseDecode) {
  const auto [op, key] = GetParam();
  const common::Bytes body =
      op == OpKind::kPut ? common::patterned(100, 5) : common::Bytes{};
  const RestRequest encoded = encode_op(op, key, body);
  const common::Bytes wire = serialize(encoded);
  auto parsed = parse_request(wire);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value(), encoded);
  auto decoded = decode_op(parsed.value());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().op, op);
  EXPECT_EQ(decoded.value().key, key);
}

// Op name plus the key with every non-alphanumeric character mapped to
// '_', e.g. "Put_hyrd_data_0123456789abcdef_r0".
std::string codec_case_name(
    const ::testing::TestParamInfo<std::tuple<OpKind, ObjectKey>>& info) {
  const auto& [op, key] = info.param;
  std::string name(cloud::op_kind_name(op));
  for (const std::string& part : {key.container, key.name}) {
    if (part.empty()) continue;
    name += '_';
    for (const unsigned char c : part) {
      name += std::isalnum(c) != 0 ? static_cast<char>(c) : '_';
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, CodecRoundTripTest,
    ::testing::Values(
        std::make_tuple(OpKind::kCreate, ObjectKey{"bucket", ""}),
        std::make_tuple(OpKind::kPut, ObjectKey{"bucket", "file.txt"}),
        std::make_tuple(OpKind::kGet, ObjectKey{"bucket", "file.txt"}),
        std::make_tuple(OpKind::kRemove, ObjectKey{"bucket", "file.txt"}),
        std::make_tuple(OpKind::kList, ObjectKey{"bucket", ""}),
        // Names needing percent-escaping.
        std::make_tuple(OpKind::kPut, ObjectKey{"my container", "a/b c?d"}),
        std::make_tuple(OpKind::kGet, ObjectKey{"c", "100% legit"})),
    codec_case_name);

// The key shapes the scheme clients actually put on the wire. Release
// builds no longer round-trip each op's envelope, so this is where the
// property is checked for them.
const core::HyRDConfig kHyrd;

INSTANTIATE_TEST_SUITE_P(
    ClientKeys, CodecRoundTripTest,
    ::testing::Values(
        // Container setup and listing, data and metadata sides.
        std::make_tuple(OpKind::kCreate, ObjectKey{kHyrd.data_container, ""}),
        std::make_tuple(OpKind::kCreate, ObjectKey{kHyrd.meta_container, ""}),
        std::make_tuple(OpKind::kList, ObjectKey{kHyrd.meta_container, ""}),
        // Replicas (small files) and erasure / DepSky / NCCloud fragments.
        std::make_tuple(OpKind::kPut,
                        ObjectKey{kHyrd.data_container,
                                  dist::fragment_object_name("/t7/o", 'r', 0)}),
        std::make_tuple(OpKind::kGet,
                        ObjectKey{kHyrd.data_container,
                                  dist::fragment_object_name("/t7/o", 'r', 2)}),
        std::make_tuple(OpKind::kRemove,
                        ObjectKey{kHyrd.data_container,
                                  dist::fragment_object_name("/t7/o", 'r', 1)}),
        std::make_tuple(
            OpKind::kPut,
            ObjectKey{kHyrd.data_container,
                      dist::fragment_object_name("/big/video.bin", 's', 3)}),
        std::make_tuple(OpKind::kGet,
                        ObjectKey{"depsky-data",
                                  dist::fragment_object_name("/d/x", 'q', 1)}),
        std::make_tuple(OpKind::kPut,
                        ObjectKey{"nccloud-data",
                                  dist::fragment_object_name("/n/y", 'f', 5)}),
        // Metadata blocks, by object name and by their update-log path.
        std::make_tuple(
            OpKind::kPut,
            ObjectKey{kHyrd.meta_container,
                      core::StorageClientBase::meta_block_object_name("t7")}),
        std::make_tuple(
            OpKind::kGet,
            ObjectKey{kHyrd.meta_container,
                      core::StorageClientBase::meta_block_path("t7")}),
        // Nested paths: every '/' inside the object name must be escaped,
        // or decode would split the key at the wrong segment.
        std::make_tuple(OpKind::kPut, ObjectKey{kHyrd.data_container, "t42/o"}),
        std::make_tuple(OpKind::kGet,
                        ObjectKey{kHyrd.data_container, "dir/sub/deep/f.bin"}),
        std::make_tuple(OpKind::kRemove,
                        ObjectKey{kHyrd.data_container, "/leading/slash"}),
        // Evaluator probes.
        std::make_tuple(OpKind::kPut,
                        ObjectKey{kHyrd.probe_container, "probe-3"})),
    codec_case_name);

TEST(RestCodec, ParseRejectsMissingTerminator) {
  const auto wire = common::bytes_of("GET /c/x HTTP/1.1\r\n");
  EXPECT_FALSE(parse_request(wire).is_ok());
}

TEST(RestCodec, ParseRejectsBadVersion) {
  const auto wire = common::bytes_of("GET /c/x HTTP/0.9\r\n\r\n");
  EXPECT_FALSE(parse_request(wire).is_ok());
}

TEST(RestCodec, ParseRejectsContentLengthMismatch) {
  const auto wire =
      common::bytes_of("PUT /c/x HTTP/1.1\r\nContent-Length: 5\r\n\r\nab");
  EXPECT_FALSE(parse_request(wire).is_ok());
}

TEST(RestCodec, ParseAcceptsBodyWithoutContentLength) {
  const auto wire = common::bytes_of("PUT /c/x HTTP/1.1\r\n\r\nabc");
  auto parsed = parse_request(wire);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(common::to_string(parsed.value().body), "abc");
}

TEST(RestCodec, DecodeRejectsUnknownMethod) {
  const RestRequest req = request("PATCH", "/c/x");
  EXPECT_FALSE(decode_op(req).is_ok());
}

TEST(RestCodec, DecodeRejectsGetContainerWithoutList) {
  const RestRequest req = request("GET", "/c");
  EXPECT_FALSE(decode_op(req).is_ok());
}

TEST(RestCodec, DecodeRejectsDeleteContainer) {
  const RestRequest req = request("DELETE", "/c");
  EXPECT_FALSE(decode_op(req).is_ok());
}

TEST(RestCodec, DecodeRejectsEmptyOrUnrootedPath) {
  EXPECT_FALSE(decode_op(request("GET", "")).is_ok());
  EXPECT_FALSE(decode_op(request("GET", "c/x")).is_ok());
  EXPECT_FALSE(decode_op(request("PUT", "/")).is_ok());
}

TEST(RestCodec, DecodeRejectsUnknownQuery) {
  const RestRequest req = request("GET", "/c?weird");
  EXPECT_FALSE(decode_op(req).is_ok());
}

TEST(RestCodec, HttpStatusMappingRoundTrips) {
  for (auto code :
       {common::StatusCode::kOk, common::StatusCode::kNotFound,
        common::StatusCode::kUnavailable, common::StatusCode::kInvalidArgument,
        common::StatusCode::kAlreadyExists,
        common::StatusCode::kResourceExhausted}) {
    const common::Status st(code, "m");
    EXPECT_EQ(http_to_status(status_to_http(st), "m").code(), code);
  }
}

TEST(RestCodec, ThrottleMapsTo429BothWays) {
  // The throttle boundary: a fair-queue rejection must travel as HTTP 429
  // and come back as kResourceExhausted, never as a generic 5xx — the
  // retry policy's 429-vs-outage distinction depends on it.
  EXPECT_EQ(status_to_http(common::resource_exhausted("throttled")), 429);
  const common::Status back = http_to_status(429, "throttled");
  EXPECT_EQ(back.code(), common::StatusCode::kResourceExhausted);
  EXPECT_EQ(back.message(), "throttled");
  EXPECT_NE(status_to_http(common::unavailable("down")), 429);
}

TEST(RestCodec, DataLossMapsTo500) {
  EXPECT_EQ(status_to_http(common::data_loss("x")), 500);
  EXPECT_EQ(http_to_status(500, "x").code(), common::StatusCode::kInternal);
}

}  // namespace
}  // namespace hyrd::gcs
