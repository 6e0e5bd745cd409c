// Protocol fixture (bad): three-message mini protocol with seeded gaps.
//   kPingRequest -- fully covered (Fields + dispatch + test): no finding.
//   kPingReply   -- PingReply struct has no Fields, and no dispatch arm
//                   mentions MessageType::kPingReply: two findings.
//   kDropRequest -- Fields and dispatch exist but nothing under the test
//                   roots mentions it: one coverage finding.
#pragma once

#include <cstdint>

namespace fixture {

enum class MessageType : uint32_t {
  kPingRequest = 1,
  kPingReply = 2,
  kDropRequest = 3,
};

struct PingRequest {
  uint64_t nonce;
  static void Fields(auto& m, auto& v) { v(m.nonce); }
};

struct PingReply {
  uint64_t nonce;
  // Fields deliberately missing: seeded field-list finding.
};

struct DropRequest {
  uint64_t object_id;
  static void Fields(auto& m, auto& v) { v(m.object_id); }
};

}  // namespace fixture
