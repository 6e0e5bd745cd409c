// Protocol fixture (clean): two-message protocol where every
// enumerator has a field list, a dispatch arm, and test coverage.
// The checker must produce zero findings over this tree.
#pragma once

#include <cstdint>

namespace fixture_clean {

enum class MessageType : uint32_t {
  kEchoRequest = 1,
  kEchoReply = 2,
};

struct EchoRequest {
  uint64_t nonce;
  static void Fields(auto& m, auto& v) { v(m.nonce); }
};

struct EchoReply {
  uint64_t nonce;
  static void Fields(auto& m, auto& v) { v(m.nonce); }
};

}  // namespace fixture_clean
