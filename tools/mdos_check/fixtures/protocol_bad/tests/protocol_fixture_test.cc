// Test corpus for the bad protocol fixture. Covers PingRequest and
// PingReply; the drop message is deliberately untested (seeded
// coverage finding). Nothing here may name that struct, even in a
// comment, because test coverage is a raw substring probe.
#include "plasma/protocol.h"

namespace fixture {

bool VisitPing() {
  PingRequest req{42};
  uint64_t seen = 0;
  auto visit = [&seen](uint64_t nonce) { seen = nonce; };
  PingRequest::Fields(req, visit);
  PingReply reply{seen};
  return reply.nonce == 42;
}

}  // namespace fixture
