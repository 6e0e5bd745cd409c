// Test corpus for the clean protocol fixture: both structs exercised.
#include "plasma/protocol.h"

namespace fixture_clean {

bool VisitEcho() {
  EchoRequest req{7};
  uint64_t seen = 0;
  auto visit = [&seen](uint64_t nonce) { seen = nonce; };
  EchoRequest::Fields(req, visit);
  EchoReply reply{seen};
  EchoReply::Fields(reply, visit);
  return seen == 7;
}

}  // namespace fixture_clean
