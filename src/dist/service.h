// StoreService — the RPC service a store exposes to its peers.
//
// The server side of the paper's gRPC surface (§IV-A2): handlers decode
// the dist message, call into the owning store's thread-safe peer surface
// (LookupManyForPeer & co.), and encode the reply. Handlers run on the
// RPC server thread, concurrently with the store's shard event loops —
// the store routes each call to the owning shard's mutex for the
// required synchronization.
#pragma once

#include "common/status.h"
#include "plasma/store.h"
#include "rpc/server.h"

namespace mdos::dist {

class StoreService {
 public:
  explicit StoreService(plasma::Store* store) : store_(store) {}

  // Registers every Plasma.* method. Call before RpcServer::Start.
  void RegisterWith(rpc::RpcServer& server);

 private:
  plasma::Store* store_;
};

}  // namespace mdos::dist
