#include "cluster/node.h"

namespace mdos::cluster {

Node::Node(tf::Fabric* fabric, NodeOptions options)
    : fabric_(fabric), options_(std::move(options)) {}

Result<std::unique_ptr<Node>> Node::Create(tf::Fabric* fabric,
                                           const NodeOptions& options) {
  auto node = std::unique_ptr<Node>(new Node(fabric, options));

  // Register the node's DRAM with the fabric. The slab holds the object
  // pool and, when the shared-index extension is on, the index table —
  // both inside the exported (disaggregated) window.
  uint64_t index_bytes =
      options.enable_shared_index ? options.shared_index_bytes : 0;
  uint64_t gen_bytes =
      options.mapped_remote_reads ? options.generation_table_bytes : 0;
  MDOS_ASSIGN_OR_RETURN(
      node->node_id_,
      fabric->AddNode(options.name,
                      options.pool_size + index_bytes + gen_bytes));
  MDOS_ASSIGN_OR_RETURN(
      node->pool_region_,
      fabric->ExportRegion(node->node_id_, 0, options.pool_size));

  if (options.enable_shared_index) {
    MDOS_ASSIGN_OR_RETURN(
        node->index_region_,
        fabric->ExportRegion(node->node_id_, options.pool_size,
                             index_bytes));
  }
  if (options.mapped_remote_reads) {
    // The generation table lives in the slab behind the index window and
    // is exported so peers and clients can validate descriptors with
    // plain fabric loads.
    MDOS_ASSIGN_OR_RETURN(
        node->gen_region_,
        fabric->ExportRegion(node->node_id_,
                             options.pool_size + index_bytes, gen_bytes));
  }

  MDOS_RETURN_IF_ERROR(node->BuildStack());
  return node;
}

Status Node::BuildStack() {
  // A rebuild retires the previous incarnation peer side first: the
  // registry's I/O thread completes peer work into the store, so it must
  // be gone before the store is.
  rpc_server_.reset();
  service_.reset();
  registry_.reset();
  store_.reset();

  // Shared-index writer first: (re)initializes the exported index table
  // in place, so a restarted store publishes into an empty index and
  // peers' attached readers see no stale entries.
  if (options_.enable_shared_index) {
    MDOS_ASSIGN_OR_RETURN(tf::NodeMemory * memory, fabric_->node(node_id_));
    MDOS_ASSIGN_OR_RETURN(
        auto writer,
        plasma::SharedIndexWriter::Create(
            memory->data() + options_.pool_size,
            options_.shared_index_bytes));
    index_writer_ = std::make_unique<plasma::SharedIndexWriter>(writer);
  }

  // Generation table next: (re)formatted in place with a strictly
  // increasing epoch, so descriptors stamped by a previous incarnation
  // fail the epoch check instead of matching near-zero fresh counters.
  if (options_.mapped_remote_reads) {
    MDOS_ASSIGN_OR_RETURN(tf::NodeMemory * memory, fabric_->node(node_id_));
    uint64_t index_bytes =
        options_.enable_shared_index ? options_.shared_index_bytes : 0;
    MDOS_ASSIGN_OR_RETURN(
        auto table,
        plasma::GenerationTable::Create(
            memory->data() + options_.pool_size + index_bytes,
            options_.generation_table_bytes, ++gen_epoch_));
    gen_table_ = std::make_unique<plasma::GenerationTable>(table);
  }

  plasma::StoreOptions store_options;
  store_options.name = options_.name;
  store_options.allocator = options_.allocator;
  store_options.spill_dir = options_.spill_dir;
  store_options.check_global_uniqueness = options_.check_global_uniqueness;
  store_options.pin_remote_objects = options_.pin_remote_objects;
  store_options.replication_factor = options_.replication_factor;
  MDOS_ASSIGN_OR_RETURN(
      store_, plasma::Store::CreateOnFabric(store_options, fabric_,
                                            node_id_, pool_region_));

  if (index_writer_ != nullptr) {
    store_->SetSharedIndex(index_writer_.get(), index_region_);
  }
  if (gen_table_ != nullptr) {
    store_->SetGenerationTable(gen_table_.get(), gen_region_);
  }

  dist::RegistryOptions registry_options = options_.registry;
  registry_options.fabric = fabric_;
  registry_ = std::make_unique<dist::RemoteStoreRegistry>(
      node_id_, registry_options);
  store_->SetDistHooks(registry_.get());
  // A peer declared dead must stop blocking eviction with its pins, and
  // its death triggers a re-heal round: every object whose copy count
  // dropped below k is re-replicated from a surviving holder.
  plasma::Store* store = store_.get();
  registry_->SetPeerDeathHandler([store](uint32_t dead_node) {
    (void)store->ReleasePinsForPeer(dead_node);
    store->RequestReheal(dead_node);
  });

  service_ = std::make_unique<dist::StoreService>(store_.get());
  rpc_server_ = std::make_unique<rpc::RpcServer>();
  service_->RegisterWith(*rpc_server_);
  return Status::OK();
}

Node::~Node() { Stop(); }

Status Node::Start() {
  {
    MutexLock lock(lifecycle_mutex_);
    if (started_) return Status::Invalid("node already started");
  }
  MDOS_RETURN_IF_ERROR(store_->Start());
  MDOS_RETURN_IF_ERROR(rpc_server_->Start(rpc_port_));
  rpc_port_ = rpc_server_->port();
  registry_->StartHealthMonitor();
  {
    MutexLock lock(lifecycle_mutex_);
    started_ = true;
  }
  return Status::OK();
}

void Node::Stop() {
  {
    MutexLock lock(lifecycle_mutex_);
    if (!started_) return;
    started_ = false;
  }
  registry_->StopHealthMonitor();
  // Release pins first, while peer RPC servers are still reachable.
  registry_->ReleaseAllPins();
  store_->Stop();
  rpc_server_->Stop();
}

void Node::Kill() {
  {
    MutexLock lock(lifecycle_mutex_);
    if (!started_) return;
    started_ = false;
  }
  // Crash semantics: no pin release, no goodbye to peers. Survivors'
  // heartbeats and failure streaks must discover this on their own.
  registry_->StopHealthMonitor();
  store_->Stop();
  rpc_server_->Stop();
}

Status Node::Restart() {
  {
    MutexLock lock(lifecycle_mutex_);
    if (started_) return Status::Invalid("node still running");
  }
  // Fresh software stack on the same fabric identity (node id, pool and
  // index regions) and the same RPC port — peers' channels redial into
  // it transparently.
  MDOS_RETURN_IF_ERROR(BuildStack());
  return Start();
}

Status Node::ConnectPeer(const Node& peer) {
  return registry_->AddPeer("127.0.0.1", peer.rpc_port());
}

Result<std::unique_ptr<plasma::PlasmaClient>> Node::CreateClient(
    const std::string& client_name) {
  plasma::ClientOptions options;
  options.client_name = client_name;
  options.fabric = fabric_;
  return plasma::PlasmaClient::Connect(store_->socket_path(), options);
}

}  // namespace mdos::cluster
