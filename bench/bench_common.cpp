#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/clock.h"
#include "common/log.h"
#include "common/rng.h"
#include "plasma/async_client.h"

namespace mdos::bench {

std::vector<BenchSpec> Table1Specs() {
  // Paper Table I: benchmark -> (number of objects, object size kB).
  return {
      {1, 1000, 1},       // 1000 x 1 kB
      {2, 500, 10},       // 500 x 10 kB
      {3, 200, 100},      // 200 x 100 kB
      {4, 100, 1000},     // 100 x 1 MB
      {5, 50, 10000},     // 50 x 10 MB
      {6, 10, 100000},    // 10 x 100 MB
  };
}

int Repetitions() {
  const char* env = std::getenv("MDOS_REPS");
  if (env != nullptr) {
    int reps = std::atoi(env);
    if (reps > 0) return reps;
  }
  return 10;
}

double CalibrationScale() {
  const char* env = std::getenv("MDOS_SCALE");
  if (env != nullptr) {
    double scale = std::atof(env);
    if (scale > 0.0 && scale <= 1.0) return scale;
  }
  return 0.5;
}

int64_t SimulatedRttNs() {
  const char* env = std::getenv("MDOS_RTT_US");
  if (env != nullptr) {
    long us = std::atol(env);
    if (us >= 0) return static_cast<int64_t>(us) * 1000;
  }
  return 2000 * 1000;  // 2 ms
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.min = samples.front();
  s.max = samples.back();
  s.p50 = samples[samples.size() / 2];
  s.p95 = samples[samples.size() * 95 / 100];
  double sum = 0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  return s;
}

std::unique_ptr<BenchCluster> BenchCluster::Create(
    size_t nodes, uint64_t pool_bytes, bool pin_remote_objects,
    bool enable_shared_index, bool mapped_remote_reads,
    bool check_global_uniqueness) {
  SetLogLevel(LogLevel::kError);
  double scale = CalibrationScale();
  tf::FabricConfig fabric;
  fabric.local = tf::ScaledLocalParams(scale);
  fabric.remote = tf::ScaledRemoteParams(scale);

  auto bench = std::make_unique<BenchCluster>();
  bench->cluster_ = std::make_unique<cluster::Cluster>(fabric);
  for (size_t i = 0; i < nodes; ++i) {
    cluster::NodeOptions options;
    options.pool_size = pool_bytes;
    options.pin_remote_objects = pin_remote_objects;
    options.enable_shared_index = enable_shared_index;
    options.mapped_remote_reads = mapped_remote_reads;
    options.check_global_uniqueness = check_global_uniqueness;
    options.registry.simulated_rtt_ns = SimulatedRttNs();
    auto node = bench->cluster_->AddNode(options);
    if (!node.ok()) {
      std::fprintf(stderr, "AddNode failed: %s\n",
                   node.status().ToString().c_str());
      return nullptr;
    }
  }
  Status started = bench->cluster_->StartAll();
  if (!started.ok()) {
    std::fprintf(stderr, "StartAll failed: %s\n",
                 started.ToString().c_str());
    return nullptr;
  }

  auto producer = bench->cluster_->node(0)->CreateClient("producer");
  auto local = bench->cluster_->node(0)->CreateClient("local-consumer");
  auto remote =
      bench->cluster_->node(nodes > 1 ? 1 : 0)->CreateClient(
          "remote-consumer");
  if (!producer.ok() || !local.ok() || !remote.ok()) {
    std::fprintf(stderr, "client connect failed\n");
    return nullptr;
  }
  bench->producer_ = std::move(producer).value();
  bench->local_consumer_ = std::move(local).value();
  bench->remote_consumer_ = std::move(remote).value();
  return bench;
}

std::unique_ptr<plasma::PlasmaClient> BenchCluster::ConsumerOn(
    size_t node) {
  auto client = cluster_->node(node)->CreateClient("consumer");
  if (!client.ok()) return nullptr;
  return std::move(client).value();
}

std::vector<ObjectId> SpecIds(const BenchSpec& spec, int rep) {
  std::vector<ObjectId> ids;
  ids.reserve(spec.num_objects);
  for (int i = 0; i < spec.num_objects; ++i) {
    ids.push_back(ObjectId::FromName("bench" + std::to_string(spec.index) +
                                     "-rep" + std::to_string(rep) + "-" +
                                     std::to_string(i)));
  }
  return ids;
}

double CommitObjects(plasma::PlasmaClient& client,
                     const std::vector<ObjectId>& ids,
                     uint64_t object_bytes) {
  // One pseudo-random payload shared by all objects of the repetition:
  // the paper notes "the data contents of the objects should not
  // influence the system performance".
  static std::vector<uint8_t> payload;
  if (payload.size() < object_bytes) {
    payload.resize(object_bytes);
    SplitMix64(0xB0B).Fill(payload.data(), payload.size());
  }

  Stopwatch sw;
  for (const ObjectId& id : ids) {
    auto buffer = client.Create(id, object_bytes);
    if (!buffer.ok()) {
      std::fprintf(stderr, "create failed: %s\n",
                   buffer.status().ToString().c_str());
      std::exit(1);
    }
    Status written = buffer->WriteData(0, payload.data(), object_bytes);
    if (!written.ok()) {
      std::fprintf(stderr, "write failed: %s\n",
                   written.ToString().c_str());
      std::exit(1);
    }
    Status sealed = client.Seal(id);
    if (!sealed.ok()) {
      std::fprintf(stderr, "seal failed: %s\n", sealed.ToString().c_str());
      std::exit(1);
    }
  }
  return sw.ElapsedSeconds();
}

double RetrieveBuffers(plasma::PlasmaClient& client,
                       const std::vector<ObjectId>& ids,
                       std::vector<plasma::ObjectBuffer>* out,
                       uint64_t timeout_ms, bool pinned) {
  Stopwatch sw;
  auto buffers = pinned
                     ? client.async().GetAsync(ids, timeout_ms, true).Take()
                     : client.Get(ids, timeout_ms);
  double elapsed = sw.ElapsedSeconds();
  if (!buffers.ok()) {
    std::fprintf(stderr, "get failed: %s\n",
                 buffers.status().ToString().c_str());
    std::exit(1);
  }
  for (const auto& buffer : *buffers) {
    if (!buffer.valid()) {
      std::fprintf(stderr, "get returned missing object\n");
      std::exit(1);
    }
  }
  *out = std::move(buffers).value();
  return elapsed;
}

double ReadBuffers(const std::vector<plasma::ObjectBuffer>& buffers,
                   uint64_t* bytes_read, uint64_t chunk) {
  static std::vector<uint8_t> scratch;
  if (scratch.size() < chunk) scratch.resize(chunk);
  uint64_t total = 0;
  Stopwatch sw;
  for (const auto& buffer : buffers) {
    for (uint64_t off = 0; off < buffer.data_size(); off += chunk) {
      uint64_t n = std::min(chunk, buffer.data_size() - off);
      Status read = buffer.ReadData(off, scratch.data(), n);
      if (!read.ok()) {
        std::fprintf(stderr, "read failed: %s\n", read.ToString().c_str());
        std::exit(1);
      }
      total += n;
    }
  }
  double elapsed = sw.ElapsedSeconds();
  if (bytes_read != nullptr) *bytes_read = total;
  return elapsed;
}

void ReleaseAll(plasma::PlasmaClient& client,
                const std::vector<ObjectId>& ids) {
  for (const ObjectId& id : ids) {
    (void)client.Release(id);
  }
}

void DeleteAll(plasma::PlasmaClient& owner,
               const std::vector<ObjectId>& ids) {
  for (const ObjectId& id : ids) {
    Status deleted = owner.Delete(id);
    if (!deleted.ok()) {
      std::fprintf(stderr, "delete failed: %s\n",
                   deleted.ToString().c_str());
      std::exit(1);
    }
  }
}

double GiBps(uint64_t bytes, double seconds) {
  if (seconds <= 0) return 0;
  return static_cast<double>(bytes) / seconds / (1024.0 * 1024.0 * 1024.0);
}

void PrintHarnessHeader(const std::string& title) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "reps=%d  calibration scale=%.2f (paper-scale values = measured / "
      "scale)\n",
      Repetitions(), CalibrationScale());
  std::printf(
      "fabric model: local %.2f GiB/s, remote %.2f GiB/s (paper: 6.5 / "
      "5.75)\n\n",
      6.5 * CalibrationScale(), 5.75 * CalibrationScale());
}

}  // namespace mdos::bench
