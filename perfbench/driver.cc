// mdos_perfbench — the repository benchmark driver.
//
// One process. It brings up in-process cluster::Cluster instances, loads
// a dataset made from --seed, runs one workload for --seconds through the
// public client API, checks every byte it reads, cross-checks the layers'
// public stats, and prints one JSON object as the last line of stdout.
// perfbench/README.md has the workload -> layer -> metric table.
//
//   mdos_perfbench --workload consume_mapped --seed 1 --seconds 15
//                  --trace 0 --out-dir .bench_build
//
// The run sets the cluster up nine times and measures a phase after each
// set-up. --trace 1 adds a traced phase on the last cluster, keeps spans
// (name, start, end, parent, request) in memory around every call into
// the client layer, writes them out as Chrome trace events at exit, and
// reports per-layer metrics instead of end-to-end ones.
// --toy shrinks every dataset (self-test); --corrupt-crc flips one
// expected checksum so the correctness check must fail the run.

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/clock.h"
#include "common/crc32.h"
#include "common/deadline.h"
#include "common/log.h"
#include "common/rng.h"
#include "plasma/async_client.h"
#include "tf/latency_model.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench refuses sanitizer builds: instrumented timings are meaningless"
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#error "perfbench refuses sanitizer builds: instrumented timings are meaningless"
#endif
#endif
#ifndef NDEBUG
#error "perfbench needs an optimised build (Release or RelWithDebInfo)"
#endif

namespace {
// Directory every store started by this process binds its socket in.
// Set once in main() before the first store starts.
std::string g_socket_dir;
std::atomic<uint64_t> g_socket_seq{0};
}  // namespace

// Link-time replacement for mdos::net::UniqueSocketPath (see the
// --wrap option in CMakeLists.txt): keeps sockets inside the run dir.
extern "C" std::string
__wrap__ZN4mdos3net16UniqueSocketPathB5cxx11ESt17basic_string_viewIcSt11char_traitsIcEE(
    std::string_view tag) {
  return g_socket_dir + "/" + std::string(tag) + "-" +
         std::to_string(g_socket_seq.fetch_add(1)) + ".sock";
}

namespace mdos::perfbench {
namespace {

// ---- configuration ---------------------------------------------------------

// Fabric calibration shared with bench/ (bench_common's MDOS_SCALE
// default): the model's bandwidths sit well below host memcpy speed.
constexpr double kScale = 0.5;
// Set-ups per run, each followed by a measured phase; setup_s is their
// median.
constexpr int kSetups = 9;
// End-to-end budget of every client operation. A failed or wrong
// operation is recorded with at least this latency, so it misses every
// latency limit.
constexpr int64_t kOpBudgetMs = 5000;
constexpr uint64_t kKiB = 1024;
constexpr uint64_t kMiB = 1024 * 1024;
constexpr double kGiB = 1024.0 * kMiB;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  bool corrupt_crc = false;
  std::string out_dir = ".bench_build";
};

int64_t Now() { return MonotonicNanos(); }
double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

tf::FabricConfig ScaledFabric() {
  tf::FabricConfig config;
  config.local = tf::ScaledLocalParams(kScale);
  config.remote = tf::ScaledRemoteParams(kScale);
  return config;
}

// Nearest-rank quantile; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Sizes log-uniform in [lo, hi], stratified so every seed draws the same
// size profile (one size per 1/n quantile band), in seeded order.
std::vector<uint64_t> LogUniformSizes(size_t n, uint64_t lo, uint64_t hi,
                                      SplitMix64& rng) {
  std::vector<uint64_t> sizes(n);
  const double span = std::log(static_cast<double>(hi) / lo);
  for (size_t i = 0; i < n; ++i) {
    double u = (static_cast<double>(i) + rng.NextDouble()) / n;
    sizes[i] = static_cast<uint64_t>(std::llround(lo * std::exp(u * span)));
  }
  for (size_t i = n; i > 1; --i) std::swap(sizes[i - 1], sizes[rng.NextBelow(i)]);
  return sizes;
}

// Zipf(s) over ranks [0, n): rank 0 is the hottest.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Sample(SplitMix64& rng) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.NextDouble());
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::vector<size_t> SeededPermutation(size_t n, SplitMix64& rng) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.NextBelow(i)]);
  return perm;
}

// ---- tracing ---------------------------------------------------------------

enum SpanName : uint8_t {
  kOp,        // one workload step: a batch or a window
  kCreate,    // CreateAsync issued -> writable buffer
  kWrite,     // ObjectBuffer::WriteData
  kSeal,      // SealAsync issued -> ack
  kGet,       // GetAsync issued -> buffers resolved
  kRead,      // ObjectBuffer::ChecksumData / ReadData (fabric + gen check)
  kRelease,   // ReleaseAsync issued -> ack
  kDelete,    // DeleteAsync issued -> ack
  kSpanNames,
};
constexpr const char* kSpanLabel[kSpanNames] = {
    "op",          "client.create", "client.write", "client.seal",
    "client.get",  "client.read",   "client.release", "client.delete"};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // 0 while open
  int32_t parent = -1;
  uint64_t request = 0;
  SpanName name = kOp;
};

// In-memory span store. Spans are recorded only around calls the driver
// makes into the library; completions of async calls close their span
// from the client's reply thread, hence the mutex.
class Tracer {
 public:
  static constexpr size_t kMaxSpans = 250000;

  void Enable() {
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_ = true;
    spans_.reserve(kMaxSpans);
  }
  bool enabled() const { return enabled_; }

  // Opens a root span (a new request). -1 when tracing is off or the
  // store is full; every child of a -1 root is skipped too, so a request
  // is traced whole or not at all.
  int32_t Root(uint64_t request) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_.size() + 64 > kMaxSpans) return -1;
    return Push(kOp, -1, request);
  }
  int32_t Child(SpanName name, int32_t parent) {
    if (parent < 0) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    return Push(name, parent, spans_[parent].request);
  }
  void End(int32_t span) {
    if (span < 0) return;
    int64_t now = Now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[span].end_ns = now;
  }
  // Closes `span` when `future` completes (inline if it already has).
  template <typename T>
  void EndOnReady(int32_t span, Future<T>& future) {
    if (span < 0) return;
    future.OnReady([this, span] { End(span); });
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  int32_t Push(SpanName name, int32_t parent, uint64_t request) {
    spans_.push_back({Now(), 0, parent, request, name});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  std::vector<Span> spans_;
};

// RAII span for synchronous calls.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanName name, int32_t parent)
      : tracer_(tracer), id_(tracer.Child(name, parent)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t id_;
};

struct SpanSummary {
  std::vector<double> dur_ms[kSpanNames];
  double self_ms[kSpanNames] = {};
  uint64_t roots = 0;
  uint64_t spans = 0;
};

// Per-name durations and self time (span duration minus the part of it
// its children cover).
SpanSummary Summarize(const std::vector<Span>& spans) {
  SpanSummary out;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.end_ns == 0) continue;
    ++out.spans;
    if (s.parent < 0) ++out.roots;
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
    out.dur_ms[s.name].push_back(Ms(s.end_ns - s.start_ns));
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns == 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, s.end_ns);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    out.self_ms[s.name] += Ms(s.end_ns - s.start_ns - covered);
  }
  return out;
}

void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& metrics_json) {
  std::ofstream out(path);
  if (!out) return;
  int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"metrics\":" << metrics_json << ",\"traceEvents\":[\n";
  bool first = true;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns == 0) continue;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"req\":%llu}}\n",
                  first ? "" : ",", kSpanLabel[s.name],
                  static_cast<int>(s.name), (s.start_ns - t0) / 1e3,
                  (s.end_ns - s.start_ns) / 1e3, i, s.parent,
                  static_cast<unsigned long long>(s.request));
    out << line;
    first = false;
  }
  out << "]}\n";
}

// ---- layer counters (public stats of every layer) --------------------------

struct Counters {
  // Cumulative counters (deltas are meaningful).
  uint64_t evictions = 0, spills = 0, restores = 0;
  uint64_t frames_tx = 0, writev_calls = 0, bytes_tx = 0, egress_blocked = 0;
  uint64_t mapped_reads = 0, mapped_fallbacks = 0;
  uint64_t lookup_rpcs = 0, probe_rpcs = 0, pin_rpcs = 0, replicate_rpcs = 0;
  uint64_t index_hits = 0, failed_rpcs = 0, hedged_reads = 0, hedge_wins = 0;
  uint64_t rpc_calls = 0, rpc_bytes_in = 0, rpc_shed = 0;
  uint64_t remote_reads = 0, remote_read_bytes = 0;
  // Gauges (the "after" value is kept by Minus).
  int64_t resident = 0;  // sealed in memory + spilled, summed over nodes
  uint64_t under_replicated = 0;
  double peer_ewma_ms = 0;  // worst peer EWMA seen by any node
  double pool_fill = 0;     // fullest node's pool

  Counters Minus(const Counters& b) const;
};

constexpr uint64_t Counters::*kCumulative[] = {
    &Counters::evictions,        &Counters::spills,
    &Counters::restores,         &Counters::frames_tx,
    &Counters::writev_calls,     &Counters::bytes_tx,
    &Counters::egress_blocked,   &Counters::mapped_reads,
    &Counters::mapped_fallbacks, &Counters::lookup_rpcs,
    &Counters::probe_rpcs,       &Counters::pin_rpcs,
    &Counters::replicate_rpcs,   &Counters::index_hits,
    &Counters::failed_rpcs,      &Counters::hedged_reads,
    &Counters::hedge_wins,       &Counters::rpc_calls,
    &Counters::rpc_bytes_in,     &Counters::rpc_shed,
    &Counters::remote_reads,     &Counters::remote_read_bytes};

Counters Counters::Minus(const Counters& b) const {
  Counters d = *this;
  for (auto field : kCumulative) d.*field -= b.*field;
  d.resident = resident - b.resident;
  return d;
}

Counters ReadCounters(cluster::Cluster& cluster) {
  Counters c;
  for (size_t i = 0; i < cluster.size(); ++i) {
    cluster::Node& node = *cluster.node(i);
    plasma::StoreStats s = node.store().stats();
    c.evictions += s.evictions;
    c.spills += s.spills;
    c.restores += s.spill_restores;
    c.frames_tx += s.frames_tx;
    c.writev_calls += s.writev_calls;
    c.bytes_tx += s.bytes_tx;
    c.egress_blocked += s.egress_blocked_events;
    c.mapped_reads += s.mapped_reads;
    c.mapped_fallbacks += s.mapped_fallbacks;
    c.resident += static_cast<int64_t>(s.objects_sealed + s.spilled_objects);
    c.under_replicated += s.under_replicated;
    c.pool_fill = std::max(c.pool_fill, Ratio(s.bytes_in_use, s.capacity));
    dist::RegistryStats r = node.registry().stats();
    c.lookup_rpcs += r.lookup_rpcs;
    c.probe_rpcs += r.probe_rpcs;
    c.pin_rpcs += r.pin_rpcs;
    c.replicate_rpcs += r.replicate_rpcs;
    c.index_hits += r.index_hits;
    c.failed_rpcs += r.failed_rpcs;
    c.hedged_reads += r.hedged_reads;
    c.hedge_wins += r.hedge_wins;
    rpc::ServerStats rs = node.rpc_server().stats();
    c.rpc_calls += rs.calls;
    c.rpc_bytes_in += rs.bytes_in;
    c.rpc_shed += rs.shed;
    for (const plasma::PeerStatsEntry& peer : node.store().peer_stats()) {
      c.peer_ewma_ms = std::max(c.peer_ewma_ms, peer.ewma_latency_us / 1e3);
    }
  }
  tf::FabricStats f = cluster.fabric().stats();
  c.remote_reads = f.remote.reads;
  c.remote_read_bytes = f.remote.read_bytes;
  return c;
}

uint64_t InflightGets(cluster::Cluster& cluster) {
  uint64_t total = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    for (const auto& shard : cluster.node(i)->store().shard_stats()) {
      total += shard.inflight_gets;
    }
  }
  return total;
}

// ---- measurement -----------------------------------------------------------

// One phase's operations. Every latency sample is kept, in ms, and a
// phase's percentile is taken over all of them.
struct Measurement {
  // Capacity reserved up front, so the sample buffers never reallocate
  // and peak RSS grows with the samples taken, not in doubling steps.
  static constexpr size_t kReservedSamples = 1 << 20;

  Measurement() {
    for (auto* s : {&get_ms, &put_ms, &get_local_ms, &get_remote_ms}) {
      s->reserve(kReservedSamples);
    }
  }

  std::vector<double> get_ms, put_ms;               // end-to-end samples
  std::vector<double> get_local_ms, get_remote_ms;  // by where served
  uint64_t attempted = 0, failed = 0, wrong = 0;
  uint64_t gets = 0;            // Get requests
  uint64_t objects = 0;         // buffers read and verified
  uint64_t remote_objects = 0;  // of which served through the fabric
  uint64_t payload_bytes = 0, remote_payload_bytes = 0;
  uint64_t puts = 0, seals_acked = 0, deletes_acked = 0;
  uint64_t inflight_gets_max = 0;
  double seconds = 0;

  uint64_t ops() const { return gets + puts; }
  // Records a failed operation: it counts against every latency limit.
  void Fail(std::vector<double>& samples, double observed_ms) {
    ++failed;
    samples.push_back(std::max<double>(observed_ms, kOpBudgetMs));
  }
  // Verified payload over the whole phase, GiB/s.
  double ReadGiBps() const { return Ratio(payload_bytes, seconds) / kGiB; }
};

// Acks of calls whose result is not waited for inside the timed loop
// (Release, Delete): collected lazily, so no such round trip sits in a
// throughput loop.
class AckQueue {
 public:
  void Push(Future<Status> ack) {
    pending_.push_back(std::move(ack));
    while (!pending_.empty() &&
           (pending_.size() > 4096 || pending_.front().Ready())) {
      Pop();
    }
  }
  // Waits for every pending ack; returns {acked, failed} since the last
  // Drain.
  std::pair<uint64_t, uint64_t> Drain() {
    while (!pending_.empty()) Pop();
    std::pair<uint64_t, uint64_t> out{ok_, failed_};
    ok_ = failed_ = 0;
    return out;
  }

 private:
  void Pop() {
    if (pending_.front().Take().ok()) {
      ++ok_;
    } else {
      ++failed_;
    }
    pending_.pop_front();
  }
  std::deque<Future<Status>> pending_;
  uint64_t ok_ = 0, failed_ = 0;
};

struct SetupTimes {
  double start_s = 0;  // cluster start + client connect
  double load_s = 0;   // dataset publish
  double total_s = 0;  // start + load + warm-up (setup_s)
};

Result<std::unique_ptr<plasma::AsyncClient>> ConnectClient(
    cluster::Cluster& cluster, size_t node, const std::string& name) {
  plasma::ClientOptions options;
  options.client_name = name;
  options.fabric = &cluster.fabric();
  const std::string& path = cluster.node(node)->store().socket_path();
  if (path.rfind(g_socket_dir + "/", 0) != 0) {
    return Status::Invalid("store socket " + path +
                           " escaped the run directory (socket-path wrap "
                           "not linked?)");
  }
  return plasma::AsyncClient::Connect(path, options);
}

struct PublishItem {
  ObjectId id;
  uint64_t size = 0;
};

// Publishes `items` through `client`, eight at a time: the window's
// payloads filled by `fill(index, bytes, size)` first, then Creates
// pipelined, each buffer written as it resolves, Seals pipelined. With
// `put_ms`, records each object's Create issued -> Seal ack observed.
Status Publish(plasma::AsyncClient& client,
               const std::vector<PublishItem>& items,
               const std::function<void(size_t, uint8_t*, uint64_t)>& fill,
               std::vector<double>* put_ms = nullptr) {
  constexpr size_t kWindow = 8;
  uint64_t largest = 0;
  for (const PublishItem& item : items) largest = std::max(largest, item.size);
  std::vector<std::vector<uint8_t>> payloads(kWindow, std::vector<uint8_t>(largest));
  for (size_t i = 0; i < items.size(); i += kWindow) {
    const size_t n = std::min(kWindow, items.size() - i);
    for (size_t k = 0; k < n; ++k) fill(i + k, payloads[k].data(), items[i + k].size);
    const Deadline deadline = Deadline::AfterMs(kOpBudgetMs);
    const int64_t issued = Now();
    std::vector<Future<Result<plasma::ObjectBuffer>>> creates;
    for (size_t k = 0; k < n; ++k) {
      creates.push_back(client.CreateAsync(items[i + k].id, items[i + k].size,
                                           0, false, deadline));
    }
    std::vector<Future<Status>> seals;
    for (size_t k = 0; k < n; ++k) {
      MDOS_ASSIGN_OR_RETURN(plasma::ObjectBuffer buffer, creates[k].Take());
      MDOS_RETURN_IF_ERROR(
          buffer.WriteData(0, payloads[k].data(), items[i + k].size));
      seals.push_back(client.SealAsync(items[i + k].id, deadline));
    }
    for (auto& seal : seals) {
      MDOS_RETURN_IF_ERROR(seal.Take());
      if (put_ms != nullptr) put_ms->push_back(Ms(Now() - issued));
    }
  }
  return Status::OK();
}

// Reads a whole buffer and checks its CRC. Counts the object, and counts
// a mismatch as a wrong output.
bool VerifyObject(const plasma::ObjectBuffer& buffer, uint32_t expected_crc,
                  Tracer& tracer, int32_t root, Measurement* m) {
  if (!buffer.valid()) return false;
  Result<uint32_t> crc = [&] {
    ScopedSpan span(tracer, kRead, root);
    return buffer.ChecksumData();
  }();
  ++m->objects;
  m->payload_bytes += buffer.data_size();
  if (buffer.is_remote()) {
    ++m->remote_objects;
    m->remote_payload_bytes += buffer.data_size();
  }
  if (!crc.ok()) return false;
  if (*crc != expected_crc) {
    ++m->wrong;
    return false;
  }
  return true;
}

// ---- workloads -------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // Brings a fresh cluster up (tearing the previous one down), loads the
  // dataset and warms up. A workload whose timed loop makes no puts
  // records its load's puts into `phase`, the measurement that follows.
  virtual Status Setup(const std::string& run_dir, int index,
                       SetupTimes* times, Measurement* phase) = 0;
  // The timed loop: workload steps until `end_ns`.
  void Run(int64_t end_ns, Tracer& tracer, Measurement* m) {
    const int64_t start = Now();
    int64_t next_probe = start;
    while (Now() < end_ns) {
      Step(tracer, m);
      const int64_t now = Now();
      // Parked Gets across every shard, sampled in traced runs only.
      if (tracer.enabled() && now >= next_probe) {
        next_probe = now + 20'000'000;
        m->inflight_gets_max = std::max(m->inflight_gets_max, InflightGets(cluster()));
      }
    }
    m->seconds += (Now() - start) / 1e9;
  }
  // Waits for background acks so counters are settled.
  void Quiesce(Measurement* m) {
    m->failed += releases_.Drain().second;
    auto [deleted, failed] = deletes_.Drain();
    m->deletes_acked += deleted;
    m->failed += failed;
  }
  // Stats cross-checks over a measured phase.
  virtual void CrossCheck(const Counters& delta, const Measurement& m,
                          std::vector<std::string>* problems) = 0;
  virtual cluster::Cluster& cluster() = 0;
  // Workload-specific numbers printed beside the result.
  virtual std::string Describe(const Measurement& m) const = 0;

 protected:
  // One request of the workload's generator: a batch or a window.
  virtual void Step(Tracer& tracer, Measurement* m) = 0;

  AckQueue releases_, deletes_;
};

// Resident objects (in memory plus spilled) must move by exactly the
// seals acked minus the deletes acked, times the copies each holds.
void CheckResident(const char* workload, int64_t copies, const Counters& d,
                   const Measurement& m, std::vector<std::string>* problems) {
  const int64_t expected = copies * (static_cast<int64_t>(m.seals_acked) -
                                     static_cast<int64_t>(m.deletes_acked));
  if (d.resident != expected) {
    problems->push_back(std::string(workload) + ": resident copies moved by " +
                        std::to_string(d.resident) + ", seals-deletes acked " +
                        std::to_string(expected));
  }
}

// consume_mapped — the paper's scenario: a producer on node 0 publishes
// once, a consumer on node 1 streams the objects through the mapped
// fabric plane. Sizes 1-256 KiB keep per-object software cost, not the
// model's bandwidth, the limit. The timed loop makes no puts, so the
// workload's put figures are the producer's publish during set-up.
class ConsumeMapped : public Workload {
 public:
  ConsumeMapped(uint64_t seed, bool toy, bool corrupt)
      : seed_(seed),
        objects_(toy ? 64 : 1024),
        batch_(toy ? 8 : 16),
        corrupt_(corrupt),
        rng_(seed ^ 0x5EEDULL) {
    SplitMix64 rng(seed ^ 0xC0575EULL);
    std::vector<uint64_t> sizes =
        LogUniformSizes(objects_, 1 * kKiB, (toy ? 64 : 256) * kKiB, rng);
    for (size_t i = 0; i < objects_; ++i) {
      items_.push_back({ObjectId::FromName("cm-" + std::to_string(seed) +
                                           "-" + std::to_string(i)),
                        sizes[i]});
    }
  }

  Status Setup(const std::string&, int, SetupTimes* t,
               Measurement* phase) override {
    consumer_.reset();
    producer_.reset();
    cluster_.reset();
    int64_t t0 = Now();
    cluster_ = std::make_unique<cluster::Cluster>(ScaledFabric());
    uint64_t dataset = 0;
    for (const PublishItem& item : items_) dataset += item.size;
    for (int n = 0; n < 2; ++n) {
      cluster::NodeOptions options;
      options.name = "cm" + std::to_string(n);
      // Whole MiB: the shared index sits right behind the pool and must
      // stay aligned.
      options.pool_size =
          n == 0 ? (dataset + dataset / 4) / kMiB * kMiB + 8 * kMiB : 16 * kMiB;
      options.enable_shared_index = true;
      options.mapped_remote_reads = true;
      MDOS_RETURN_IF_ERROR(cluster_->AddNode(options).status());
    }
    MDOS_RETURN_IF_ERROR(cluster_->StartAll());
    MDOS_ASSIGN_OR_RETURN(producer_, ConnectClient(*cluster_, 0, "producer"));
    MDOS_ASSIGN_OR_RETURN(consumer_, ConnectClient(*cluster_, 1, "consumer"));
    int64_t t1 = Now();

    SplitMix64 rng(seed_ ^ 0xDA7AULL);
    crc_.assign(objects_, 0);
    MDOS_RETURN_IF_ERROR(Publish(
        *producer_, items_,
        [&](size_t i, uint8_t* bytes, uint64_t size) {
          rng.Fill(bytes, size);
          crc_[i] = Crc32(bytes, size);
        },
        &phase->put_ms));
    // Seals acked must equal the objects the producer's store holds.
    uint64_t sealed = cluster_->node(0)->store().stats().objects_sealed;
    if (sealed != objects_) {
      return Status::Invalid("load: " + std::to_string(objects_) +
                             " seals acked but store holds " +
                             std::to_string(sealed));
    }
    int64_t t2 = Now();

    // Warm-up: resolve every attachment and generation table once.
    Measurement warm;
    Tracer off;
    for (size_t i = 0; i < objects_; i += batch_) {
      std::vector<size_t> idx;
      for (size_t j = i; j < std::min(objects_, i + batch_); ++j) idx.push_back(j);
      Batch(idx, off, -1, &warm);
    }
    Quiesce(&warm);
    if (warm.failed + warm.wrong != 0) {
      return Status::Invalid("warm-up read failed or returned wrong bytes");
    }
    // Flipped after the warm-up, so only the measured phases see it.
    if (corrupt_) crc_[0] ^= 1;
    t->start_s = (t1 - t0) / 1e9;
    t->load_s = (t2 - t1) / 1e9;
    t->total_s = (Now() - t0) / 1e9;
    return Status::OK();
  }

  void CrossCheck(const Counters& d, const Measurement& m,
                  std::vector<std::string>* problems) override {
    // Nothing is created or deleted while the consumer reads, so a
    // fallback means a broken descriptor.
    if (d.mapped_fallbacks != 0) {
      problems->push_back("consume_mapped: " + std::to_string(d.mapped_fallbacks) +
                          " mapped fallbacks with no deletes");
    }
    if (d.mapped_reads != m.remote_objects) {
      problems->push_back("consume_mapped: store served " +
                          std::to_string(d.mapped_reads) +
                          " mapped reads for " + std::to_string(m.remote_objects) +
                          " remote buffers");
    }
    CheckResident("consume_mapped", 1, d, m, problems);
  }

  cluster::Cluster& cluster() override { return *cluster_; }
  std::string Describe(const Measurement& m) const override {
    char line[160];
    std::snprintf(line, sizeof(line), "consume_gibps=%.4f batches=%llu",
                  m.ReadGiBps(), static_cast<unsigned long long>(m.gets));
    return line;
  }

 protected:
  void Step(Tracer& tracer, Measurement* m) override {
    std::vector<size_t> idx;
    while (idx.size() < batch_) {
      size_t pick = rng_.NextBelow(objects_);
      if (std::find(idx.begin(), idx.end(), pick) == idx.end()) idx.push_back(pick);
    }
    int32_t root = tracer.Root(++request_);
    Batch(idx, tracer, root, m);
    tracer.End(root);
  }

 private:
  // One batch: Get issued -> every byte checksummed and verified, with
  // the Releases sent asynchronously.
  void Batch(const std::vector<size_t>& idx, Tracer& tracer, int32_t root,
             Measurement* m) {
    std::vector<ObjectId> ids;
    for (size_t i : idx) ids.push_back(items_[i].id);
    const Deadline deadline = Deadline::AfterMs(kOpBudgetMs);
    int64_t t0 = Now();
    ++m->gets;
    ++m->attempted;
    int32_t get_span = tracer.Child(kGet, root);
    auto reply = consumer_->GetAsync(ids, 0, false, deadline).Take();
    tracer.End(get_span);
    bool ok = reply.ok() && reply->size() == ids.size();
    for (size_t k = 0; ok && k < ids.size(); ++k) {
      const plasma::ObjectBuffer& buffer = (*reply)[k];
      ok = VerifyObject(buffer, crc_[idx[k]], tracer, root, m);
      if (!buffer.valid()) break;
      int32_t rel = tracer.Child(kRelease, root);
      auto ack = consumer_->ReleaseAsync(ids[k]);
      tracer.EndOnReady(rel, ack);
      releases_.Push(std::move(ack));
      ++m->attempted;
    }
    double ms = Ms(Now() - t0);
    if (ok) {
      m->get_ms.push_back(ms);
    } else {
      m->Fail(m->get_ms, ms);
    }
  }

  uint64_t seed_;
  size_t objects_, batch_;
  bool corrupt_;
  SplitMix64 rng_;
  std::vector<PublishItem> items_;
  std::vector<uint32_t> crc_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<plasma::AsyncClient> producer_, consumer_;
  uint64_t request_ = 0;
};

// local_churn — one node, a dataset larger than its pool over the spill
// tier, one pipelined connection mixing Zipf reads with writes.
class LocalChurn : public Workload {
 public:
  static constexpr uint64_t kObjectBytes = 16 * kKiB;
  static constexpr uint64_t kReadBytes = 4 * kKiB;
  static constexpr uint64_t kChunks = kObjectBytes / kReadBytes;
  static constexpr size_t kWindow = 16;

  LocalChurn(uint64_t seed, bool toy, bool corrupt)
      : seed_(seed),
        objects_(toy ? 256 : 4096),
        pool_(toy ? 3 * kMiB : 48 * kMiB),
        live_cap_(toy ? 16 : 64),
        warm_windows_(toy ? 50 : 400),
        corrupt_(corrupt),
        zipf_(objects_, 0.99),
        rng_(seed ^ 0x5EEDULL) {
    SplitMix64 rng(seed ^ 0x10CA1ULL);
    perm_ = SeededPermutation(objects_, rng);
    for (size_t i = 0; i < objects_; ++i) {
      items_.push_back({ObjectId::FromName("lc-" + std::to_string(seed) + "-" +
                                           std::to_string(i)),
                        kObjectBytes});
    }
    put_payload_.resize(kObjectBytes);
    rng.Fill(put_payload_.data(), put_payload_.size());
  }

  Status Setup(const std::string& run_dir, int index, SetupTimes* t,
               Measurement*) override {
    client_.reset();
    cluster_.reset();
    live_.clear();
    int64_t t0 = Now();
    cluster_ = std::make_unique<cluster::Cluster>(ScaledFabric());
    cluster::NodeOptions options;
    options.name = "lc";
    options.pool_size = pool_;
    options.spill_dir = run_dir + "/spill" + std::to_string(index);
    MDOS_RETURN_IF_ERROR(cluster_->AddNode(options).status());
    MDOS_RETURN_IF_ERROR(cluster_->StartAll());
    MDOS_ASSIGN_OR_RETURN(client_, ConnectClient(*cluster_, 0, "churn"));
    int64_t t1 = Now();

    chunk_crc_.assign(objects_ * kChunks, 0);
    MDOS_RETURN_IF_ERROR(Publish(
        *client_, items_,
        [&](size_t i, uint8_t* bytes, uint64_t size) {
          SplitMix64(seed_ * 0x9E3779B97F4A7C15ULL + i).Fill(bytes, size);
          for (uint64_t c = 0; c < kChunks; ++c) {
            chunk_crc_[i * kChunks + c] = Crc32(bytes + c * kReadBytes, kReadBytes);
          }
        }));
    int64_t t2 = Now();

    // Warm-up: run the workload until LRU and spill tier reach steady
    // state (hot ids resident, cold ones on disk).
    Measurement warm;
    Tracer off;
    for (size_t w = 0; w < warm_windows_; ++w) Step(off, &warm);
    Quiesce(&warm);
    if (warm.failed + warm.wrong != 0) {
      return Status::Invalid("local_churn warm-up failed");
    }
    // Flipped after the warm-up, so only the measured phases see it.
    if (corrupt_) chunk_crc_[perm_[0] * kChunks] ^= 1;
    t->start_s = (t1 - t0) / 1e9;
    t->load_s = (t2 - t1) / 1e9;
    t->total_s = (Now() - t0) / 1e9;
    return Status::OK();
  }

  void CrossCheck(const Counters& d, const Measurement& m,
                  std::vector<std::string>* problems) override {
    CheckResident("local_churn", 1, d, m, problems);
  }

  cluster::Cluster& cluster() override { return *cluster_; }
  std::string Describe(const Measurement& m) const override {
    char line[160];
    std::snprintf(line, sizeof(line), "ops_s=%.1f gets=%llu puts=%llu",
                  m.ops() / m.seconds, static_cast<unsigned long long>(m.gets),
                  static_cast<unsigned long long>(m.puts));
    return line;
  }

 protected:
  // 16 pipelined Gets (Zipf, one 4 KiB chunk each, verified, released)
  // beside one Create/Write/Seal; puts past live_cap_ are deleted FIFO.
  void Step(Tracer& tracer, Measurement* m) override {
    int32_t root = tracer.Root(++request_);
    Deadline deadline = Deadline::AfterMs(kOpBudgetMs);
    std::array<size_t, kWindow> obj{};
    std::array<uint64_t, kWindow> chunk{};
    std::array<int64_t, kWindow> issued{};
    std::vector<Future<Result<plasma::ObjectBuffer>>> gets;
    gets.reserve(kWindow);
    for (size_t k = 0; k < kWindow; ++k) {
      obj[k] = perm_[zipf_.Sample(rng_)];
      chunk[k] = rng_.NextBelow(kChunks);
      int32_t span = tracer.Child(kGet, root);
      issued[k] = Now();
      gets.push_back(client_->GetAsync(items_[obj[k]].id, 0, false, deadline));
      tracer.EndOnReady(span, gets.back());
    }
    m->gets += kWindow;
    m->attempted += kWindow;

    ObjectId put_id = ObjectId::FromName("lc-put-" + std::to_string(seed_) +
                                         "-" + std::to_string(put_seq_++));
    ++m->puts;
    ++m->attempted;
    int64_t put_start = Now();
    Future<Status> seal;
    {
      int32_t create_span = tracer.Child(kCreate, root);
      auto created =
          client_->CreateAsync(put_id, kObjectBytes, 0, false, deadline).Take();
      tracer.End(create_span);
      if (created.ok()) {
        std::memcpy(put_payload_.data(), &put_seq_, sizeof(put_seq_));
        Status written = [&] {
          ScopedSpan span(tracer, kWrite, root);
          return created->WriteData(0, put_payload_.data(), kObjectBytes);
        }();
        if (written.ok()) {
          int32_t seal_span = tracer.Child(kSeal, root);
          seal = client_->SealAsync(put_id, deadline);
          tracer.EndOnReady(seal_span, seal);
        }
      }
    }

    uint8_t scratch[kReadBytes];
    for (size_t k = 0; k < kWindow; ++k) {
      auto buffer = gets[k].Take();
      bool ok = buffer.ok() && buffer->valid();
      if (ok) {
        Status read = [&] {
          ScopedSpan span(tracer, kRead, root);
          return buffer->ReadData(chunk[k] * kReadBytes, scratch, kReadBytes);
        }();
        ok = read.ok();
        if (ok && Crc32(scratch, kReadBytes) !=
                      chunk_crc_[obj[k] * kChunks + chunk[k]]) {
          ++m->wrong;
          ok = false;
        }
        ++m->objects;
        m->payload_bytes += kReadBytes;
        int32_t rel = tracer.Child(kRelease, root);
        auto ack = client_->ReleaseAsync(items_[obj[k]].id);
        tracer.EndOnReady(rel, ack);
        releases_.Push(std::move(ack));
        ++m->attempted;
      }
      double ms = Ms(Now() - issued[k]);
      if (ok) {
        m->get_ms.push_back(ms);
      } else {
        m->Fail(m->get_ms, ms);
      }
    }

    const bool put_ok = seal.valid() && seal.Take().ok();
    double put_ms = Ms(Now() - put_start);
    if (put_ok) {
      ++m->seals_acked;
      m->put_ms.push_back(put_ms);
      live_.push_back(put_id);
    } else {
      m->Fail(m->put_ms, put_ms);
    }
    if (live_.size() > live_cap_) {
      int32_t del_span = tracer.Child(kDelete, root);
      auto ack = client_->DeleteAsync(live_.front(), deadline);
      tracer.EndOnReady(del_span, ack);
      deletes_.Push(std::move(ack));
      live_.pop_front();
      ++m->attempted;
    }
    tracer.End(root);
  }

 private:
  uint64_t seed_;
  size_t objects_;
  uint64_t pool_;
  size_t live_cap_, warm_windows_;
  bool corrupt_;
  Zipf zipf_;
  SplitMix64 rng_;
  std::vector<size_t> perm_;
  std::vector<PublishItem> items_;
  std::vector<uint32_t> chunk_crc_;
  std::vector<uint8_t> put_payload_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::unique_ptr<plasma::AsyncClient> client_;
  std::deque<ObjectId> live_;
  uint64_t put_seq_ = 0;
  uint64_t request_ = 0;
};

// replicated_mixed — three nodes, k=2, mapped reads on, shared index off,
// so a remote Get costs a lookup RPC, and peer RPCs (lookups, uniqueness
// probes, replication) run on the shard loops beside local Gets. One
// generator keeps a window in flight on a connection per node: per
// window, kGetsPerNode Zipf Gets on every connection and kPutsPerWindow
// replicated 16 KiB puts on rotating nodes (10% of the ops), each put
// deleted FIFO later.
class ReplicatedMixed : public Workload {
 public:
  static constexpr size_t kNodes = 3;
  static constexpr size_t kGetsPerNode = 6;
  static constexpr size_t kPutsPerWindow = 2;
  // One size for every object: with Zipf-hot ids, a seeded size per id
  // would let the seed pick how large the hottest objects are.
  static constexpr uint64_t kObjectBytes = 16 * kKiB;

  ReplicatedMixed(uint64_t seed, bool toy, bool corrupt)
      : seed_(seed),
        objects_(toy ? 64 : 512),
        live_cap_(toy ? 16 : 64),
        warm_windows_(toy ? 50 : 1000),
        corrupt_(corrupt),
        zipf_(objects_, 0.99),
        rng_(seed ^ 0x0BE2ULL) {
    SplitMix64 rng(seed ^ 0x3E91ULL);
    perm_ = SeededPermutation(objects_, rng);
    for (size_t i = 0; i < objects_; ++i) {
      ids_.push_back(ObjectId::FromName("rm-" + std::to_string(seed) + "-" +
                                        std::to_string(i)));
      home_.push_back(rng.NextBelow(kNodes));
    }
    put_payload_.resize(kObjectBytes);
    rng.Fill(put_payload_.data(), put_payload_.size());
  }

  Status Setup(const std::string&, int, SetupTimes* t, Measurement*) override {
    for (auto& c : clients_) c.reset();
    cluster_.reset();
    live_.clear();
    int64_t t0 = Now();
    cluster_ = std::make_unique<cluster::Cluster>(ScaledFabric());
    for (size_t n = 0; n < kNodes; ++n) {
      cluster::NodeOptions options;
      options.name = "rm" + std::to_string(n);
      options.pool_size = 32 * kMiB;
      options.mapped_remote_reads = true;
      options.replication_factor = 2;
      MDOS_RETURN_IF_ERROR(cluster_->AddNode(options).status());
    }
    MDOS_RETURN_IF_ERROR(cluster_->StartAll());
    for (size_t n = 0; n < kNodes; ++n) {
      MDOS_ASSIGN_OR_RETURN(clients_[n], ConnectClient(*cluster_, n,
                                                       "mixed" + std::to_string(n)));
    }
    int64_t t1 = Now();

    SplitMix64 rng(seed_ ^ 0xDA7AULL);
    crc_.assign(objects_, 0);
    for (size_t n = 0; n < kNodes; ++n) {
      std::vector<PublishItem> items;
      std::vector<size_t> which;
      for (size_t i = 0; i < objects_; ++i) {
        if (home_[i] != n) continue;
        items.push_back({ids_[i], kObjectBytes});
        which.push_back(i);
      }
      MDOS_RETURN_IF_ERROR(Publish(
          *clients_[n], items,
          [&](size_t k, uint8_t* bytes, uint64_t size) {
            rng.Fill(bytes, size);
            crc_[which[k]] = Crc32(bytes, size);
          }));
    }
    // Replication converged before anything is timed.
    int64_t converge_deadline = Now() + 10'000'000'000;
    while (ReadCounters(*cluster_).under_replicated != 0) {
      if (Now() > converge_deadline) {
        return Status::Invalid("replication did not converge");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    int64_t t2 = Now();

    // Warm-up: every connection resolves every object once (attachments,
    // generation tables, peer latency ranking).
    Measurement warm;
    Tracer off;
    for (size_t n = 0; n < kNodes; ++n) {
      for (size_t i = 0; i < objects_; i += 32) {
        std::vector<ObjectId> batch(ids_.begin() + i,
                                    ids_.begin() + std::min(objects_, i + 32));
        auto reply = clients_[n]->GetAsync(batch, 0, false,
                                           Deadline::AfterMs(kOpBudgetMs)).Take();
        if (!reply.ok()) return reply.status();
        for (size_t k = 0; k < batch.size(); ++k) {
          if (!VerifyObject((*reply)[k], crc_[i + k], off, -1, &warm)) {
            return Status::Invalid("warm-up read failed or returned wrong bytes");
          }
          MDOS_RETURN_IF_ERROR(clients_[n]->ReleaseAsync(batch[k]).Take());
        }
      }
    }
    // Then run the workload until the allocators' put/delete cycle has
    // touched the pools and peer latency rankings have settled.
    for (size_t w = 0; w < warm_windows_; ++w) Step(off, &warm);
    Quiesce(&warm);
    if (warm.failed + warm.wrong != 0) {
      return Status::Invalid("replicated_mixed warm-up failed");
    }
    // Flipped after the warm-up, so only the measured phases see it.
    if (corrupt_) crc_[perm_[0]] ^= 1;
    t->start_s = (t1 - t0) / 1e9;
    t->load_s = (t2 - t1) / 1e9;
    t->total_s = (Now() - t0) / 1e9;
    return Status::OK();
  }

  void CrossCheck(const Counters& d, const Measurement& m,
                  std::vector<std::string>* problems) override {
    // No mapped-fallback check here: the Gets never read a deleted id,
    // but seals and deletes of the puts bump generation slots that other
    // ids share (the table hashes ids into slots), and a read overlapping
    // such a bump falls back legitimately. The CRC check still covers it.
    // Every acked seal holds k=2 copies (replication runs before the
    // ack), and every acked delete dropped both.
    CheckResident("replicated_mixed", 2, d, m, problems);
  }

  cluster::Cluster& cluster() override { return *cluster_; }
  std::string Describe(const Measurement& m) const override {
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "ops_s=%.1f get_local_p50_ms=%.4f get_local_p99_ms=%.4f "
        "get_remote_p50_ms=%.4f get_remote_p99_ms=%.4f remote_share=%.3f",
        m.ops() / m.seconds, Quantile(m.get_local_ms, 0.5),
        Quantile(m.get_local_ms, 0.99), Quantile(m.get_remote_ms, 0.5),
        Quantile(m.get_remote_ms, 0.99), Ratio(m.remote_objects, m.objects));
    return line;
  }

 protected:
  void Step(Tracer& tracer, Measurement* m) override {
    struct Get {
      size_t node = 0, obj = 0;
      int64_t issued = 0;
      Future<Result<plasma::ObjectBuffer>> reply;
    };
    struct Put {
      size_t node = 0;
      ObjectId id;
      int64_t issued = 0;
      Future<Result<plasma::ObjectBuffer>> create;
      Future<Status> seal;
    };
    int32_t root = tracer.Root(++request_);
    Deadline deadline = Deadline::AfterMs(kOpBudgetMs);
    std::array<Get, kNodes * kGetsPerNode> gets;
    for (size_t k = 0; k < gets.size(); ++k) {
      Get& g = gets[k];
      g.node = k % kNodes;
      g.obj = perm_[zipf_.Sample(rng_)];
      int32_t span = tracer.Child(kGet, root);
      g.issued = Now();
      g.reply = clients_[g.node]->GetAsync(ids_[g.obj], 0, false, deadline);
      tracer.EndOnReady(span, g.reply);
    }
    m->gets += gets.size();
    m->attempted += gets.size();
    std::array<Put, kPutsPerWindow> puts;
    for (Put& p : puts) {
      p.node = put_node_++ % kNodes;
      p.id = ObjectId::FromName("rm-put-" + std::to_string(seed_) + "-" +
                                std::to_string(put_seq_++));
      int32_t span = tracer.Child(kCreate, root);
      p.issued = Now();
      p.create = clients_[p.node]->CreateAsync(p.id, kObjectBytes, 0, false,
                                               deadline);
      tracer.EndOnReady(span, p.create);
    }
    m->puts += puts.size();
    m->attempted += puts.size();

    for (Put& p : puts) {
      auto created = p.create.Take();
      Status written = created.status();
      if (written.ok()) {
        ScopedSpan span(tracer, kWrite, root);
        written = created->WriteData(0, put_payload_.data(), kObjectBytes);
      }
      if (!written.ok()) continue;
      int32_t span = tracer.Child(kSeal, root);
      p.seal = clients_[p.node]->SealAsync(p.id, deadline);
      tracer.EndOnReady(span, p.seal);
    }

    for (Get& g : gets) {
      auto buffer = g.reply.Take();
      bool ok = buffer.ok() && VerifyObject(*buffer, crc_[g.obj], tracer, root, m);
      if (buffer.ok() && buffer->valid()) {
        int32_t rel = tracer.Child(kRelease, root);
        auto ack = clients_[g.node]->ReleaseAsync(ids_[g.obj]);
        tracer.EndOnReady(rel, ack);
        releases_.Push(std::move(ack));
        ++m->attempted;
      }
      double ms = Ms(Now() - g.issued);
      if (ok) {
        m->get_ms.push_back(ms);
        (buffer->is_remote() ? m->get_remote_ms : m->get_local_ms).push_back(ms);
      } else {
        m->Fail(m->get_ms, ms);
      }
    }

    for (Put& p : puts) {
      bool ok = p.seal.valid() && p.seal.Take().ok();
      double ms = Ms(Now() - p.issued);
      if (!ok) {
        m->Fail(m->put_ms, ms);
        continue;
      }
      ++m->seals_acked;
      m->put_ms.push_back(ms);
      live_.push_back({p.node, p.id});
      if (live_.size() > live_cap_) {
        auto [node, id] = live_.front();
        live_.pop_front();
        int32_t span = tracer.Child(kDelete, root);
        auto ack = clients_[node]->DeleteAsync(id, deadline);
        tracer.EndOnReady(span, ack);
        deletes_.Push(std::move(ack));
        ++m->attempted;
      }
    }
    tracer.End(root);
  }

 private:
  uint64_t seed_;
  size_t objects_;
  size_t live_cap_, warm_windows_;
  bool corrupt_;
  Zipf zipf_;
  SplitMix64 rng_;
  std::vector<size_t> perm_;
  std::vector<size_t> home_;
  std::vector<ObjectId> ids_;
  std::vector<uint32_t> crc_;
  std::vector<uint8_t> put_payload_;
  std::unique_ptr<cluster::Cluster> cluster_;
  std::array<std::unique_ptr<plasma::AsyncClient>, kNodes> clients_;
  std::deque<std::pair<size_t, ObjectId>> live_;
  uint64_t put_seq_ = 0;
  size_t put_node_ = 0;
  uint64_t request_ = 0;
};

// ---- host probes -----------------------------------------------------------

// Round trip of 8 bytes over a Unix socketpair between two threads, µs
// (median of five batches).
double ProbeUdsRttUs() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return 0;
  std::thread echo([fd = fds[1]] {
    uint64_t v = 0;
    while (::read(fd, &v, sizeof(v)) == sizeof(v)) {
      if (::write(fd, &v, sizeof(v)) != sizeof(v)) break;
    }
  });
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    int64_t t0 = Now();
    for (uint64_t i = 0; i < 400; ++i) {
      uint64_t v = i;
      if (::write(fds[0], &v, sizeof(v)) != sizeof(v) ||
          ::read(fds[0], &v, sizeof(v)) != sizeof(v)) {
        break;
      }
    }
    batches.push_back((Now() - t0) / 400.0 / 1e3);
  }
  ::shutdown(fds[0], SHUT_RDWR);
  echo.join();
  ::close(fds[0]);
  ::close(fds[1]);
  return Quantile(batches, 0.5);
}

// Host memcpy bandwidth over 32 MiB, GiB/s (median of five copies).
double ProbeMemcpyGiBps() {
  std::vector<uint8_t> src(32 * kMiB, 1), dst(32 * kMiB, 0);
  std::vector<double> rates;
  for (int i = 0; i < 5; ++i) {
    src[i] = static_cast<uint8_t>(i);
    int64_t t0 = Now();
    std::memcpy(dst.data(), src.data(), src.size());
    int64_t t1 = Now();
    if (dst[i] != src[i]) return 0;
    rates.push_back(src.size() / ((t1 - t0) / 1e9) / kGiB);
  }
  return Quantile(rates, 0.5);
}

// ---- output ----------------------------------------------------------------

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + name + "\": {\"value\": " + Number(value) +
             ", \"unit\": \"" + unit + "\"}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload consume_mapped|local_churn|"
               "replicated_mixed --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--toy] [--corrupt-crc]\n",
               argv0);
  return 2;
}

std::unique_ptr<Workload> MakeWorkload(const Args& a) {
  if (a.workload == "consume_mapped") {
    return std::make_unique<ConsumeMapped>(a.seed, a.toy, a.corrupt_crc);
  }
  if (a.workload == "local_churn") {
    return std::make_unique<LocalChurn>(a.seed, a.toy, a.corrupt_crc);
  }
  if (a.workload == "replicated_mixed") {
    return std::make_unique<ReplicatedMixed>(a.seed, a.toy, a.corrupt_crc);
  }
  return nullptr;
}

// Per-layer metrics of one traced phase. Every workload prints every
// metric, so none has a time unit while it is structurally zero on some
// workload; such figures go to the RESULT line instead.
void AddLayerMetrics(MetricsJson& j, const Measurement& m,
                     const Counters& d, const SpanSummary& s,
                     const std::vector<SetupTimes>& setups,
                     const Measurement& untraced, uint64_t attempted,
                     uint64_t failed, double uds_rtt_us, double memcpy_gibps) {
  const double ops = static_cast<double>(m.ops());
  j.Add("plasma.client.get_wait_p50_ms", Quantile(s.dur_ms[kGet], 0.5), "ms");
  j.Add("plasma.client.read_p50_ms", Quantile(s.dur_ms[kRead], 0.5), "ms");
  j.Add("plasma.client.create_wait_p50_ms", Quantile(s.dur_ms[kCreate], 0.5), "ms");
  j.Add("plasma.client.seal_wait_p50_ms", Quantile(s.dur_ms[kSeal], 0.5), "ms");
  j.Add("plasma.client.seal_wait_p99_ms", Quantile(s.dur_ms[kSeal], 0.99), "ms");
  j.Add("plasma.client.release_wait_p50_ms", Quantile(s.dur_ms[kRelease], 0.5), "ms");

  double read_ms = 0;
  for (double v : s.dur_ms[kRead]) read_ms += v;
  j.Add("tf.remote_reads_per_object", Ratio(d.remote_reads, m.remote_objects), "ratio");
  j.Add("tf.remote_read_bytes_per_payload_byte",
        Ratio(d.remote_read_bytes, m.remote_payload_bytes), "ratio");
  j.Add("tf.read_gibps", Ratio(m.payload_bytes, read_ms / 1e3) / kGiB, "GiB/s");

  j.Add("plasma.store.mapped_reads_per_remote_get",
        Ratio(d.mapped_reads, m.remote_objects), "ratio");
  j.Add("plasma.store.mapped_fallbacks_per_mapped_read",
        Ratio(d.mapped_fallbacks, d.mapped_reads), "ratio");
  j.Add("plasma.store.restores_per_get", Ratio(d.restores, m.objects), "ratio");
  j.Add("plasma.store.spills_per_op", Ratio(d.spills, ops), "ratio");
  j.Add("plasma.store.evictions_per_put", Ratio(d.evictions, m.puts), "ratio");
  j.Add("plasma.store.inflight_gets_max", m.inflight_gets_max, "count");
  j.Add("alloc.pool_fill", d.pool_fill, "ratio");

  j.Add("net.frames_per_writev", Ratio(d.frames_tx, d.writev_calls), "ratio");
  j.Add("net.bytes_tx_per_op", Ratio(d.bytes_tx, ops), "B");
  j.Add("net.egress_blocked_events", d.egress_blocked, "count");

  j.Add("dist.lookup_rpcs_per_remote_get", Ratio(d.lookup_rpcs, m.remote_objects), "ratio");
  j.Add("dist.probe_rpcs_per_put", Ratio(d.probe_rpcs, m.puts), "ratio");
  j.Add("dist.pin_rpcs_per_get", Ratio(d.pin_rpcs, m.objects), "ratio");
  j.Add("dist.index_hits_per_remote_get", Ratio(d.index_hits, m.remote_objects), "ratio");
  j.Add("dist.replicate_rpcs_per_put", Ratio(d.replicate_rpcs, m.puts), "ratio");
  j.Add("dist.hedged_reads", d.hedged_reads, "count");
  j.Add("dist.hedge_wins", d.hedge_wins, "count");
  j.Add("dist.failed_rpcs", d.failed_rpcs, "count");

  j.Add("rpc.server_calls_per_op", Ratio(d.rpc_calls, ops), "ratio");
  j.Add("rpc.bytes_in_per_put", Ratio(d.rpc_bytes_in, m.puts), "B");
  j.Add("rpc.shed", d.rpc_shed, "count");

  std::vector<double> start_s, load_s;
  for (const SetupTimes& t : setups) {
    start_s.push_back(t.start_s);
    load_s.push_back(t.load_s);
  }
  j.Add("cluster.start_s", Quantile(start_s, 0.5), "s");
  j.Add("cluster.load_s", Quantile(load_s, 0.5), "s");

  j.Add("gen.ops_attempted", attempted, "count");
  j.Add("gen.ops_failed", failed, "count");
  j.Add("gen.remote_get_share", Ratio(m.remote_objects, m.objects), "ratio");
  // The generator's own figures, from the last untraced phase.
  const Measurement& u = untraced;
  j.Add("gen.ops_s", Ratio(u.ops(), u.seconds), "1/s");
  j.Add("gen.get_p99_ms", Quantile(u.get_ms, 0.99), "ms");
  j.Add("gen.put_p99_ms", Quantile(u.put_ms, 0.99), "ms");

  const double traced_p50 = Quantile(m.get_ms, 0.5);
  const double plain_p50 = Quantile(u.get_ms, 0.5);
  j.Add("trace.overhead_pct", 100.0 * Ratio(traced_p50 - plain_p50, plain_p50), "%");
  j.Add("trace.spans", s.spans, "count");
  for (int n = 0; n < kSpanNames; ++n) {
    j.Add(std::string("trace.") + kSpanLabel[n] + ".self_us_per_op",
          1e3 * Ratio(s.self_ms[n], s.roots), "us");
  }
  j.Add("host.uds_rtt_us", uds_rtt_us, "us");
  j.Add("host.memcpy_gibps", memcpy_gibps, "GiB/s");
}

int Main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (arg == "--workload") a.workload = value();
    else if (arg == "--seed") a.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") a.seconds = std::atof(value().c_str());
    else if (arg == "--trace") a.trace = value() == "1";
    else if (arg == "--out-dir") a.out_dir = value();
    else if (arg == "--toy") a.toy = true;
    else if (arg == "--corrupt-crc") a.corrupt_crc = true;
    else return Usage(argv[0]);
  }
  std::unique_ptr<Workload> w = MakeWorkload(a);
  if (w == nullptr || !(a.seconds > 0)) return Usage(argv[0]);

  SetLogLevel(LogLevel::kError);
  namespace fs = std::filesystem;
  const std::string run_dir = a.out_dir + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  fs::create_directories(run_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", run_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  g_socket_dir = run_dir;

  // Every set-up is followed by an untraced phase on its fresh cluster.
  // A phase's figure is taken over all its samples, and each end-to-end
  // figure is the median over the phases: a state that lasts for one
  // cluster's lifetime (thread placement, allocator layout, a noisy
  // neighbour) moves one phase, not the median. A traced run adds one
  // traced phase on the last cluster.
  const int64_t phase_ns =
      static_cast<int64_t>(a.seconds * 1e9 / (kSetups + (a.trace ? 1 : 0)));
  std::vector<SetupTimes> setups(kSetups);
  Tracer tracer;
  Measurement plain, traced;  // the last untraced phase, the traced one
  std::vector<double> get_p50, get_p90, put_p50, put_p90, read_gibps;
  std::vector<std::string> problems;
  uint64_t attempted = 0, failed = 0, wrong = 0;
  for (int i = 0; i < kSetups; ++i) {
    Measurement m;
    Status st = w->Setup(run_dir, i, &setups[i], &m);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up %d failed: %s\n", i, st.ToString().c_str());
      w.reset();
      fs::remove_all(run_dir, ec);
      return 1;
    }
    const Counters before = ReadCounters(w->cluster());
    w->Run(Now() + phase_ns, tracer, &m);
    w->Quiesce(&m);
    w->CrossCheck(ReadCounters(w->cluster()).Minus(before), m, &problems);
    get_p50.push_back(Quantile(m.get_ms, 0.5));
    get_p90.push_back(Quantile(m.get_ms, 0.9));
    put_p50.push_back(Quantile(m.put_ms, 0.5));
    put_p90.push_back(Quantile(m.put_ms, 0.9));
    read_gibps.push_back(m.ReadGiBps());    attempted += m.attempted;
    failed += m.failed;
    wrong += m.wrong;
    plain = std::move(m);
  }
  const Counters c1 = ReadCounters(w->cluster());
  Counters traced_delta;
  if (a.trace) {
    tracer.Enable();
    w->Run(Now() + phase_ns, tracer, &traced);
    w->Quiesce(&traced);
    traced_delta = ReadCounters(w->cluster()).Minus(c1);
    w->CrossCheck(traced_delta, traced, &problems);
    attempted += traced.attempted;
    failed += traced.failed;
    wrong += traced.wrong;
  }
  const std::string describe = w->Describe(plain);
  w.reset();  // stops every cluster thread before the report
  fs::remove_all(run_dir, ec);
  // Peak RSS is read before the host probes allocate their buffers.
  const double rss_mb = PeakRssMb();
  const double uds_rtt_us = ProbeUdsRttUs();
  const double memcpy_gibps = ProbeMemcpyGiBps();

  if (wrong != 0) {
    problems.push_back(std::to_string(wrong) + " reads returned wrong bytes");
  }
  const bool correct = problems.empty();
  for (const std::string& p : problems) std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());

  std::vector<double> setup_s;
  for (const SetupTimes& t : setups) setup_s.push_back(t.total_s);
  MetricsJson metrics;
  if (!a.trace) {
    metrics.Add("get_p50_ms", Quantile(get_p50, 0.5), "ms");
    metrics.Add("get_p90_ms", Quantile(get_p90, 0.5), "ms");
    metrics.Add("put_p50_ms", Quantile(put_p50, 0.5), "ms");
    metrics.Add("put_p90_ms", Quantile(put_p90, 0.5), "ms");
    metrics.Add("read_gibps", Quantile(read_gibps, 0.5), "GiB/s");
    metrics.Add("setup_s", Quantile(setup_s, 0.5), "s");
    metrics.Add("rss_mb", rss_mb, "MB");
  } else {
    SpanSummary summary = Summarize(tracer.Snapshot());
    AddLayerMetrics(metrics, traced, traced_delta, summary, setups, plain,
                    attempted, failed, uds_rtt_us, memcpy_gibps);
    fs::create_directories(a.out_dir + "/traces", ec);
    std::string path = a.out_dir + "/traces/" + a.workload + "-seed" +
                       std::to_string(a.seed) + ".json";
    WriteChromeTrace(path, tracer.Snapshot(), metrics.str());
    std::printf("trace: %s (%llu spans)\n", path.c_str(),
                static_cast<unsigned long long>(summary.spans));
  }
  // The fabric model's bandwidth ceilings are the base for read_gibps and
  // tf.read_gibps: remote for consume_mapped, local for local_churn.
  std::printf("RESULT workload=%s seed=%llu samples_get=%zu samples_put=%zu "
              "get_p99_ms=%.4f put_p99_ms=%.4f peer_ewma_ms=%.4f "
              "model_remote_gibps=%.4f model_local_gibps=%.4f %s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              plain.get_ms.size(), plain.put_ms.size(),
              Quantile(plain.get_ms, 0.99), Quantile(plain.put_ms, 0.99),
              c1.peer_ewma_ms, tf::ScaledRemoteParams(kScale).bandwidth_gib_per_s,
              tf::ScaledLocalParams(kScale).bandwidth_gib_per_s, describe.c_str());
  std::printf("HOST uds_rtt_us=%.3f memcpy_gibps=%.3f\n", uds_rtt_us, memcpy_gibps);
  std::printf("SETUP");
  for (const SetupTimes& t : setups) {
    std::printf(" start=%.4f/load=%.4f/total=%.4f", t.start_s, t.load_s, t.total_s);
  }
  std::printf("\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed), metrics.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mdos::perfbench

int main(int argc, char** argv) { return mdos::perfbench::Main(argc, argv); }
