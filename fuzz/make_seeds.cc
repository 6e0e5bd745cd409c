// Seed-corpus generator for the fuzz/ harnesses.
//
// Writes the checked-in seed corpus under a target directory, or checks
// that the directory already holds exactly what it would write:
//
//   make_fuzz_seeds <corpus-root>
//   make_fuzz_seeds --check <corpus-root>
//
// Seeds are derived from the real encoders so they start deep inside the
// decoders (valid frames, one valid message per wire shape, a genuine
// spill segment), plus hand-broken variants covering the malformed-input
// classes the decoders must reject: truncated headers, hostile lengths,
// wrapped size sums, corrupt CRCs. Generation is deterministic, so the
// check (a ctest) fails when a seed is missing or stale, and because the
// committed seeds are encoder output, it also fails when the bytes a
// message encodes to change. After a deliberate protocol change, run the
// tool without --check and commit the changed files.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/object_id.h"
#include "dist/messages.h"
#include "net/frame.h"
#include "plasma/protocol.h"
#include "plasma/spill_file.h"
#include "wire/wire.h"
#include "wire_shapes.h"

namespace {

using mdos::ObjectId;
// A peer RPC payload: the bare message, no request-id tag.
using mdos::wire_shapes::EncodeBytes;

// --check: compare against the files instead of writing them.
bool g_check = false;
int g_stale = 0;

std::optional<std::vector<uint8_t>> ReadFile(const char* path) {
  FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return std::nullopt;
  std::vector<uint8_t> bytes;
  uint8_t chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteSeed(const std::string& dir, const std::string& name,
               const void* data, size_t size) {
  const std::string path = dir + "/" + name;
  if (g_check) {
    const auto committed = ReadFile(path.c_str());
    const auto* bytes = static_cast<const uint8_t*>(data);
    if (committed != std::vector<uint8_t>(bytes, bytes + size)) {
      std::fprintf(stderr, "%s: %s\n", committed ? "stale" : "missing",
                   path.c_str());
      ++g_stale;
    }
    return;
  }
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::perror(path.c_str());
    std::exit(1);
  }
  if (size > 0 && std::fwrite(data, 1, size, f) != size) {
    std::perror(path.c_str());
    std::exit(1);
  }
  std::fclose(f);
}

void WriteSeed(const std::string& dir, const std::string& name,
               const std::vector<uint8_t>& bytes) {
  WriteSeed(dir, name, bytes.data(), bytes.size());
}

std::string EnsureDir(const std::string& root, const char* target) {
  const std::string dir = root + "/" + target;
  if (!g_check) ::mkdir(dir.c_str(), 0755);
  return dir;
}

// Builds one wire frame: header (magic, type, length, crc) || payload.
std::vector<uint8_t> BuildFrame(uint32_t magic, uint32_t type,
                                uint32_t length, uint32_t crc,
                                const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out(16 + payload.size());
  std::memcpy(out.data() + 0, &magic, 4);
  std::memcpy(out.data() + 4, &type, 4);
  std::memcpy(out.data() + 8, &length, 4);
  std::memcpy(out.data() + 12, &crc, 4);
  // std::copy, not memcpy: an empty payload's data() may be null.
  std::copy(payload.begin(), payload.end(), out.begin() + 16);
  return out;
}

std::vector<uint8_t> ValidFrame(uint32_t type,
                                const std::vector<uint8_t>& payload) {
  return BuildFrame(mdos::net::kFrameMagic, type,
                    static_cast<uint32_t>(payload.size()),
                    mdos::Crc32(payload.data(), payload.size()), payload);
}

template <typename Message>
std::vector<uint8_t> EncodeTagged(uint64_t request_id, const Message& msg) {
  mdos::wire::Writer w;
  mdos::plasma::EncodeMessage(w, request_id, msg);
  return std::vector<uint8_t>(w.data(), w.data() + w.size());
}

void MakeFrameSeeds(const std::string& root) {
  const std::string dir = EnsureDir(root, "fuzz_frame");

  mdos::plasma::ListRequest list;
  const auto tagged = EncodeTagged(7, list);
  WriteSeed(dir, "valid_list_request", ValidFrame(17, tagged));
  WriteSeed(dir, "valid_empty_payload", ValidFrame(1, {}));

  // Malformed classes the decoder must reject or defer on.
  auto truncated = ValidFrame(17, tagged);
  truncated.resize(10);  // mid-header
  WriteSeed(dir, "truncated_header", truncated);

  auto bad_magic = ValidFrame(17, tagged);
  bad_magic[0] ^= 0xFF;
  WriteSeed(dir, "bad_magic", bad_magic);

  // Length field larger than the buffer (partial-frame path).
  WriteSeed(dir, "length_past_buffer",
            BuildFrame(mdos::net::kFrameMagic, 17, 1 << 16, 0, tagged));

  // Length field past the 64 MiB cap (hostile-length rejection).
  WriteSeed(dir, "length_over_cap",
            BuildFrame(mdos::net::kFrameMagic, 17, UINT32_MAX, 0, {}));

  // Valid header, corrupt payload byte: CRC must catch it.
  auto corrupt_payload = ValidFrame(17, tagged);
  corrupt_payload.back() ^= 0xFF;
  WriteSeed(dir, "corrupt_payload_crc", corrupt_payload);
}

void MakeWireSeeds(const std::string& root) {
  const std::string dir = EnsureDir(root, "fuzz_wire");

  mdos::wire::Writer w;
  w.PutU8(3);
  w.PutU32(0xDEADBEEF);
  w.PutU64(1ull << 40);
  w.PutVarint(300);
  w.PutVarintSigned(-12345);
  w.PutString("hello wire");
  w.PutObjectId(ObjectId::FromName("seed-object"));
  WriteSeed(dir, "mixed_scalars",
            std::vector<uint8_t>(w.data(), w.data() + w.size()));

  // Repeated field with an honest count.
  mdos::wire::Writer rep;
  std::vector<uint64_t> values = {1, 2, 3, 1ull << 33};
  rep.PutRepeated(values, [](mdos::wire::Writer& ww, uint64_t v) {
    ww.PutVarint(v);
  });
  WriteSeed(dir, "repeated_varints",
            std::vector<uint8_t>(rep.data(), rep.data() + rep.size()));

  // Hostile repeated count: names 2^24 elements, carries none.
  mdos::wire::Writer hostile;
  hostile.PutVarint(1u << 24);
  WriteSeed(dir, "hostile_repeated_count",
            std::vector<uint8_t>(hostile.data(),
                                 hostile.data() + hostile.size()));

  // Truncated varint (continuation bit set at end of buffer).
  const uint8_t dangling[] = {0xFF, 0xFF, 0xFF};
  WriteSeed(dir, "truncated_varint", dangling, sizeof(dangling));

  // String length prefix pointing past the buffer.
  mdos::wire::Writer lying;
  lying.PutVarint(1000);
  lying.PutU8('x');
  WriteSeed(dir, "string_length_past_end",
            std::vector<uint8_t>(lying.data(), lying.data() + lying.size()));
}

void MakeProtocolSeeds(const std::string& root) {
  const std::string dir = EnsureDir(root, "fuzz_protocol");
  using namespace mdos::plasma;

  ConnectRequest connect;
  connect.client_name = "seed-client";
  WriteSeed(dir, "connect_request", EncodeTagged(1, connect));

  CreateRequest create;
  create.id = ObjectId::FromName("seed-create");
  create.data_size = 4096;
  create.metadata_size = 16;
  WriteSeed(dir, "create_request", EncodeTagged(2, create));

  GetRequest get;
  get.ids = {ObjectId::FromName("a"), ObjectId::FromName("b")};
  get.timeout_ms = 100;
  WriteSeed(dir, "get_request", EncodeTagged(3, get));

  GetReply reply;
  GetReplyEntry entry;
  entry.id = ObjectId::FromName("a");
  entry.data_size = 64;
  entry.found = true;
  reply.entries.push_back(entry);
  WriteSeed(dir, "get_reply", EncodeTagged(3, reply));

  StatsRequest stats;
  WriteSeed(dir, "stats_request", EncodeTagged(4, stats));

  Notification note;
  note.id = ObjectId::FromName("sealed-object");
  WriteSeed(dir, "notification", EncodeTagged(0, note));

  // Truncated mid-message: valid header, body cut short.
  auto cut = EncodeTagged(2, create);
  cut.resize(cut.size() / 2);
  WriteSeed(dir, "truncated_body", cut);

  // Tag header alone (every decoder's minimum-length edge), and the
  // header cut before its deadline varint.
  const auto tag_only = EncodeTagged(9, ListRequest{});
  WriteSeed(dir, "tag_header_only", tag_only);
  WriteSeed(dir, "tag_header_without_deadline",
            std::vector<uint8_t>(tag_only.begin(), tag_only.begin() + 8));

  // Peer RPC payloads (dist/messages.h), decoded by the same harness.
  mdos::dist::LookupRequest lookup;
  lookup.ids = {ObjectId::FromName("a"), ObjectId::FromName("b")};
  WriteSeed(dir, "peer_lookup_request", EncodeBytes(lookup));

  mdos::dist::LookupReply located;
  mdos::dist::LookupEntry hit;
  hit.id = ObjectId::FromName("a");
  hit.found = true;
  hit.location.home_node = 1;
  hit.location.offset = 4096;
  hit.location.data_size = 64;
  located.entries.push_back(hit);
  WriteSeed(dir, "peer_lookup_reply", EncodeBytes(located));

  mdos::dist::ReplicateRequest replicate;
  replicate.id = ObjectId::FromName("seed-replica");
  replicate.from_node = 0;
  replicate.origin_node = 0;
  replicate.desired_copies = 2;
  replicate.copy_nodes = {0, 1};
  replicate.region = 0;
  replicate.offset = 8192;
  replicate.data_size = 16384;
  replicate.metadata_size = 16;
  replicate.crc = 0x2144df1c;
  WriteSeed(dir, "peer_replicate_request", EncodeBytes(replicate));

  // One seed per wire shape, every field filled, framed the way the
  // harness decodes it.
  mdos::wire_shapes::ForEachWireShape([&dir](const auto& shape) {
    mdos::wire_shapes::ShapeType<decltype(shape)> msg{};
    mdos::wire_shapes::Filler filler;
    filler.Fill(msg);
    WriteSeed(dir, shape.name,
              shape.tagged ? EncodeTagged(7, msg) : EncodeBytes(msg));
  });
}

void MakeSpillSeeds(const std::string& root) {
  const std::string dir = EnsureDir(root, "fuzz_spill_recover");

  // A genuine two-record segment, written by the real code.
  char path[] = "/tmp/mdos_seed_spill_XXXXXX";
  int fd = ::mkstemp(path);
  if (fd < 0) {
    std::perror("mkstemp");
    std::exit(1);
  }
  ::close(fd);
  {
    auto opened = mdos::plasma::SpillFile::Open(path);
    if (!opened.ok()) {
      std::fprintf(stderr, "spill open failed\n");
      std::exit(1);
    }
    mdos::plasma::SpillFile file = std::move(opened).value();
    std::vector<uint8_t> payload(256);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i);
    }
    (void)file.Append(ObjectId::FromName("spill-a"), payload.data(), 200,
                      56);
    (void)file.Append(ObjectId::FromName("spill-b"), payload.data(), 256,
                      0);
  }
  const std::vector<uint8_t> image = ReadFile(path).value();
  ::unlink(path);
  WriteSeed(dir, "valid_two_records", image);

  // Torn tail: final record cut mid-payload.
  auto torn = image;
  torn.resize(torn.size() - 100);
  WriteSeed(dir, "torn_tail", torn);

  // Corrupt payload byte under an intact header: payload CRC must catch
  // it and Recover must keep walking to the next record.
  auto corrupt = image;
  corrupt[56 + 10] ^= 0xFF;  // first record's payload
  WriteSeed(dir, "corrupt_payload_crc", corrupt);

  // Hostile header with a VALID header CRC: size fields chosen so the
  // naive sums wrap around. Regression input for the overflow-safe
  // framing checks in Recover. Record header layout (56 bytes):
  //   [ magic u32 | header_crc u32 | slot_capacity u64 | data_size u64 |
  //     metadata_size u64 | payload_crc u32 | object id (20 bytes) ]
  // header_crc covers bytes [8, 56).
  std::vector<uint8_t> hostile(56 + 16, 0);
  const uint32_t live_magic = 0x4C50534D;
  const uint64_t capacity = 16;
  const uint64_t data_size = UINT64_MAX - 7;   // data + metadata wraps to 8
  const uint64_t metadata_size = 15;
  // CRC of the 8 payload bytes the wrapped sum names, so the unhardened
  // walk would have fully admitted this record (sizes and all).
  const uint32_t payload_crc = mdos::Crc32(hostile.data(), 8);
  std::memcpy(hostile.data() + 0, &live_magic, 4);
  std::memcpy(hostile.data() + 8, &capacity, 8);
  std::memcpy(hostile.data() + 16, &data_size, 8);
  std::memcpy(hostile.data() + 24, &metadata_size, 8);
  std::memcpy(hostile.data() + 32, &payload_crc, 4);
  const uint32_t header_crc = mdos::Crc32(hostile.data() + 8, 56 - 8);
  std::memcpy(hostile.data() + 4, &header_crc, 4);
  WriteSeed(dir, "wrapping_size_sum", hostile);

  // Slot capacity that would wrap offset + header + capacity past zero.
  std::vector<uint8_t> wrapcap(56, 0);
  const uint64_t huge_capacity = UINT64_MAX - 32;
  std::memcpy(wrapcap.data() + 0, &live_magic, 4);
  std::memcpy(wrapcap.data() + 8, &huge_capacity, 8);
  const uint32_t wrap_crc = mdos::Crc32(wrapcap.data() + 8, 56 - 8);
  std::memcpy(wrapcap.data() + 4, &wrap_crc, 4);
  WriteSeed(dir, "wrapping_slot_capacity", wrapcap);

  // Garbage that is not even a header.
  const uint8_t noise[] = {0x4D, 0x53, 0x50, 0x4C, 0x00, 0x01};
  WriteSeed(dir, "short_garbage", noise, sizeof(noise));
}

}  // namespace

int main(int argc, char** argv) {
  g_check = argc == 3 && std::strcmp(argv[1], "--check") == 0;
  if (argc != 2 && !g_check) {
    std::fprintf(stderr, "usage: %s [--check] <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::string root = argv[argc - 1];
  if (!g_check) ::mkdir(root.c_str(), 0755);
  MakeFrameSeeds(root);
  MakeWireSeeds(root);
  MakeProtocolSeeds(root);
  MakeSpillSeeds(root);
  if (g_check) {
    if (g_stale > 0) {
      std::fprintf(stderr,
                   "%d seed(s) differ from what make_fuzz_seeds writes; "
                   "regenerate with: make_fuzz_seeds %s\n",
                   g_stale, root.c_str());
      return 1;
    }
    std::printf("seed corpus under %s is current\n", root.c_str());
    return 0;
  }
  std::printf("seed corpus written under %s\n", root.c_str());
  return 0;
}
