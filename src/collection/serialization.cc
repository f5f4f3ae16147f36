#include "collection/serialization.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>

namespace setdisc {

namespace {

constexpr uint64_t kMagic = 0x5345544449534331ULL;  // "SETDISC1"

/// The text format's separators: the C locale's six whitespace bytes.
bool IsTextSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

}  // namespace

Status SaveCollectionBinary(const SetCollection& collection,
                            const std::string& path) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::IoError("cannot open for write: " + path);

  uint64_t magic = kMagic;
  uint64_t n = collection.num_sets();
  uint64_t m = collection.universe_size();
  uint64_t total = collection.total_elements();
  f.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  f.write(reinterpret_cast<const char*>(&n), sizeof n);
  f.write(reinterpret_cast<const char*>(&m), sizeof m);
  f.write(reinterpret_cast<const char*>(&total), sizeof total);
  for (SetId s = 0; s < collection.num_sets(); ++s) {
    uint64_t sz = collection.set_size(s);
    f.write(reinterpret_cast<const char*>(&sz), sizeof sz);
    auto elems = collection.set(s);
    f.write(reinterpret_cast<const char*>(elems.data()),
            static_cast<std::streamsize>(elems.size() * sizeof(EntityId)));
  }
  if (!f) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Status LoadCollectionBinary(const std::string& path, SetCollection* out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return Status::IoError("cannot open for read: " + path);

  // Account for every byte before allocating anything: the header's counts
  // must agree with the file's actual size EXACTLY, so a truncated file, a
  // garbage count (which would otherwise drive a giant vector resize), and
  // trailing junk are all rejected up front with a clear error.
  f.seekg(0, std::ios::end);
  const std::streamoff file_size = f.tellg();
  f.seekg(0, std::ios::beg);
  constexpr std::streamoff kHeaderBytes = 4 * sizeof(uint64_t);
  if (file_size < kHeaderBytes) {
    return Status::Corruption("truncated header: " + path);
  }

  uint64_t magic = 0, n = 0, m = 0, total = 0;
  f.read(reinterpret_cast<char*>(&magic), sizeof magic);
  f.read(reinterpret_cast<char*>(&n), sizeof n);
  f.read(reinterpret_cast<char*>(&m), sizeof m);
  f.read(reinterpret_cast<char*>(&total), sizeof total);
  if (!f || magic != kMagic) return Status::Corruption("bad header: " + path);

  const uint64_t body = static_cast<uint64_t>(file_size - kHeaderBytes);
  if (n > body / sizeof(uint64_t)) {
    return Status::Corruption("set count exceeds file size: " + path);
  }
  const uint64_t elem_bytes = body - n * sizeof(uint64_t);
  if (total > elem_bytes / sizeof(EntityId) ||
      total * sizeof(EntityId) != elem_bytes) {
    return Status::Corruption(
        "declared sizes disagree with file size (truncated or trailing "
        "bytes): " + path);
  }

  SetCollectionBuilder builder;
  uint64_t remaining = total;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t sz = 0;
    f.read(reinterpret_cast<char*>(&sz), sizeof sz);
    if (!f) return Status::Corruption("truncated set header: " + path);
    // The per-set size is bounded by the element budget the header declared
    // (and the budget was bounded by the file size above), so a corrupt
    // interior length cannot over-allocate or over-read either.
    if (sz > remaining) {
      return Status::Corruption("set size exceeds declared total: " + path);
    }
    remaining -= sz;
    std::vector<EntityId> elems(sz);
    f.read(reinterpret_cast<char*>(elems.data()),
           static_cast<std::streamsize>(sz * sizeof(EntityId)));
    if (!f) return Status::Corruption("truncated set body: " + path);
    for (EntityId e : elems) {
      if (uint64_t{e} >= m) {
        return Status::Corruption("entity id out of universe range: " + path);
      }
    }
    builder.AddSet(std::move(elems));
  }
  if (remaining != 0) {
    return Status::Corruption("element count mismatch: " + path);
  }
  *out = builder.Build();
  return Status::OK();
}

Status SaveCollectionText(const SetCollection& collection,
                          const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Status::IoError("cannot open for write: " + path);
  for (SetId s = 0; s < collection.num_sets(); ++s) {
    bool first = true;
    for (EntityId e : collection.set(s)) {
      if (!first) f << ' ';
      first = false;
      f << collection.EntityName(e);
    }
    f << '\n';
  }
  if (!f) return Status::IoError("write failed: " + path);
  return Status::OK();
}

namespace {

Status ReadCollectionText(const std::string& path, SetCollection* out) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) return Status::IoError("cannot open for read: " + path);
  // The buffer below is the only one; stdio's own would copy every byte.
  std::setvbuf(f.get(), nullptr, _IONBF, 0);

  SetCollectionBuilder builder;
  std::vector<std::string_view> names;
  std::vector<EntityId> ids;
  auto add_line = [&](const char* p, const char* end) {
    if (p == end || *p == '#') return;
    names.clear();
    while (true) {
      while (p != end && IsTextSpace(*p)) ++p;
      if (p == end) break;
      const char* name = p;
      while (p != end && !IsTextSpace(*p)) ++p;
      names.emplace_back(name, p - name);
    }
    if (names.empty()) return;
    ids.clear();
    builder.dict().InternAll(names, &ids);
    builder.AddSet(ids);
  };

  // Bytes [begin, end) of `buf` are read but not yet consumed; the ones
  // before `scanned` hold no newline. A partial last line moves to the
  // front before each refill, and the buffer doubles only when one line
  // fills it.
  std::vector<char> buf(kTextReadBufferBytes);
  size_t begin = 0, scanned = 0, end = 0;
  while (true) {
    const size_t want = buf.size() - end;
    const size_t got = std::fread(buf.data() + end, 1, want, f.get());
    end += got;
    const bool last = got < want;
    if (last && std::ferror(f.get())) {
      return Status::IoError("read failed: " + path);
    }
    const char* data = buf.data();
    while (const void* nl = std::memchr(data + scanned, '\n', end - scanned)) {
      const size_t line_end = static_cast<const char*>(nl) - data;
      add_line(data + begin, data + line_end);
      begin = scanned = line_end + 1;
    }
    if (last) {
      add_line(data + begin, data + end);
      break;
    }
    std::memmove(buf.data(), data + begin, end - begin);
    end -= begin;
    begin = 0;
    scanned = end;
    if (end == buf.size()) buf.resize(2 * buf.size());
  }
  *out = builder.Build();
  return Status::OK();
}

}  // namespace

Status LoadCollectionText(const std::string& path, SetCollection* out) {
  Status status = ReadCollectionText(path, out);
#ifdef __GLIBC__
  // The load frees its working set (the builder's per-set vectors, the read
  // buffer) in the middle of the heap, under the collection it built, and
  // glibc keeps those pages resident. Returning them here keeps a serving
  // process's peak RSS down: without it, perfbench's parked_resume_wal
  // peaked at ~29 MB instead of ~22 MB.
  malloc_trim(0);
#endif
  return status;
}

}  // namespace setdisc
