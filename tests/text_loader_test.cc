// Tests for LoadCollectionText: the text format's byte semantics as a golden
// table, a fingerprint pinned to a literal, read errors, and a seeded
// differential run against the line-at-a-time reference loader
// (std::getline + std::istringstream) the streaming loader replaced.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "collection/serialization.h"
#include "collection/set_collection.h"
#include "util/rng.h"

namespace setdisc {
namespace {

using namespace std::string_literals;

class TextLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "setdisc_text_" + std::to_string(::getpid());
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/collection.txt";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `bytes` to the test file and returns its path.
  const std::string& Write(const std::string& bytes) {
    std::ofstream f(path_, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path_;
  }

  std::string dir_;
  std::string path_;
};

/// The collection's sets as names (each set in id order) and its names by id.
struct Named {
  std::vector<std::vector<std::string>> sets;
  std::vector<std::string> names;
  bool operator==(const Named&) const = default;
};

Named ToNamed(const SetCollection& c) {
  Named out;
  for (SetId s = 0; s < c.num_sets(); ++s) {
    std::vector<std::string> set;
    for (EntityId e : c.set(s)) set.push_back(c.dict()->Name(e));
    out.sets.push_back(std::move(set));
  }
  if (c.dict() != nullptr) {
    for (EntityId e = 0; e < c.dict()->size(); ++e) {
      out.names.push_back(c.dict()->Name(e));
    }
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Named& n) {
  os << "sets:";
  for (const auto& set : n.sets) {
    os << " {";
    for (const auto& name : set) os << ::testing::PrintToString(name) << ",";
    os << "}";
  }
  os << " names:";
  for (const auto& name : n.names) os << " " << ::testing::PrintToString(name);
  return os;
}

struct GoldenCase {
  const char* what;
  std::string input;
  Named want;
};

TEST_F(TextLoaderTest, GoldenByteSemantics) {
  const std::string long1 = "a-name-longer-than-sso-buffer-0";
  const std::string long2 = "a-name-longer-than-sso-buffer-1";
  const std::vector<GoldenCase> cases = {
      {"LF lines", "a b\nc\n", {{{"a", "b"}, {"c"}}, {"a", "b", "c"}}},
      {"CRLF lines", "a b\r\nc\r\n", {{{"a", "b"}, {"c"}}, {"a", "b", "c"}}},
      {"tab, vertical tab, form feed",
       "a\tb\vc\fd\n",
       {{{"a", "b", "c", "d"}}, {"a", "b", "c", "d"}}},
      {"runs of mixed separators",
       " \t a \v\f\r b \r\n",
       {{{"a", "b"}}, {"a", "b"}}},
      {"'#' at column 0 is a comment", "# a b\nc\n", {{{"c"}}, {"c"}}},
      {"'#' after leading spaces is a name",
       "  # d\n",
       {{{"#", "d"}}, {"#", "d"}}},
      {"'#' after CR is a name", "\r#x\n", {{{"#x"}}, {"#x"}}},
      {"'#' mid-line is a name", "a #b\n", {{{"a", "#b"}}, {"a", "#b"}}},
      {"blank and whitespace-only lines",
       "\n  \n\t\r\n\r\na\n\n",
       {{{"a"}}, {"a"}}},
      {"last line without newline", "a b\nc", {{{"a", "b"}, {"c"}}, {"a", "b", "c"}}},
      {"names past the small-string buffer",
       long1 + " " + long2 + "\n" + long2 + "\n",
       {{{long1, long2}, {long2}}, {long1, long2}}},
      {"bytes >= 0x80 and NUL are name bytes",
       "\xc3\xa9t\xc3\xa9 a\0b a\n"s,
       {{{"\xc3\xa9t\xc3\xa9", "a\0b"s, "a"}},
        {"\xc3\xa9t\xc3\xa9", "a\0b"s, "a"}}},
      {"0xA0 and 0x85 are not separators",
       "a\xa0z b\x85z\n",
       {{{"a\xa0z", "b\x85z"}}, {"a\xa0z", "b\x85z"}}},
      {"a name repeated within a line",
       "a b a b\n",
       {{{"a", "b"}}, {"a", "b"}}},
      {"duplicate sets collapse",
       "a b\nb a\nc\na  b\n",
       {{{"a", "b"}, {"c"}}, {"a", "b", "c"}}},
      {"ids follow first appearance",
       "z y\nx z\n",
       {{{"z", "y"}, {"z", "x"}}, {"z", "y", "x"}}},
      {"empty file", "", {}},
      {"only comments and blanks", "#a\n\n#b", {}},
  };
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(c.what);
    SetCollection got;
    ASSERT_TRUE(LoadCollectionText(Write(c.input), &got).ok());
    EXPECT_EQ(ToNamed(got), c.want);
    EXPECT_EQ(got.dict() == nullptr, c.want.names.empty());
  }
}

// The literal below was recorded from the getline/istringstream loader this
// one replaced. Ids feed the fingerprint, and the fingerprint feeds every
// selection-cache key and session-store record, so any drift in id order or
// set order fails here.
TEST_F(TextLoaderTest, FingerprintPinnedToLiteral) {
  const std::string bytes =
      "# header comment\r\n"
      "a b c d\r\n"
      "a d e\n"
      "  # d\n"
      "a\tb\vc\fd f\n"
      "\n"
      " \t \r\n"
      "a b c g h\n"
      "long-name-past-sso-0123456789 a\n"
      "\xc3\xa9t\xc3\xa9 a\0b a\n"
      "a b a h i\n"
      "b a d c\n"
      "a b j k\n"
      "a b g"s;
  SetCollection c;
  ASSERT_TRUE(LoadCollectionText(Write(bytes), &c).ok());
  EXPECT_EQ(c.num_sets(), 10u);
  ASSERT_NE(c.dict(), nullptr);
  EXPECT_EQ(c.dict()->size(), 15u);
  EXPECT_EQ(c.Fingerprint(), 0xd10f3d6ff253bedcULL);
}

TEST_F(TextLoaderTest, ReadErrorsAreIoErrors) {
  SetCollection out;
  Status missing = LoadCollectionText(dir_ + "/absent.txt", &out);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.message().rfind("io error:", 0), 0u) << missing.message();

  // A directory opens but cannot be read; it must not load as empty.
  Status dir = LoadCollectionText(dir_, &out);
  EXPECT_FALSE(dir.ok());
  EXPECT_EQ(dir.message().rfind("io error:", 0), 0u) << dir.message();
  EXPECT_EQ(out.num_sets(), 0u);
}

// ------------------------------------------------------------ differential

/// The loader as it was before the streaming rewrite, kept as the reference.
Status ReferenceLoad(const std::string& path, SetCollection* out) {
  std::ifstream f(path);
  if (!f) return Status::IoError("cannot open for read: " + path);
  SetCollectionBuilder builder;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::vector<std::string> names;
    std::string tok;
    while (ss >> tok) names.push_back(tok);
    if (!names.empty()) builder.AddSetNamed(names);
  }
  *out = builder.Build();
  return Status::OK();
}

/// One random byte; separators, '#', NUL and high bytes are over-weighted,
/// and name bytes come from a small alphabet so names repeat.
char RandomByte(Rng& rng) {
  static const char kSpecial[] = {' ', '\t', '\n', '\v', '\f', '\r', '#',
                                  '\0', '\x80', '\xff', '\xa0', '\x85'};
  const uint64_t r = rng.Uniform(100);
  if (r < 25) return kSpecial[rng.Uniform(sizeof kSpecial)];
  return static_cast<char>('a' + rng.Uniform(4));
}

/// A random file of about `size` bytes made of lines of random length.
std::string RandomText(Rng& rng, size_t size) {
  std::string out;
  while (out.size() < size) {
    const size_t line = rng.Uniform(4) == 0 ? rng.Uniform(200) : rng.Uniform(24);
    for (size_t i = 0; i < line; ++i) out += RandomByte(rng);
    if (rng.Uniform(8) == 0) {
      // Whole names, long ones included, so most lines are not unique.
      out += std::string(rng.Uniform(40), static_cast<char>('a' + rng.Uniform(3)));
      out += ' ';
    }
    out += rng.Uniform(5) == 0 ? "\r\n" : "\n";
  }
  return out;
}

void ExpectSameCollection(const SetCollection& want, const SetCollection& got) {
  ASSERT_EQ(got.num_sets(), want.num_sets());
  for (SetId s = 0; s < want.num_sets(); ++s) {
    auto a = want.set(s);
    auto b = got.set(s);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "set " << s;
  }
  ASSERT_EQ(got.dict() == nullptr, want.dict() == nullptr);
  if (want.dict() != nullptr) {
    ASSERT_EQ(got.dict()->size(), want.dict()->size());
    for (EntityId e = 0; e < want.dict()->size(); ++e) {
      ASSERT_EQ(got.dict()->Name(e), want.dict()->Name(e)) << "entity " << e;
    }
  }
  EXPECT_EQ(got.num_distinct_entities(), want.num_distinct_entities());
  EXPECT_EQ(got.Fingerprint(), want.Fingerprint());
}

TEST_F(TextLoaderTest, MatchesReferenceOnRandomFiles) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::string& path = Write(RandomText(rng, rng.Uniform(4096)));
    SetCollection want, got;
    ASSERT_TRUE(ReferenceLoad(path, &want).ok());
    ASSERT_TRUE(LoadCollectionText(path, &got).ok());
    ExpectSameCollection(want, got);
  }
}

// Files past one read buffer: the first refill starts at byte
// kTextReadBufferBytes, so each variant puts a construct right across it;
// later refills fall wherever the carried partial line leaves them.
TEST_F(TextLoaderTest, MatchesReferenceAcrossRefills) {
  const size_t kB = kTextReadBufferBytes;
  struct Variant {
    const char* what;
    std::string at_boundary;  // written so its middle byte is byte kB
  };
  const std::vector<Variant> variants = {
      {"name straddles the refill", "\nxyzxyzxyzxyz\n"},
      {"CR before, LF after the refill", "\nxy zw\r\nab\n"},
      {"comment line starts at the refill", "\nab\n#cd ef\n"},
      {"line starts at the refill", "\nab\ncd ef\n"},
      {"NUL and high bytes straddle", "\nq\0\x80\xffq\0\n"s},
  };
  for (size_t v = 0; v < variants.size(); ++v) {
    SCOPED_TRACE(variants[v].what);
    Rng rng(1000 + v);
    std::string bytes = RandomText(rng, 2 * kB + rng.Uniform(kB));
    const std::string& mark = variants[v].at_boundary;
    bytes.replace(kB - mark.size() / 2, mark.size(), mark);
    const std::string& path = Write(bytes);
    SetCollection want, got;
    ASSERT_TRUE(ReferenceLoad(path, &want).ok());
    ASSERT_TRUE(LoadCollectionText(path, &got).ok());
    ExpectSameCollection(want, got);
  }
}

TEST_F(TextLoaderTest, MatchesReferenceOnLinesLongerThanTheBuffer) {
  Rng rng(77);
  // One line of about 2.5 buffers (it must grow twice), then ordinary lines,
  // then a second long line that ends the file without a newline.
  std::string bytes;
  auto long_line = [&](size_t size) {
    while (bytes.size() < size) {
      bytes += static_cast<char>('a' + rng.Uniform(26));
      if (rng.Uniform(30) == 0) bytes += rng.Uniform(2) == 0 ? ' ' : '\t';
    }
  };
  long_line(5 * kTextReadBufferBytes / 2);
  bytes += "\r\n";
  bytes += RandomText(rng, 4096);
  long_line(bytes.size() + kTextReadBufferBytes + 17);
  const std::string& path = Write(bytes);
  SetCollection want, got;
  ASSERT_TRUE(ReferenceLoad(path, &want).ok());
  ASSERT_TRUE(LoadCollectionText(path, &got).ok());
  ExpectSameCollection(want, got);
}

}  // namespace
}  // namespace setdisc
