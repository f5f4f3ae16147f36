// Unit tests for src/collection: builder/dedup, membership, inverted index,
// sub-collection partitioning, informative-entity counting, serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "collection/entity_counter.h"
#include "collection/inverted_index.h"
#include "collection/serialization.h"
#include "collection/set_collection.h"
#include "collection/sub_collection.h"
#include "test_util.h"

namespace setdisc {
namespace {

using testing::MakePaperCollection;
using namespace setdisc::testing;

TEST(SetCollectionBuilder, BuildsPaperCollection) {
  SetCollection c = MakePaperCollection();
  EXPECT_EQ(c.num_sets(), 7u);
  EXPECT_EQ(c.universe_size(), 11u);
  EXPECT_EQ(c.num_distinct_entities(), 11u);
  EXPECT_EQ(c.total_elements(), 4u + 3 + 5 + 5 + 4 + 4 + 3);
  EXPECT_EQ(c.set_size(0), 4u);
  EXPECT_EQ(c.label(0), "S1");
}

TEST(SetCollectionBuilder, SortsAndDeduplicatesElements) {
  SetCollectionBuilder b;
  b.AddSet({5, 1, 3, 1, 5});
  SetCollection c = b.Build();
  ASSERT_EQ(c.num_sets(), 1u);
  auto s = c.set(0);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 1u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(s[2], 5u);
}

TEST(SetCollectionBuilder, DeduplicatesIdenticalSets) {
  SetCollectionBuilder b;
  b.AddSet({1, 2, 3}, "first");
  b.AddSet({3, 2, 1});            // same set, different order
  b.AddSet({1, 2, 3, 3});         // same set with duplicate element
  b.AddSet({1, 2});               // distinct
  std::vector<SetId> mapping;
  SetCollection c = b.Build(&mapping);
  EXPECT_EQ(c.num_sets(), 2u);
  EXPECT_EQ(mapping[0], mapping[1]);
  EXPECT_EQ(mapping[1], mapping[2]);
  EXPECT_NE(mapping[0], mapping[3]);
  EXPECT_EQ(c.label(mapping[0]), "first");
}

TEST(SetCollectionBuilder, KeepsFirstNonEmptyLabel) {
  SetCollectionBuilder b;
  b.AddSet({1, 2});
  b.AddSet({2, 1}, "named");
  std::vector<SetId> mapping;
  SetCollection c = b.Build(&mapping);
  EXPECT_EQ(c.num_sets(), 1u);
  EXPECT_EQ(c.label(0), "named");
}

TEST(SetCollection, ContainsViaBinarySearch) {
  SetCollection c = MakePaperCollection();
  EXPECT_TRUE(c.Contains(0, kA));
  EXPECT_TRUE(c.Contains(0, kD));
  EXPECT_FALSE(c.Contains(0, kE));
  EXPECT_TRUE(c.Contains(1, kE));
  EXPECT_FALSE(c.Contains(6, kK));
}

TEST(SetCollection, NamedSetsRoundTripThroughDict) {
  SetCollectionBuilder b;
  b.AddSetNamed({"headache", "nausea"});
  b.AddSetNamed({"nausea", "fever"});
  SetCollection c = b.Build();
  ASSERT_NE(c.dict(), nullptr);
  EntityId nausea = c.dict()->Lookup("nausea");
  ASSERT_NE(nausea, kNoEntity);
  EXPECT_TRUE(c.Contains(0, nausea));
  EXPECT_TRUE(c.Contains(1, nausea));
  EXPECT_EQ(c.EntityName(nausea), "nausea");
  EXPECT_EQ(c.dict()->Lookup("unseen"), kNoEntity);
}

TEST(EntityDict, IdsStayStableAcrossIndexGrowth) {
  EntityDict dict;
  EXPECT_EQ(dict.Lookup("x"), kNoEntity);  // before the index exists
  std::vector<std::string> names;
  for (int i = 0; i < 5000; ++i) {
    // Prefixes of one another, NULs and long names all coexist.
    names.push_back(i % 3 == 0
                        ? std::string(i % 40, 'p')
                        : "n" + std::to_string(i) + std::string(i % 5, '\0'));
  }
  std::vector<EntityId> first;
  for (const auto& n : names) first.push_back(dict.Intern(n));
  // After every growth, each name keeps the id of its first appearance.
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(dict.Intern(names[i]), first[i]);
    EXPECT_EQ(dict.Lookup(names[i]), first[i]);
    EXPECT_EQ(dict.Name(first[i]), names[i]);
  }
  EntityId next = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    if (first[i] == next) ++next;  // ids are dense in first-seen order
    EXPECT_LT(first[i], next);
  }
  EXPECT_EQ(dict.size(), next);
  EXPECT_EQ(dict.Lookup("unseen"), kNoEntity);
  // "n2" was interned with two NULs, not one.
  EXPECT_EQ(dict.Lookup(std::string_view("n2\0", 3)), kNoEntity);
  EXPECT_EQ(dict.size(), next);
}

TEST(EntityDict, InternAllMatchesInternOneByOne) {
  // Batches of every length up to a few batch sizes, with repeats inside a
  // batch and growth of the index in the middle of one.
  EntityDict one, all;
  uint64_t x = 12345;
  for (size_t len = 0; len < 70; ++len) {
    std::vector<std::string> owned;
    for (size_t i = 0; i < len; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      owned.push_back("k" + std::to_string((x >> 33) % (40 * len + 1)));
    }
    std::vector<std::string_view> names(owned.begin(), owned.end());
    std::vector<EntityId> want, got = {kNoEntity};
    for (std::string_view n : names) want.push_back(one.Intern(n));
    all.InternAll(names, &got);
    ASSERT_EQ(got.size(), len + 1);  // appends
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin() + 1));
    ASSERT_EQ(all.size(), one.size());
  }
  for (EntityId e = 0; e < one.size(); ++e) EXPECT_EQ(all.Name(e), one.Name(e));
}

TEST(EntityDict, BuildResetsTheBuilderDict) {
  SetCollectionBuilder b;
  b.AddSet({b.dict().Intern("x"), b.dict().Intern("y")});
  SetCollection c = b.Build();
  ASSERT_NE(c.dict(), nullptr);
  EXPECT_EQ(c.dict()->Lookup("y"), 1u);
  EXPECT_EQ(b.dict().size(), 0u);
  EXPECT_EQ(b.dict().Lookup("x"), kNoEntity);
  EXPECT_EQ(b.dict().Intern("y"), 0u);
}

TEST(SetCollection, EntityNameFallsBackToId) {
  SetCollection c = MakePaperCollection();
  EXPECT_EQ(c.EntityName(3), "e3");
}

TEST(InvertedIndex, PostingsMatchMembership) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  // a is in all seven sets.
  EXPECT_EQ(idx.Frequency(kA), 7u);
  // d is in S1, S2, S3 = ids 0,1,2.
  auto d_postings = idx.Postings(kD);
  ASSERT_EQ(d_postings.size(), 3u);
  EXPECT_EQ(d_postings[0], 0u);
  EXPECT_EQ(d_postings[1], 1u);
  EXPECT_EQ(d_postings[2], 2u);
  EXPECT_EQ(idx.Frequency(999), 0u);  // out of range entity: empty
}

TEST(InvertedIndex, SetsContainingAll) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  EntityId both[] = {kB, kD};  // b and d together: S1, S3
  auto res = idx.SetsContainingAll(both);
  ASSERT_EQ(res.size(), 2u);
  EXPECT_EQ(res[0], 0u);
  EXPECT_EQ(res[1], 2u);

  EntityId none[] = {kE, kK};  // e only in S2, k only in S6
  EXPECT_TRUE(idx.SetsContainingAll(none).empty());

  // Empty query matches everything.
  EXPECT_EQ(idx.SetsContainingAll({}).size(), 7u);
}

TEST(SubCollection, FullAndPartition) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  EXPECT_EQ(full.size(), 7u);
  auto [in, out] = full.Partition(kD);
  EXPECT_EQ(in.size(), 3u);
  EXPECT_EQ(out.size(), 4u);
  // Partition preserves sorted ids.
  EXPECT_EQ(in.ids()[0], 0u);
  EXPECT_EQ(out.ids()[0], 3u);
  EXPECT_EQ(full.CountContaining(kD), 3u);
  EXPECT_EQ(full.CountContaining(kA), 7u);
}

TEST(SubCollection, TotalElements) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  EXPECT_EQ(full.TotalElements(), c.total_elements());
}

TEST(EntityCounter, InformativeEntitiesOnly) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  EntityCounter counter;
  std::vector<EntityCount> counts;
  counter.CountInformative(full, &counts);
  // a (in all sets) is uninformative; b..k are informative: 10 entities.
  ASSERT_EQ(counts.size(), 10u);
  // Ascending entity order.
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_LT(counts[i - 1].entity, counts[i].entity);
  }
  EXPECT_EQ(counts[0].entity, kB);
  EXPECT_EQ(counts[0].count, 6u);
  // d in three sets.
  EXPECT_EQ(counts[2].entity, kD);
  EXPECT_EQ(counts[2].count, 3u);
}

TEST(EntityCounter, RespectsExclusions) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  EntityCounter counter;
  EntityExclusion excluded(c.universe_size(), false);
  excluded[kD] = true;
  std::vector<EntityCount> counts;
  counter.CountInformative(full, &counts, &excluded);
  for (const auto& ec : counts) EXPECT_NE(ec.entity, kD);
  EXPECT_EQ(counts.size(), 9u);
}

TEST(EntityCounter, ScratchResetsBetweenCalls) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  EntityCounter counter;
  std::vector<EntityCount> first, second;
  counter.CountInformative(full, &first);
  counter.CountInformative(full, &second);
  EXPECT_EQ(first, second);
}

TEST(EntityCounter, CountAllIncludesUninformative) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  EntityCounter counter;
  std::vector<EntityCount> counts;
  counter.CountAll(full, &counts);
  EXPECT_EQ(counts.size(), 11u);  // a..k all present
  EXPECT_EQ(counts[0].entity, kA);
  EXPECT_EQ(counts[0].count, 7u);
}

TEST(EntityCounter, SubCollectionLocalInformativeness) {
  SetCollection c = MakePaperCollection();
  // Sub-collection {S1, S3}: both contain b, c, d -> those become
  // uninformative locally; e/f distinguish.
  SubCollection sub(&c, {0, 2});
  EntityCounter counter;
  std::vector<EntityCount> counts;
  counter.CountInformative(sub, &counts);
  ASSERT_EQ(counts.size(), 1u);  // only f (S3 has f, S1 does not)
  EXPECT_EQ(counts[0].entity, kF);
}

TEST(Serialization, BinaryRoundTrip) {
  SetCollection c = MakePaperCollection();
  std::string path =
      (std::filesystem::temp_directory_path() / "setdisc_roundtrip.bin")
          .string();
  ASSERT_TRUE(SaveCollectionBinary(c, path).ok());
  SetCollection back;
  ASSERT_TRUE(LoadCollectionBinary(path, &back).ok());
  ASSERT_EQ(back.num_sets(), c.num_sets());
  for (SetId s = 0; s < c.num_sets(); ++s) {
    auto a = c.set(s);
    auto b = back.set(s);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
  std::remove(path.c_str());
}

TEST(Serialization, TextRoundTrip) {
  SetCollectionBuilder b;
  b.AddSetNamed({"x", "y", "z"});
  b.AddSetNamed({"y", "w"});
  SetCollection c = b.Build();
  std::string path =
      (std::filesystem::temp_directory_path() / "setdisc_roundtrip.txt")
          .string();
  ASSERT_TRUE(SaveCollectionText(c, path).ok());
  SetCollection back;
  ASSERT_TRUE(LoadCollectionText(path, &back).ok());
  EXPECT_EQ(back.num_sets(), 2u);
  EXPECT_EQ(back.num_distinct_entities(), 4u);
  std::remove(path.c_str());
}

TEST(Serialization, LoadMissingFileFails) {
  SetCollection out;
  EXPECT_FALSE(LoadCollectionBinary("/nonexistent/path.bin", &out).ok());
  EXPECT_FALSE(LoadCollectionText("/nonexistent/path.txt", &out).ok());
}

TEST(SubCollectionFingerprint, EqualIdsEqualFingerprints) {
  SetCollection c = MakePaperCollection();
  SubCollection a(&c, {0, 2, 4});
  SubCollection b(&c, {0, 2, 4});
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  SubCollection d(&c, {0, 2, 5});
  EXPECT_NE(a.Fingerprint(), d.Fingerprint());
  SubCollection e(&c, {0, 2});
  EXPECT_NE(a.Fingerprint(), e.Fingerprint());
}

TEST(SubCollectionFingerprint, PartitionPropagatesIncrementally) {
  // Once the parent's fingerprint exists, Partition() can derive the
  // children's during the same pass; the derived values must equal
  // from-scratch hashes of the same ids.
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  full.Fingerprint();  // arm incremental tracking
  auto [in, out] = full.Partition(kD, /*derive_fingerprints=*/true);
  SubCollection in_fresh(&c, {in.ids().begin(), in.ids().end()});
  SubCollection out_fresh(&c, {out.ids().begin(), out.ids().end()});
  EXPECT_EQ(in.Fingerprint(), in_fresh.Fingerprint());
  EXPECT_EQ(out.Fingerprint(), out_fresh.Fingerprint());
  EXPECT_NE(in.Fingerprint(), out.Fingerprint());

  // Without derivation the children compute lazily to the same values.
  SubCollection cold = SubCollection::Full(&c);
  auto [cold_in, cold_out] = cold.Partition(kD);
  EXPECT_EQ(cold_in.Fingerprint(), in.Fingerprint());
  EXPECT_EQ(cold_out.Fingerprint(), out.Fingerprint());
}

TEST(EntityExclusionFingerprint, OrderIndependentAndReversible) {
  EntityExclusion a, b;
  EXPECT_EQ(a.Fingerprint(), 0u);
  a.Set(3);
  a.Set(7);
  b.Set(7);
  b.Set(3);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  EXPECT_NE(a.Fingerprint(), 0u);

  uint64_t both = a.Fingerprint();
  a.Set(11);
  EXPECT_NE(a.Fingerprint(), both);
  a.Set(11, false);  // clearing restores the previous fingerprint
  EXPECT_EQ(a.Fingerprint(), both);

  // Redundant sets don't perturb it, and trailing false bits don't either.
  a.Set(3);
  EXPECT_EQ(a.Fingerprint(), both);
  a.resize(100, false);
  EXPECT_EQ(a.Fingerprint(), both);

  // The vector<bool>-style write proxy routes through the same bookkeeping.
  EntityExclusion via_proxy(20, false);
  via_proxy[3] = true;
  via_proxy[7] = true;
  EXPECT_EQ(via_proxy.Fingerprint(), both);
  EXPECT_TRUE(via_proxy[3]);
  EXPECT_FALSE(via_proxy[4]);

  // Shrinking below a set bit removes its contribution.
  via_proxy.resize(4);
  EXPECT_EQ(via_proxy.Fingerprint(), b.Fingerprint() ^ FingerprintBit(7));
}

TEST(Serialization, RejectsCorruptHeader) {
  std::string path =
      (std::filesystem::temp_directory_path() / "setdisc_bad.bin").string();
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "not a collection";
  fwrite(junk, 1, sizeof junk, f);
  fclose(f);
  SetCollection out;
  EXPECT_FALSE(LoadCollectionBinary(path, &out).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace setdisc
