#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/util/arena.h"
#include "src/util/flags.h"
#include "src/util/hash.h"
#include "src/util/interner.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/timer.h"

namespace xseq {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(Status, AllConstructorsSetMatchingCode) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
}

TEST(Status, IOErrorIsDistinctFromCorruption) {
  Status io = Status::IOError("disk on fire");
  EXPECT_EQ(io.code(), StatusCode::kIOError);
  EXPECT_FALSE(io.IsCorruption());
  EXPECT_FALSE(Status::Corruption("bad bytes").IsIOError());
  EXPECT_EQ(io.ToString(), "IOError: disk on fire");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIOError), "IOError");
}

TEST(Status, CopyIsCheapAndEqualityWorks) {
  Status a = Status::NotFound("missing");
  Status b = a;
  EXPECT_EQ(a, b);
  EXPECT_FALSE(b.ok());
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.status().IsNotFound());
}

TEST(StatusOr, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> got = std::move(v).value();
  EXPECT_EQ(*got, 7);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123, 1), b(123, 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next32(), b.Next32());
}

TEST(Rng, StreamsAreIndependent) {
  Rng a(123, 1), b(123, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next32() == b.Next32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, GoldenFirstOutputs) {
  // Locks the output stream: datasets depend on it being stable.
  Rng r(42, 1);
  uint32_t first = r.Next32();
  Rng r2(42, 1);
  EXPECT_EQ(first, r2.Next32());
  Rng r3(42, 1);
  r3.Next32();
  EXPECT_NE(first, r3.Next32()) << "stream should advance";
}

TEST(Rng, UniformInBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    uint32_t v = r.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng r(7);
  std::set<uint32_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformRangeInclusive) {
  Rng r(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(r.UniformRange(-2, 2));
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng r(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng r(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (r.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ZipfSkewsLow) {
  Rng r(19);
  int low = 0;
  for (int i = 0; i < 1000; ++i) {
    uint32_t v = r.Zipf(100, 1.0);
    EXPECT_LT(v, 100u);
    if (v < 10) ++low;
  }
  EXPECT_GT(low, 300);  // heavily skewed toward small ranks
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  r.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Arena, AllocatesAligned) {
  Arena arena;
  void* a = arena.Allocate(3, 1);
  void* b = arena.Allocate(8, 8);
  EXPECT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
}

TEST(Arena, NewConstructsObjects) {
  Arena arena;
  struct P {
    int x;
    int y;
  };
  P* p = arena.New<P>(P{1, 2});
  EXPECT_EQ(p->x, 1);
  EXPECT_EQ(p->y, 2);
}

TEST(Arena, CopyStringNulTerminates) {
  Arena arena;
  const char* s = arena.CopyString("hello", 5);
  EXPECT_STREQ(s, "hello");
}

TEST(Arena, GrowsAcrossBlocks) {
  Arena arena(64);
  std::vector<char*> ptrs;
  for (int i = 0; i < 100; ++i) {
    ptrs.push_back(arena.CopyString("0123456789", 10));
  }
  for (char* p : ptrs) EXPECT_STREQ(p, "0123456789");
  EXPECT_GT(arena.BytesReserved(), 1000u);
}

TEST(Arena, LargeAllocationHonored) {
  Arena arena(64);
  void* p = arena.Allocate(10000);
  EXPECT_NE(p, nullptr);
}

TEST(Interner, AssignsDenseIds) {
  Interner in;
  EXPECT_EQ(in.Intern("a"), 0u);
  EXPECT_EQ(in.Intern("b"), 1u);
  EXPECT_EQ(in.Intern("a"), 0u);
  EXPECT_EQ(in.size(), 2u);
}

TEST(Interner, LookupRoundTrips) {
  Interner in;
  uint32_t id = in.Intern("boston");
  EXPECT_EQ(in.Lookup(id), "boston");
}

TEST(Interner, FindDoesNotIntern) {
  Interner in;
  EXPECT_EQ(in.Find("x"), Interner::kInvalidId);
  in.Intern("x");
  EXPECT_EQ(in.Find("x"), 0u);
  EXPECT_EQ(in.size(), 1u);
}

TEST(Interner, StableAcrossGrowth) {
  Interner in;
  std::vector<uint32_t> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(in.Intern("name" + std::to_string(i)));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(in.Lookup(ids[static_cast<size_t>(i)]),
              "name" + std::to_string(i));
    EXPECT_EQ(in.Find("name" + std::to_string(i)), ids[static_cast<size_t>(i)]);
  }
}

TEST(Hash, Fnv1aStable) {
  // Golden values keep hashed value designators stable across builds.
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ULL);
  EXPECT_NE(Fnv1a64("boston"), Fnv1a64("newyork"));
}

TEST(Hash, HashToRangeBounds) {
  for (uint32_t r : {1u, 2u, 1000u}) {
    EXPECT_LT(HashToRange("anything", r), r);
  }
}

TEST(Flags, ParsesKeyValueAndBool) {
  const char* argv[] = {"prog", "--scale=2.5", "--full", "--n=100",
                        "--name=abc"};
  FlagSet flags(5, const_cast<char**>(argv));
  EXPECT_TRUE(flags.Has("full"));
  EXPECT_TRUE(flags.GetBool("full", false));
  EXPECT_FALSE(flags.GetBool("absent", false));
  EXPECT_EQ(flags.GetInt("n", 0), 100);
  EXPECT_DOUBLE_EQ(flags.GetDouble("scale", 1.0), 2.5);
  EXPECT_EQ(flags.GetString("name", ""), "abc");
}

TEST(Flags, DefaultsWhenAbsentOrMalformed) {
  const char* argv[] = {"prog", "--n=abc"};
  FlagSet flags(2, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("n", 7), 7);
  EXPECT_EQ(flags.GetInt("m", 9), 9);
}

TEST(ThreadCpuTimer, CountsWorkNotSleep) {
  ThreadCpuTimer sleeping;
  Timer wall;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GE(wall.ElapsedMillis(), 30.0);
  EXPECT_LT(sleeping.ElapsedMillis(), 15.0);  // sleep burns no thread CPU

  ThreadCpuTimer working;
  volatile uint64_t sink = 0;
  while (working.ElapsedMillis() < 2.0) sink = sink + 1;
  EXPECT_GE(working.ElapsedMillis(), 2.0);
  EXPECT_GT(sink, 0u);
}

}  // namespace
}  // namespace xseq
