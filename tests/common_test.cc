// Unit tests for the common runtime: Status/StatusOr, Slice, coding, CRC32,
// string utilities, deterministic Random.
#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/stringutil.h"

namespace fame {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: key 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 11; ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status::OK());
  EXPECT_EQ(Status::Busy("x"), Status::Busy("x"));
  EXPECT_FALSE(Status::Busy("x") == Status::Busy("y"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::IOError("disk gone"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kIOError);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> p = std::move(v).value();
  EXPECT_EQ(*p, 7);
}

StatusOr<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseMacros(int x, int* out) {
  FAME_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  *out = v * 2;
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseMacros(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_TRUE(UseMacros(-1, &out).IsInvalidArgument());
}

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_FALSE(s.empty());
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(SliceTest, Comparison) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Prefix sorts first.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("abc") == Slice(std::string("abc")));
  EXPECT_TRUE(Slice("abc") != Slice("abx"));
}

TEST(SliceTest, StartsWith) {
  EXPECT_TRUE(Slice("feature_model").starts_with("feature"));
  EXPECT_FALSE(Slice("fea").starts_with("feature"));
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xbeef);
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  EXPECT_EQ(buf.size(), 14u);
  EXPECT_EQ(DecodeFixed16(buf.data()), 0xbeef);
  EXPECT_EQ(DecodeFixed32(buf.data() + 2), 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed64(buf.data() + 6), 0x0123456789abcdefull);
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  const uint64_t values[] = {0, 1, 127, 128, 300, 16383, 16384,
                             0xffffffffull, 0xffffffffffffffffull};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32Boundaries) {
  for (uint32_t v : {0u, 0x7fu, 0x80u, 0x3fffu, 0x4000u, 0xffffffffu}) {
    std::string buf;
    PutVarint32(&buf, v);
    Slice in(buf);
    uint32_t got = 0;
    ASSERT_TRUE(GetVarint32(&in, &got));
    EXPECT_EQ(got, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
  }
}

TEST(CodingTest, MalformedVarintRejected) {
  std::string buf(11, '\xff');  // continuation bit forever
  Slice in(buf);
  uint64_t v;
  EXPECT_FALSE(GetVarint64(&in, &v));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, Slice("payload"));
  PutLengthPrefixedSlice(&buf, Slice(""));
  Slice in(buf);
  Slice a, b;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  EXPECT_EQ(a.ToString(), "payload");
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(GetLengthPrefixedSlice(&in, &a));  // exhausted
}

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xcbf43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
}

TEST(Crc32Test, ExtendMatchesWhole) {
  const char* data = "feature oriented programming";
  uint32_t whole = Crc32(data, 28);
  uint32_t part = Crc32(data, 10);
  EXPECT_EQ(Crc32Extend(part, data + 10, 18), whole);
}

TEST(Crc32Test, MaskRoundTrip) {
  uint32_t crc = Crc32("abc", 3);
  EXPECT_NE(MaskCrc(crc), crc);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
}

/// Bit-at-a-time CRC-32 straight from the reflected IEEE polynomial: the
/// definition the table-driven code must agree with.
uint32_t ReferenceCrc32Extend(uint32_t init_crc, const unsigned char* p,
                              size_t n) {
  uint32_t c = ~init_crc;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1)));
  }
  return ~c;
}

/// `n` bytes over the whole byte range, high bit included.
std::string RandomBytes(Random* rng, size_t n) {
  std::string s(n, '\0');
  for (char& ch : s) ch = static_cast<char>(rng->Next() >> 56);
  return s;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtAnyLengthAndAlignment) {
  Random rng(0x5eed);
  for (int iter = 0; iter < 400; ++iter) {
    const size_t offset = rng.Uniform(64);
    const size_t n = iter < 64 ? static_cast<size_t>(iter)  // every short one
                               : rng.Uniform(8'193);
    const std::string buf = RandomBytes(&rng, offset + n);
    const auto* p = reinterpret_cast<const unsigned char*>(buf.data()) + offset;
    const uint32_t init = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Crc32(p, n), ReferenceCrc32Extend(0, p, n))
        << "n=" << n << " offset=" << offset;
    ASSERT_EQ(Crc32Extend(init, p, n), ReferenceCrc32Extend(init, p, n))
        << "n=" << n << " offset=" << offset << " init=" << init;
  }
}

TEST(Crc32Test, ExtendChainsAcrossRandomSplits) {
  Random rng(0xc4a1);
  for (int iter = 0; iter < 200; ++iter) {
    const size_t n = rng.Uniform(8'193);
    const std::string buf = RandomBytes(&rng, n);
    const uint32_t init = static_cast<uint32_t>(rng.Next());
    const uint32_t whole = Crc32Extend(init, buf.data(), n);
    // Up to five cuts, each piece at whatever alignment it lands on.
    uint32_t chained = init;
    size_t at = 0;
    for (int cut = 0, cuts = static_cast<int>(rng.Uniform(6)); cut < cuts;
         ++cut) {
      const size_t len = rng.Uniform(n - at + 1);
      chained = Crc32Extend(chained, buf.data() + at, len);
      at += len;
    }
    chained = Crc32Extend(chained, buf.data() + at, n - at);
    ASSERT_EQ(chained, whole) << "n=" << n;
  }
}

TEST(Crc32Test, PageSealIsUnchangedFromTheByteTableCode) {
  // A fixed 4 KiB page image, sealed the way Page::SealChecksum does it:
  // the CRC of the page with its checksum field (bytes 24..27) zeroed,
  // masked. The constant was computed by the one-table byte loop that
  // wrote every page and WAL frame before slicing-by-8, so a match means
  // those files still verify.
  Random rng(20080325);
  std::string page = RandomBytes(&rng, 4096);
  for (size_t i = 24; i < 28; ++i) page[i] = '\0';
  EXPECT_EQ(MaskCrc(Crc32(page.data(), page.size())), 0x6bc1249cu);
}

TEST(StringUtilTest, SplitAndJoin) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, "|"), "a|b||c");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, CaseAndAffixes) {
  EXPECT_EQ(ToLower("TxManager"), "txmanager");
  EXPECT_TRUE(StartsWith("btree:orders", "btree:"));
  EXPECT_TRUE(EndsWith("model.fm", ".fm"));
  EXPECT_FALSE(EndsWith("fm", "model.fm"));
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("cfg%d=%s", 3, "lru"), "cfg3=lru");
  EXPECT_EQ(StringPrintf("%.1f KB", 483.5), "483.5 KB");
}

TEST(RandomTest, DeterministicAcrossInstances) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.Uniform(10), 10u);
}

TEST(RandomTest, StringsHaveRequestedLength) {
  Random r(7);
  EXPECT_EQ(r.NextString(16).size(), 16u);
  EXPECT_EQ(r.NextString(0).size(), 0u);
}

}  // namespace
}  // namespace fame
