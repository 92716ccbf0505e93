// Tests for the packaging substrate: SHA-256/HMAC against published
// vectors, LZSS round-trips (property-based), archive integrity, descriptor
// schema, and end-to-end package build/verify/slice.
#include <gtest/gtest.h>

#include "pkg/archive.hpp"
#include "pkg/descriptor.hpp"
#include "pkg/lzss.hpp"
#include "pkg/package.hpp"
#include "pkg/sha256.hpp"
#include "util/rng.hpp"

namespace clc::pkg {
namespace {

// ---------------------------------------------------------------- sha256

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(digest_hex(Sha256::hash(bytes_of(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_hex(Sha256::hash(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      digest_hex(Sha256::hash(bytes_of(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(bytes_of(chunk));
  EXPECT_EQ(digest_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalEqualsOneShot) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    Bytes data(rng.next_below(5000));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto oneshot = Sha256::hash(data);
    Sha256 h;
    std::size_t pos = 0;
    while (pos < data.size()) {
      const std::size_t take =
          std::min<std::size_t>(rng.next_below(130) + 1, data.size() - pos);
      h.update(BytesView(data.data() + pos, take));
      pos += take;
    }
    EXPECT_EQ(h.finish(), oneshot);
  }
}

TEST(Hmac, Rfc4231Vectors) {
  // RFC 4231 test case 1.
  Bytes key(20, 0x0b);
  EXPECT_EQ(digest_hex(hmac_sha256(key, bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Test case 2 ("Jefe").
  EXPECT_EQ(digest_hex(hmac_sha256(bytes_of("Jefe"),
                                   bytes_of("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Long key (> block size) gets hashed first: test case 6.
  Bytes long_key(131, 0xaa);
  EXPECT_EQ(digest_hex(hmac_sha256(
                long_key, bytes_of("Test Using Larger Than Block-Size Key - "
                                   "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ---------------------------------------------------------------- lzss

TEST(Lzss, EmptyInput) {
  const Bytes c = lzss_compress({});
  auto d = lzss_decompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->empty());
}

TEST(Lzss, RepetitiveInputCompressesWell) {
  std::string text;
  for (int i = 0; i < 200; ++i)
    text += "the quick brown fox jumps over the lazy dog. ";
  const Bytes input = bytes_of(text);
  const Bytes c = lzss_compress(input);
  EXPECT_LT(c.size(), input.size() / 4);
  auto d = lzss_decompress(c);
  ASSERT_TRUE(d.ok()) << d.error().to_string();
  EXPECT_EQ(*d, input);
}

TEST(Lzss, RunLengthOverlappingMatch) {
  Bytes input(10000, 'x');
  const Bytes c = lzss_compress(input);
  EXPECT_LT(c.size(), 200u);
  auto d = lzss_decompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, input);
}

TEST(Lzss, IncompressibleGrowthBounded) {
  Rng rng(77);
  Bytes input(4096);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_u64());
  const Bytes c = lzss_compress(input);
  // Worst case: 1 flag bit per literal + 4 header bytes.
  EXPECT_LE(c.size(), input.size() + input.size() / 8 + 8);
  auto d = lzss_decompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, input);
}

TEST(Lzss, SizeHeaderBeyondMaxExpansionIsCorrupt) {
  // A 1-byte body claiming ~4 GiB: rejected before any output is reserved.
  const Bytes stream = {0xff, 0xff, 0xff, 0xff, 0x00};
  auto d = lzss_decompress(stream);
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.error().code, Errc::corrupt_data);
}

class LzssRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LzssRoundTrip, RandomStructuredBuffers) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    // Structured randomness: random alphabet size and repeated chunks, the
    // shapes real descriptors/binaries have.
    Bytes input;
    const int chunks = static_cast<int>(rng.next_in(0, 40));
    const int alphabet = static_cast<int>(rng.next_in(2, 60));
    Bytes motif(rng.next_below(300) + 1);
    for (auto& b : motif)
      b = static_cast<std::uint8_t>(rng.next_below(alphabet));
    for (int c = 0; c < chunks; ++c) {
      if (rng.chance(0.5)) {
        input.insert(input.end(), motif.begin(), motif.end());
      } else {
        const auto extra = rng.next_below(200);
        for (std::uint64_t i = 0; i < extra; ++i)
          input.push_back(static_cast<std::uint8_t>(rng.next_below(alphabet)));
      }
    }
    const Bytes c = lzss_compress(input);
    auto d = lzss_decompress(c);
    ASSERT_TRUE(d.ok()) << d.error().to_string();
    EXPECT_EQ(*d, input);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzssRoundTrip,
                         ::testing::Values(11u, 22u, 33u, 44u));

TEST(Lzss, CorruptStreamsRejected) {
  const Bytes input = bytes_of("abcabcabcabcabcabc");
  Bytes c = lzss_compress(input);
  // Truncations at every point must fail cleanly, never crash or hang.
  for (std::size_t cut = 0; cut < c.size(); ++cut) {
    auto d = lzss_decompress(BytesView(c.data(), cut));
    EXPECT_FALSE(d.ok()) << "cut=" << cut;
  }
  // Claimed size longer than the stream delivers.
  Bytes huge = c;
  huge[0] = 0xff;
  huge[1] = 0xff;
  EXPECT_FALSE(lzss_decompress(huge).ok());
}

// ---------------------------------------------------------------- archive

TEST(Archive, WriteExtractRoundTrip) {
  ArchiveWriter w;
  const Bytes text = bytes_of(std::string(500, 'z') + "descriptor");
  Bytes blob(2000);
  Rng rng(3);
  for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next_u64());
  ASSERT_TRUE(w.add("META/descriptor.xml", text).ok());
  ASSERT_TRUE(w.add("bin/x86_64-linux-clc", blob).ok());
  ASSERT_TRUE(w.add("empty", {}).ok());

  auto reader = ArchiveReader::open(w.finish());
  ASSERT_TRUE(reader.ok()) << reader.error().to_string();
  ASSERT_EQ(reader->entries().size(), 3u);
  EXPECT_TRUE(reader->contains("empty"));
  EXPECT_FALSE(reader->contains("nope"));
  EXPECT_EQ(*reader->extract("META/descriptor.xml"), text);
  EXPECT_EQ(*reader->extract("bin/x86_64-linux-clc"), blob);
  EXPECT_TRUE(reader->extract("empty")->empty());
  EXPECT_FALSE(reader->extract("nope").ok());
  // Repetitive entry was stored compressed; random one raw.
  EXPECT_TRUE(reader->entries()[0].compressed);
  EXPECT_FALSE(reader->entries()[1].compressed);
}

TEST(Archive, DuplicateAndEmptyNamesRejected) {
  ArchiveWriter w;
  ASSERT_TRUE(w.add("a", bytes_of("x")).ok());
  EXPECT_FALSE(w.add("a", bytes_of("y")).ok());
  EXPECT_FALSE(w.add("", bytes_of("y")).ok());
}

TEST(Archive, CorruptPayloadDetectedByDigest) {
  ArchiveWriter w;
  ASSERT_TRUE(w.add("f", bytes_of("payload-payload-payload"), true).ok());
  Bytes data = w.finish();
  // Flip one byte somewhere in the stored payload region.
  bool flipped_detected = false;
  for (std::size_t i = 10; i < data.size(); ++i) {
    Bytes mutated = data;
    mutated[i] ^= 0x40;
    auto reader = ArchiveReader::open(std::move(mutated));
    if (!reader.ok()) {
      flipped_detected = true;
      continue;
    }
    auto content = reader->extract("f");
    if (!content.ok() || *content != bytes_of("payload-payload-payload"))
      flipped_detected = true;
  }
  EXPECT_TRUE(flipped_detected);
}

TEST(Archive, NotAnArchiveRejected) {
  EXPECT_FALSE(ArchiveReader::open(bytes_of("garbage")).ok());
  EXPECT_FALSE(ArchiveReader::open({}).ok());
}

TEST(Archive, PartialFetchSmallerThanTotal) {
  ArchiveWriter w;
  ASSERT_TRUE(w.add("meta", bytes_of("small"), true).ok());
  Bytes big(100000, 7);
  ASSERT_TRUE(w.add("big1", big, true).ok());
  ASSERT_TRUE(w.add("big2", big, true).ok());
  Bytes data = w.finish();
  auto reader = ArchiveReader::open(std::move(data));
  ASSERT_TRUE(reader.ok());
  const auto partial = reader->partial_fetch_size({"meta", "big1"});
  const auto full = reader->partial_fetch_size({"meta", "big1", "big2"});
  EXPECT_LT(partial, full);
  EXPECT_LT(partial, full - 90000);
}

// ---------------------------------------------------------------- descriptor

ComponentDescription sample_description() {
  ComponentDescription d;
  d.name = "video.mpeg.decoder";
  d.version = *Version::parse("2.1.3");
  d.summary = "Decodes MPEG streams";
  d.hardware.architectures = {"x86_64", "arm"};
  d.hardware.operating_systems = {"linux"};
  d.hardware.min_memory_kb = 4096;
  d.dependencies.push_back(
      {"codec.core", *VersionConstraint::parse(">=2.0")});
  d.dependencies.push_back({"util.buffers", *VersionConstraint::parse("any")});
  d.mobile = true;
  d.replicable = true;
  d.stateless = false;
  d.aggregatable = false;
  d.license = {"pay-per-use", 0.25};
  d.security.vendor = "acme";
  d.qos = {0.75, 8192, 512.0};
  d.ports = {
      {PortKind::provides, "frames", "vid::FrameSink"},
      {PortKind::uses, "stream", "vid::Stream"},
      {PortKind::emits, "stats", "vid::Stats"},
      {PortKind::consumes, "control", "vid::Control"},
  };
  d.factory_interface = "vid::Decoder";
  d.framework_services = {"events", "migration"};
  return d;
}

TEST(Descriptor, XmlRoundTrip) {
  const ComponentDescription d = sample_description();
  auto back = ComponentDescription::from_xml(d.to_xml());
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back->name, d.name);
  EXPECT_EQ(back->version, d.version);
  EXPECT_EQ(back->summary, d.summary);
  EXPECT_EQ(back->hardware.architectures, d.hardware.architectures);
  EXPECT_EQ(back->hardware.min_memory_kb, d.hardware.min_memory_kb);
  ASSERT_EQ(back->dependencies.size(), 2u);
  EXPECT_EQ(back->dependencies[0].to_string(), "codec.core >=2.0.0");
  EXPECT_EQ(back->mobile, d.mobile);
  EXPECT_EQ(back->replicable, d.replicable);
  EXPECT_EQ(back->license.model, "pay-per-use");
  EXPECT_DOUBLE_EQ(back->license.cost_per_use, 0.25);
  EXPECT_EQ(back->security.vendor, "acme");
  EXPECT_DOUBLE_EQ(back->qos.max_cpu_load, 0.75);
  EXPECT_EQ(back->qos.max_memory_kb, 8192u);
  ASSERT_EQ(back->ports.size(), 4u);
  EXPECT_EQ(back->ports[1].kind, PortKind::uses);
  EXPECT_EQ(back->ports[1].type, "vid::Stream");
  EXPECT_EQ(back->factory_interface, "vid::Decoder");
  EXPECT_EQ(back->framework_services,
            (std::vector<std::string>{"events", "migration"}));
}

TEST(Descriptor, MinimalDocument) {
  auto d = ComponentDescription::from_xml(
      "<softpkg name=\"tiny\" version=\"1.0\"/>");
  ASSERT_TRUE(d.ok()) << d.error().to_string();
  EXPECT_EQ(d->name, "tiny");
  EXPECT_TRUE(d->mobile);         // defaults
  EXPECT_FALSE(d->replicable);
  EXPECT_EQ(d->license.model, "free");
}

TEST(Descriptor, Errors) {
  EXPECT_FALSE(ComponentDescription::from_xml("<x/>").ok());
  EXPECT_FALSE(ComponentDescription::from_xml("<softpkg version=\"1.0\"/>").ok());
  EXPECT_FALSE(ComponentDescription::from_xml("<softpkg name=\"a\"/>").ok());
  EXPECT_FALSE(ComponentDescription::from_xml(
                   "<softpkg name=\"a\" version=\"1.0\">"
                   "<ports><teleports name=\"p\" type=\"T\"/></ports>"
                   "</softpkg>")
                   .ok());
  EXPECT_FALSE(ComponentDescription::from_xml(
                   "<softpkg name=\"a\" version=\"1.0\">"
                   "<ports><uses name=\"p\" type=\"T\"/>"
                   "<provides name=\"p\" type=\"U\"/></ports>"
                   "</softpkg>")
                   .ok());  // duplicate port name
  EXPECT_FALSE(ComponentDescription::from_xml(
                   "<softpkg name=\"a\" version=\"1.0\">"
                   "<dependencies><dependency name=\"d\" constraint=\"bogus\"/>"
                   "</dependencies></softpkg>")
                   .ok());
}

TEST(Descriptor, HardwareMatching) {
  const ComponentDescription d = sample_description();
  EXPECT_TRUE(d.hardware.allows("x86_64", "linux", "clc", 8192));
  EXPECT_TRUE(d.hardware.allows("arm", "linux", "anyorb", 4096));
  EXPECT_FALSE(d.hardware.allows("sparc", "linux", "clc", 8192));
  EXPECT_FALSE(d.hardware.allows("x86_64", "windows", "clc", 8192));
  EXPECT_FALSE(d.hardware.allows("x86_64", "linux", "clc", 1024));
  const HardwareSpec any_hw;
  EXPECT_TRUE(any_hw.allows("pda", "palmos", "micro", 64));
}

// ---------------------------------------------------------------- package

Bytes make_image(std::size_t size, std::uint8_t seed) {
  Bytes image(size);
  for (std::size_t i = 0; i < size; ++i)
    image[i] = static_cast<std::uint8_t>(seed + i % 97);
  return image;
}

Result<Bytes> build_sample_package() {
  PackageBuilder b(sample_description());
  b.set_idl("module vid { interface Decoder { void decode(in string s); }; };");
  b.add_binary({"x86_64", "linux", "clc", "create_decoder",
                make_image(50000, 1)});
  b.add_binary({"arm", "linux", "clc", "create_decoder_arm",
                make_image(20000, 2)});
  return b.build(bytes_of("acme-secret-key"));
}

TEST(Package, BuildOpenRoundTrip) {
  auto data = build_sample_package();
  ASSERT_TRUE(data.ok()) << data.error().to_string();
  auto p = Package::open(*data);
  ASSERT_TRUE(p.ok()) << p.error().to_string();
  EXPECT_EQ(p->description().name, "video.mpeg.decoder");
  EXPECT_NE(p->idl().find("interface Decoder"), std::string::npos);
  EXPECT_EQ(p->binary_entries().size(), 2u);
  EXPECT_TRUE(p->supports("arm", "linux", "clc"));
  EXPECT_FALSE(p->supports("sparc", "solaris", "clc"));
  auto bin = p->binary_for("x86_64", "linux", "clc");
  ASSERT_TRUE(bin.ok());
  EXPECT_EQ(bin->entry_symbol, "create_decoder");
  EXPECT_EQ(bin->image.size(), 50000u);
  EXPECT_FALSE(p->binary_for("sparc", "solaris", "clc").ok());
}

TEST(Package, SignatureVerification) {
  auto data = build_sample_package();
  ASSERT_TRUE(data.ok());
  auto p = Package::open(*data);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(p->verify(bytes_of("acme-secret-key")).ok());
  auto bad = p->verify(bytes_of("wrong-key"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::signature_mismatch);
}

TEST(Package, TamperedBinaryFailsVerification) {
  auto data = build_sample_package();
  ASSERT_TRUE(data.ok());
  // Re-build the archive with one binary swapped, keeping the signature.
  auto original = ArchiveReader::open(*data);
  ASSERT_TRUE(original.ok());
  ArchiveWriter w;
  for (const auto& e : original->entries()) {
    Bytes content = *original->extract(e.name);
    if (e.name == "bin/arm-linux-clc") content[10] ^= 0xff;
    ASSERT_TRUE(w.add(e.name, content).ok());
  }
  auto p = Package::open(w.finish());
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->verify(bytes_of("acme-secret-key")).ok());
}

TEST(Package, RequiresBinary) {
  PackageBuilder b(sample_description());
  b.set_idl("module vid {};");
  EXPECT_FALSE(b.build(bytes_of("k")).ok());
}

TEST(Package, DuplicatePlatformRejected) {
  PackageBuilder b(sample_description());
  b.set_idl("module vid {};");
  b.add_binary({"x86_64", "linux", "clc", "a", make_image(100, 1)});
  b.add_binary({"x86_64", "linux", "clc", "b", make_image(100, 2)});
  EXPECT_FALSE(b.build(bytes_of("k")).ok());
}

TEST(Package, SliceForPdaIsSmaller) {
  auto data = build_sample_package();
  ASSERT_TRUE(data.ok());
  auto p = Package::open(*data);
  ASSERT_TRUE(p.ok());
  auto slice = p->slice_for_platform("arm", "linux", "clc");
  ASSERT_TRUE(slice.ok()) << slice.error().to_string();
  EXPECT_LT(slice->size(), p->total_size());
  auto sliced = Package::open(*slice);
  ASSERT_TRUE(sliced.ok()) << sliced.error().to_string();
  EXPECT_EQ(sliced->description().name, p->description().name);
  EXPECT_TRUE(sliced->supports("arm", "linux", "clc"));
  EXPECT_FALSE(sliced->supports("x86_64", "linux", "clc"));
  EXPECT_FALSE(sliced->slice_for_platform("x86_64", "linux", "clc").ok());
  // Partial fetch accounting mirrors the slice economics.
  EXPECT_LT(p->partial_fetch_size("arm", "linux", "clc"), p->total_size());
}

TEST(Package, OpenRejectsNonPackages) {
  EXPECT_FALSE(Package::open(bytes_of("junk")).ok());
  ArchiveWriter w;
  ASSERT_TRUE(w.add("random", bytes_of("data")).ok());
  EXPECT_FALSE(Package::open(w.finish()).ok());
}

}  // namespace
}  // namespace clc::pkg
