#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "core/experiment.hpp"
#include "fuzz/render.hpp"
#include "sync/scheme_factory.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace syncpat::trace {
namespace {

using testutil::ifetch;
using testutil::load;
using testutil::lock_acq;
using testutil::lock_rel;
using testutil::make_program;
using testutil::store;

TEST(TraceIo, RoundTripSingleProcessor) {
  std::vector<Event> events = {ifetch(0x100), load(0x4000'0000u, 3),
                               store(0x8000'0010u, 2)};
  ProgramTrace program = make_program({events}, "one");

  std::stringstream buf;
  write_program_trace(buf, program);
  ProgramTrace back = read_program_trace(buf);

  EXPECT_EQ(back.name, "one");
  ASSERT_EQ(back.num_procs(), 1u);
  EXPECT_EQ(collect(*back.per_proc[0]), events);
}

TEST(TraceIo, RoundTripMultiProcessorPreservesStreams) {
  std::vector<Event> p0 = {load(0x8000'0000u), lock_acq(0), lock_rel(0)};
  std::vector<Event> p1 = {store(0x8000'0040u, 5)};
  std::vector<Event> p2 = {};
  ProgramTrace program = make_program({p0, p1, p2}, "multi");

  std::stringstream buf;
  write_program_trace(buf, program);
  ProgramTrace back = read_program_trace(buf);

  ASSERT_EQ(back.num_procs(), 3u);
  EXPECT_EQ(collect(*back.per_proc[0]), p0);
  EXPECT_EQ(collect(*back.per_proc[1]), p1);
  EXPECT_EQ(collect(*back.per_proc[2]), p2);
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream buf;
  buf << "NOPE garbage";
  EXPECT_THROW(read_program_trace(buf), TraceIoError);
}

TEST(TraceIo, RejectsTruncation) {
  ProgramTrace program = make_program({{load(1), load(2), load(3)}});
  std::stringstream buf;
  write_program_trace(buf, program);
  const std::string full = buf.str();
  for (std::size_t cut : {full.size() - 1, full.size() / 2, std::size_t{5}}) {
    std::stringstream cut_buf(full.substr(0, cut));
    EXPECT_THROW(read_program_trace(cut_buf), TraceIoError) << "cut=" << cut;
  }
}

// Serialize a small two-processor trace once; the corruption corpus below
// mutates these bytes.
std::string sample_bytes() {
  ProgramTrace program = make_program(
      {{load(0x8000'0000u, 2), store(0x8000'0040u, 1), lock_acq(0)},
       {ifetch(0x100), lock_rel(0)}},
      "corpus");
  std::stringstream buf;
  write_program_trace(buf, program);
  return buf.str();
}

// Overwrite sizeof(T) bytes at `offset` with `value`'s little-endian encoding.
template <typename T>
std::string patched(std::string bytes, std::size_t offset, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  return bytes;
}

// Layout offsets of the v1 format (magic, version u32, nprocs u32,
// name_len u32, name bytes, then per processor: count u64 + 9-byte events).
constexpr std::size_t kVersionOffset = 4;
constexpr std::size_t kNameLenOffset = 12;
constexpr std::size_t kFirstCountOffset = 16 + 6;  // name "corpus"

TEST(TraceIo, RejectsTruncationAtEveryByteOffset) {
  const std::string full = sample_bytes();
  // Every strict prefix must raise TraceIoError — no cut point may yield a
  // silently shortened trace or an unbounded read.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::stringstream buf(full.substr(0, cut));
    EXPECT_THROW(read_program_trace(buf), TraceIoError) << "cut=" << cut;
  }
  // Sanity: the uncut bytes parse.
  std::stringstream ok(full);
  EXPECT_EQ(read_program_trace(ok).num_procs(), 2u);
}

TEST(TraceIo, RejectsUnsupportedVersion) {
  std::stringstream buf(
      patched<std::uint32_t>(sample_bytes(), kVersionOffset, 999));
  EXPECT_THROW(read_program_trace(buf), TraceIoError);
}

TEST(TraceIo, RejectsImplausibleProcessorCount) {
  std::stringstream buf(patched<std::uint32_t>(sample_bytes(), 8, 1u << 20));
  EXPECT_THROW(read_program_trace(buf), TraceIoError);
}

TEST(TraceIo, RejectsOversizedNameLength) {
  // An adversarial name_len (here 4 GiB - 1) must be rejected before any
  // allocation is attempted.
  std::stringstream buf(
      patched<std::uint32_t>(sample_bytes(), kNameLenOffset, 0xffff'ffffu));
  EXPECT_THROW(read_program_trace(buf), TraceIoError);
}

TEST(TraceIo, RejectsEventCountExceedingStreamSize) {
  // A declared per-processor event count far beyond the bytes actually in
  // the stream must be a TraceIoError, not a bad_alloc from reserve().
  for (const std::uint64_t count :
       {std::uint64_t{1000}, std::uint64_t{1} << 40,
        std::uint64_t{0xffff'ffff'ffff'ffffULL}}) {
    std::stringstream buf(
        patched<std::uint64_t>(sample_bytes(), kFirstCountOffset, count));
    EXPECT_THROW(read_program_trace(buf), TraceIoError) << "count=" << count;
  }
}

TEST(TraceIo, RejectsInvalidOpcode) {
  ProgramTrace program = make_program({{load(0x10)}});
  std::stringstream buf;
  write_program_trace(buf, program);
  std::string bytes = buf.str();
  bytes[bytes.size() - 1] = 0x7f;  // last byte is the single event's op
  std::stringstream bad(bytes);
  EXPECT_THROW(read_program_trace(bad), TraceIoError);
}

TEST(TraceIo, FileSaveAndLoad) {
  ProgramTrace program = make_program({{load(0x8000'1000u, 7)}}, "file-test");
  const std::string path = testutil::test_temp_dir() + "/syncpat_io_test.trc";
  save_program_trace(path, program);
  ProgramTrace back = load_program_trace(path);
  EXPECT_EQ(back.name, "file-test");
  ASSERT_EQ(back.num_procs(), 1u);
  EXPECT_EQ(collect(*back.per_proc[0]).size(), 1u);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_program_trace("/nonexistent/dir/x.trc"), TraceIoError);
}

TEST(TraceIo, SourcesAreResetBeforeWriting) {
  ProgramTrace program = make_program({{load(1), load(2)}});
  Event e;
  program.per_proc[0]->next(e);  // advance the cursor
  std::stringstream buf;
  write_program_trace(buf, program);  // must reset and write both events
  ProgramTrace back = read_program_trace(buf);
  EXPECT_EQ(collect(*back.per_proc[0]).size(), 2u);
}

// The CLI's trace-file path: run_experiment on a program read back from the
// trace format simulates, and takes the same ideal statistics from, what
// the profile it was written from does.
TEST(TraceIo, LoadedProgramRunsLikeItsProfile) {
  constexpr std::uint64_t kScale = 256;
  const workload::BenchmarkProfile profile = workload::pdsa_profile();
  ProgramTrace generated =
      workload::make_program_trace(profile.scaled(kScale));
  std::stringstream buf;
  write_program_trace(buf, generated);
  const std::string bytes = buf.str();
  for (const sync::SchemeKind scheme :
       {sync::SchemeKind::kQueuing, sync::SchemeKind::kTtas}) {
    SCOPED_TRACE(sync::scheme_kind_name(scheme));
    const core::MachineConfig config = testutil::machine(scheme);
    std::istringstream in(bytes);
    const core::ExperimentOutcome loaded =
        core::run_experiment(config, read_program_trace(in));
    const core::ExperimentOutcome direct =
        core::run_experiment(config, profile, kScale);
    EXPECT_EQ(fuzz::render_result(loaded.sim),
              fuzz::render_result(direct.sim));
    testutil::expect_same_ideal(loaded.ideal, direct.ideal);
  }
}

}  // namespace
}  // namespace syncpat::trace
