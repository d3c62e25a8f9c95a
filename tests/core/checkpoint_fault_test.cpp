// Checkpoint crash matrix: a crash, ENOSPC, short write, or failed
// rename/fsync at ANY injected syscall of write_checkpoint must leave the
// checkpoint path holding either the complete previous checkpoint or the
// complete new one — CRC-valid and fully readable — never a torn file.
// This is the write-side half of the kill-at-any-point guarantee; the
// engine-level kill-at-every-boundary matrix lives in
// tests/integration/checkpoint_resume_test.cpp and tests/cli/cli_test.cmake.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <string>

#include "fault/plan.h"
#include "net/error.h"

namespace mapit::core {
namespace {

namespace fs = std::filesystem;

Checkpoint checkpoint_a() {
  Checkpoint ckpt;
  ckpt.meta.config_hash = 0xAAAAAAAAAAAAAAAAull;
  ckpt.meta.corpus_fingerprint = 1;
  ckpt.meta.rib_fingerprint = 2;
  ckpt.meta.datasets_fingerprint = 3;
  ckpt.boundary = RunBoundary::kAfterAddStep;
  ckpt.iterations_done = 1;
  ckpt.engine_state = std::string(64, 'a');
  return ckpt;
}

/// A different, larger checkpoint so old/new are distinguishable by size
/// and content, and a torn mix of the two cannot masquerade as either.
Checkpoint checkpoint_b() {
  Checkpoint ckpt = checkpoint_a();
  ckpt.boundary = RunBoundary::kAfterIteration;
  ckpt.iterations_done = 2;
  ckpt.engine_state = std::string(200, 'b');
  return ckpt;
}

class CheckpointFaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("mapit_checkpoint_fault_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    path_ = checkpoint_path(dir_.string());
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Reads + fully validates the destination checkpoint (magic, version,
  /// size, CRC, payload structure). Any tear throws CheckpointError.
  [[nodiscard]] std::string destination_state() {
    return read_checkpoint(path_).engine_state;
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(CheckpointFaultMatrixTest, CrashAtEveryInjectionPoint) {
  write_checkpoint(path_, checkpoint_a());

  // Counting pass over a clean rewrite: every syscall it issues is an
  // injection point for the matrix below.
  fault::FaultPlan counter;
  write_checkpoint(path_, checkpoint_b(), counter);
  ASSERT_EQ(destination_state(), checkpoint_b().engine_state);

  const fault::Op kOps[] = {fault::Op::kOpen, fault::Op::kWrite,
                            fault::Op::kFsync, fault::Op::kRename,
                            fault::Op::kClose};
  int crash_points = 0;
  for (const fault::Op op : kOps) {
    for (std::uint64_t nth = 1; nth <= counter.calls(op); ++nth) {
      write_checkpoint(path_, checkpoint_a());  // reset: destination = old
      fault::FaultPlan plan;
      plan.add(fault::Fault{.op = op, .nth = nth, .crash = true});
      EXPECT_THROW(write_checkpoint(path_, checkpoint_b(), plan),
                   fault::InjectedCrash)
          << to_string(op) << " call " << nth;
      ++crash_points;
      std::string state;
      ASSERT_NO_THROW(state = destination_state())
          << "torn checkpoint after crash at " << to_string(op) << " call "
          << nth;
      EXPECT_TRUE(state == checkpoint_a().engine_state ||
                  state == checkpoint_b().engine_state)
          << "destination is neither old nor new after crash at "
          << to_string(op) << " call " << nth;
    }
  }
  EXPECT_GE(crash_points, 5);
}

TEST_F(CheckpointFaultMatrixTest, ShortWritesPlusCrashNeverTear) {
  write_checkpoint(path_, checkpoint_a());
  // Dribble the bytes out 7 per write, then crash mid-stream: the partial
  // temp file must never reach the checkpoint name.
  for (const std::uint64_t crash_at : {2u, 5u, 9u}) {
    fault::FaultPlan plan;
    plan.add(fault::Fault{.op = fault::Op::kWrite, .nth = 1,
                          .repeat = crash_at - 1, .short_bytes = 7});
    plan.add(fault::Fault{.op = fault::Op::kWrite, .nth = crash_at,
                          .crash = true});
    EXPECT_THROW(write_checkpoint(path_, checkpoint_b(), plan),
                 fault::InjectedCrash);
    std::string state;
    ASSERT_NO_THROW(state = destination_state())
        << "crash at write " << crash_at;
    EXPECT_EQ(state, checkpoint_a().engine_state);
  }
}

TEST_F(CheckpointFaultMatrixTest, EnospcAndFailedRenameKeepOldCheckpoint) {
  write_checkpoint(path_, checkpoint_a());
  struct Case {
    fault::Op op;
    int err;
  };
  for (const Case& c : {Case{fault::Op::kWrite, ENOSPC},
                        Case{fault::Op::kFsync, EIO},
                        Case{fault::Op::kRename, EXDEV}}) {
    fault::FaultPlan plan;
    plan.add(fault::Fault{.op = c.op, .nth = 1, .inject_errno = c.err});
    EXPECT_THROW(write_checkpoint(path_, checkpoint_b(), plan), Error)
        << to_string(c.op);
    EXPECT_EQ(destination_state(), checkpoint_a().engine_state)
        << to_string(c.op);
    // The errno path cleans its temp file: only the checkpoint remains.
    EXPECT_EQ(std::distance(fs::directory_iterator(dir_),
                            fs::directory_iterator{}),
              1)
        << to_string(c.op);
  }
}

TEST_F(CheckpointFaultMatrixTest, EintrDuringWriteIsInvisible) {
  write_checkpoint(path_, checkpoint_a());
  fault::FaultPlan plan;
  plan.add(fault::Fault{.op = fault::Op::kWrite, .nth = 1,
                        .inject_errno = EINTR});
  write_checkpoint(path_, checkpoint_b(), plan);
  EXPECT_EQ(destination_state(), checkpoint_b().engine_state);
}

TEST_F(CheckpointFaultMatrixTest, ReaderSurfacesOpenAndReadFailures) {
  write_checkpoint(path_, checkpoint_a());
  {
    fault::FaultPlan plan;
    plan.add(fault::Fault{.op = fault::Op::kOpen, .nth = 1,
                          .inject_errno = EMFILE});
    EXPECT_THROW((void)read_checkpoint(path_, plan), CheckpointError);
  }
  {
    fault::FaultPlan plan;
    plan.add(fault::Fault{.op = fault::Op::kRead, .nth = 1,
                          .inject_errno = EIO});
    EXPECT_THROW((void)read_checkpoint(path_, plan), CheckpointError);
  }
  // EINTR and short reads are absorbed by the read loop.
  {
    fault::FaultPlan plan;
    plan.add(fault::Fault{.op = fault::Op::kRead, .nth = 1,
                          .inject_errno = EINTR});
    plan.add(fault::Fault{.op = fault::Op::kRead, .nth = 2, .repeat = 100,
                          .short_bytes = 13});
    EXPECT_EQ(read_checkpoint(path_, plan).engine_state,
              checkpoint_a().engine_state);
  }
}

}  // namespace
}  // namespace mapit::core
