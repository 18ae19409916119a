// Runtime-layer (supervision) fault plans.
//
// The analog layer (fault.hpp) corrupts what the tap records; this header
// models failures of the *monitor process itself* — a wedged scoring
// stage, a checkpoint file corrupted on disk — so the soak harness can
// drive the supervisor's recovery paths deterministically.  Plans are
// plain data keyed on frame / commit indices (never wall time), so a plan
// + seed fully determines which recoveries fire and when.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace faults {

/// Wedge the stage scoring global frame `frame_index` (the supervisor's
/// own monotone frame numbering, stable across restarts).  A lockstep
/// supervisor models it inline: the frame is parked unscored, later frames
/// back up behind it, and the watchdog restart that releases it costs
/// exactly that frame — absorbed as a worker_error.
struct WorkerStallPlan {
  std::uint64_t frame_index = 0;
};

/// Corrupt the checkpoint file on disk after commit number `after_commit`
/// (1-based) lands: XOR `xor_mask` into the byte at `byte_offset` modulo
/// the file size.  The next load must detect the CRC mismatch and recover
/// from the last-good checkpoint instead.
struct CheckpointCorruptionPlan {
  std::uint64_t after_commit = 1;
  std::size_t byte_offset = 64;
  unsigned char xor_mask = 0x08;
};

/// Everything the soak harness can break in the runtime layer.  Analog
/// corruption — including the slow_poison() ramp that drives the drift
/// sentinel — stays in FaultProfile; these plans only break the monitor.
struct RuntimeFaultPlan {
  std::vector<WorkerStallPlan> stalls;
  std::vector<CheckpointCorruptionPlan> checkpoint_corruptions;
};

}  // namespace faults
