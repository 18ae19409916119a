// Crash-safe model checkpointing for the supervised runtime.
//
// Layout: a directory holding `model.vpm` (latest committed checkpoint)
// and `model.prev.vpm` (the previous one — "last good").  A commit
// rotates current -> previous and then writes the new model with
// write-temp + fsync + atomic-rename (io::atomic_write_file), so a crash
// at any instant leaves at least one intact, CRC-verified checkpoint on
// disk.  Rotation is integrity-gated: a current file that fails its CRC
// is never promoted to last-good, it is simply overwritten.
//
// load() prefers the latest checkpoint and falls back to last-good when
// the latest is corrupt (bit rot, torn write, hostile edit) — the model
// store's CRC-32 footer is what makes the corruption detectable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/model.hpp"

namespace runtime {

class CheckpointStore {
 public:
  /// The directory is created (recursively) on first commit.
  explicit CheckpointStore(std::string directory);

  /// Atomically commits a new checkpoint.  Returns false (with a
  /// diagnostic) on serialization or filesystem failure; the previous
  /// checkpoint is untouched in that case.
  bool commit(const vprofile::Model& model, std::string* error = nullptr);

  struct LoadResult {
    std::optional<vprofile::Model> model;
    /// True when the latest checkpoint was corrupt and last-good was used.
    bool recovered_last_good = false;
    /// Why the latest checkpoint was rejected (or why both were).
    std::string error;
  };

  /// Loads the newest intact checkpoint.  model == nullopt means neither
  /// file was readable (including the fresh-directory case).
  LoadResult load() const;

  /// True when either checkpoint file exists on disk.
  bool has_checkpoint() const;

  std::string current_path() const;
  std::string previous_path() const;

 private:
  std::string directory_;
};

}  // namespace runtime
