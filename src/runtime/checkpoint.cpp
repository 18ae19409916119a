#include "runtime/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "io/atomic_file.hpp"
#include "io/checksum.hpp"
#include "io/model_store.hpp"

namespace runtime {
namespace {

namespace fs = std::filesystem;

/// Cheap integrity probe: does the file end in a valid CRC-32 footer over
/// its own body?  (Checkpoints are always written by us, so they always
/// carry the version-2 footer; no need to parse the whole model here.)
bool file_crc_ok(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  constexpr std::size_t kFooterLen = 15;  // "crc32 " + 8 hex + '\n'
  if (content.size() < kFooterLen) return false;
  const std::string footer = content.substr(content.size() - kFooterLen);
  if (footer.compare(0, 6, "crc32 ") != 0 || footer.back() != '\n') {
    return false;
  }
  std::uint32_t stored = 0;
  if (!io::parse_crc32_hex(footer.substr(6, 8), &stored)) return false;
  return io::crc32(content.data(), content.size() - kFooterLen) == stored;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string directory)
    : directory_(std::move(directory)) {}

std::string CheckpointStore::current_path() const {
  return (fs::path(directory_) / "model.vpm").string();
}

std::string CheckpointStore::previous_path() const {
  return (fs::path(directory_) / "model.prev.vpm").string();
}

bool CheckpointStore::commit(const vprofile::Model& model,
                             std::string* error) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create checkpoint directory '" + directory_ +
               "': " + ec.message();
    }
    return false;
  }
  std::ostringstream payload;
  if (!io::save_model(model, payload)) {
    if (error != nullptr) *error = "model serialization failed";
    return false;
  }
  const std::string current = current_path();
  // Rotate only an *intact* current checkpoint into the last-good slot: a
  // corrupt file must never displace the copy we could still recover from.
  if (fs::exists(current, ec) && file_crc_ok(current)) {
    fs::rename(current, previous_path(), ec);
    if (ec) {
      if (error != nullptr) {
        *error = "checkpoint rotation failed: " + ec.message();
      }
      return false;
    }
  }
  return io::atomic_write_file(current, payload.str(), error);
}

CheckpointStore::LoadResult CheckpointStore::load() const {
  LoadResult result;
  std::string current_error;
  if (auto m = io::load_model_file(current_path(), &current_error)) {
    result.model = std::move(m);
    return result;
  }
  std::string previous_error;
  if (auto m = io::load_model_file(previous_path(), &previous_error)) {
    result.model = std::move(m);
    result.recovered_last_good = true;
    result.error = current_error;
    return result;
  }
  result.error = "latest: " + current_error + "; last-good: " + previous_error;
  return result;
}

bool CheckpointStore::has_checkpoint() const {
  std::error_code ec;
  return fs::exists(current_path(), ec) || fs::exists(previous_path(), ec);
}

}  // namespace runtime
