// Counting decorator over railgun::Env, used only by the traced run. The
// engine takes its reservoir and state-store Envs through
// TaskProcessorOptions, so one instance per store separates their I/O.
#ifndef PERFBENCH_TIMED_ENV_H_
#define PERFBENCH_TIMED_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/env.h"

namespace perfbench {

class TimedEnv : public railgun::Env {
 public:
  explicit TimedEnv(railgun::Env* inner) : inner_(inner) {}

  struct Counters {
    uint64_t write_bytes = 0;  // Every Append.
    uint64_t wal_bytes = 0;    // Appends to *.log files (state-store WAL).
    std::vector<double> sync_us;  // One entry per Sync call.
  };
  Counters counters() const;

  // Called by the file wrappers.
  void OnAppend(bool wal, size_t bytes);
  void OnSync(double us);

  // --- railgun::Env --------------------------------------------------
  railgun::Status NewWritableFile(
      const std::string& path,
      std::unique_ptr<railgun::WritableFile>* file) override;
  railgun::Status NewAppendableFile(
      const std::string& path,
      std::unique_ptr<railgun::WritableFile>* file) override;
  railgun::Status NewRandomAccessFile(
      const std::string& path,
      std::unique_ptr<railgun::RandomAccessFile>* file) override;
  railgun::Status NewSequentialFile(
      const std::string& path,
      std::unique_ptr<railgun::SequentialFile>* file) override;
  bool FileExists(const std::string& path) override;
  railgun::Status GetFileSize(const std::string& path,
                              uint64_t* size) override;
  railgun::Status RemoveFile(const std::string& path) override;
  railgun::Status RenameFile(const std::string& from,
                             const std::string& to) override;
  railgun::Status CreateDir(const std::string& path) override;
  railgun::Status RemoveDirRecursive(const std::string& path) override;
  railgun::Status ListDir(const std::string& path,
                          std::vector<std::string>* children) override;
  railgun::Status CopyFile(const std::string& from,
                           const std::string& to) override;

 private:
  railgun::Env* inner_;
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> wal_bytes_{0};
  mutable std::mutex mu_;
  std::vector<double> sync_us_;  // Guarded by mu_.
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_ENV_H_
